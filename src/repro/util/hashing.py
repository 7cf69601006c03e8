"""Deterministic hashing used to assign keys to table parts.

Python's built-in :func:`hash` is randomized per process for strings
(``PYTHONHASHSEED``), which would make partition assignment differ from
run to run and break tests that pin expected placements.  This module
provides a stable hash over a useful universe of key types.

The paper notes (Section III-A) that "the table client can control the
assignment of keys to parts by controlling the hash values of its
keys"; we honor that by first checking for a ``__ripple_hash__`` method
on the key object.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

import numpy as np

_INT_TAG = b"i"
_STR_TAG = b"s"
_BYTES_TAG = b"b"
_FLOAT_TAG = b"f"
_BOOL_TAG = b"B"
_NONE_TAG = b"n"
_TUPLE_TAG = b"t"
_FROZENSET_TAG = b"F"


def _hash_bytes(data: bytes) -> int:
    # crc32 is stable, fast, and good enough for partition balancing.
    return zlib.crc32(data) & 0xFFFFFFFF


# str/tuple keys dominate the non-int routing traffic (SUMMA block ids,
# composite spill keys, named aggregates), and encoding them is far more
# expensive than a dict probe, so their hashes are memoized.  The cache
# key includes element types for tuples because Python equates 1 == True
# == 1.0 in dict lookups while _encode deliberately does not.
_HASH_CACHE: dict = {}
_HASH_CACHE_MAX = 1 << 16


def stable_hash(key: Any) -> int:
    """Return a deterministic 32-bit hash for *key*.

    Supported key types: ``None``, bool, int, float, str, bytes, and
    tuples/frozensets of supported types.  Any object exposing a
    ``__ripple_hash__()`` method overrides all of this — that is the
    client's lever for controlling placement.
    """
    if type(key) is int:
        # Fast path, and faithful to the paper's Java heritage where
        # Integer.hashCode() is the value itself.
        return key & 0xFFFFFFFF
    kind = type(key)
    if kind is str:
        cached = _HASH_CACHE.get(key)
        if cached is None:
            cached = _hash_bytes(_STR_TAG + key.encode("utf-8"))
            if len(_HASH_CACHE) >= _HASH_CACHE_MAX:
                _HASH_CACHE.clear()
            _HASH_CACHE[key] = cached
        return cached
    if kind is tuple:
        try:
            cache_key = (key, tuple(type(item) for item in key))
            cached = _HASH_CACHE.get(cache_key)
        except TypeError:  # unhashable element (e.g. a list inside)
            return _hash_bytes(_encode(key))
        if cached is None:
            cached = _hash_bytes(_encode(key))
            if len(_HASH_CACHE) >= _HASH_CACHE_MAX:
                _HASH_CACHE.clear()
            _HASH_CACHE[cache_key] = cached
        return cached
    custom = getattr(key, "__ripple_hash__", None)
    if custom is not None:
        return int(custom()) & 0xFFFFFFFF
    # numpy scalar keys (the batch data plane hands these out) must
    # route exactly like their Python counterparts: np.int64(5) and 5
    # compare and hash equal in store dicts, so they must share a part.
    if isinstance(key, np.integer):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, np.floating):
        return _hash_bytes(_encode(float(key)))
    if isinstance(key, np.bool_):
        return _hash_bytes(_encode(bool(key)))
    return _hash_bytes(_encode(key))


def _encode(key: Any) -> bytes:
    if key is None:
        return _NONE_TAG
    if isinstance(key, bool):  # must come before int
        return _BOOL_TAG + (b"\x01" if key else b"\x00")
    if isinstance(key, int):
        return _INT_TAG + key.to_bytes((key.bit_length() + 8) // 8 + 1, "little", signed=True)
    if isinstance(key, float):
        return _FLOAT_TAG + struct.pack("<d", key)
    if isinstance(key, str):
        return _STR_TAG + key.encode("utf-8")
    if isinstance(key, bytes):
        return _BYTES_TAG + key
    if isinstance(key, tuple):
        parts = [_TUPLE_TAG, struct.pack("<I", len(key))]
        for item in key:
            enc = _encode(item)
            parts.append(struct.pack("<I", len(enc)))
            parts.append(enc)
        return b"".join(parts)
    if isinstance(key, frozenset):
        encs = sorted(_encode(item) for item in key)
        parts = [_FROZENSET_TAG, struct.pack("<I", len(encs))]
        for enc in encs:
            parts.append(struct.pack("<I", len(enc)))
            parts.append(enc)
        return b"".join(parts)
    raise TypeError(
        f"key of type {type(key).__name__} is not stably hashable; "
        "use int/str/bytes/float/tuple keys or define __ripple_hash__"
    )


def part_for_key(key: Any, n_parts: int) -> int:
    """Map *key* to a part index in ``[0, n_parts)``."""
    if n_parts <= 0:
        raise ValueError(f"n_parts must be positive, got {n_parts}")
    if n_parts == 1:
        return 0
    return stable_hash(key) % n_parts

