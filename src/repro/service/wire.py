"""The service's one JSON encoder, and the fixed result envelope.

Every JSON body the service writes goes through :func:`encode`:
``orjson`` with sorted keys, so equal values give equal bytes, and the
output is compact (no spaces).  Floats round-trip bit for bit through
:func:`decode`; non-finite floats (NaN, ±inf), which JSON cannot spell,
encode as ``null``.  Numpy scalars and arrays encode as their values.

A finished job's payload is encoded exactly once, at completion; those
bytes are what the job record and the result cache keep, and
:func:`result_body` wraps them for ``GET /v1/jobs/{id}/result`` without
touching them again.
"""

from __future__ import annotations

from typing import Any

import orjson

_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def encode(value: Any) -> bytes:
    """*value* as compact, key-sorted JSON bytes.

    Raises :class:`TypeError` for what JSON cannot hold (sets, non-str
    dict keys, integers beyond 64 bits, arbitrary objects).
    """
    return orjson.dumps(value, option=_OPTIONS)


def decode(raw: bytes) -> Any:
    """Inverse of :func:`encode`."""
    return orjson.loads(raw)


def result_body(job_id: str, cached: bool, result: bytes) -> bytes:
    """The ``GET …/result`` body: a fixed envelope around *result*,
    which is already-encoded JSON and is copied in unchanged.

    ``{"cached": <bool>, "job_id": "<id>", "result": <result>}`` — keys
    in sorted order, one space after each colon and comma, ``result``
    last, so the payload is everything between ``"result": `` and the
    closing brace.
    """
    return b"".join((
        b'{"cached": ', b"true" if cached else b"false",
        b', "job_id": ', encode(job_id),
        b', "result": ', result, b"}",
    ))
