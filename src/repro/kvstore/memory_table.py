"""In-memory part implementations shared by the store implementations.

Two part flavors mirror the paper's Section IV-A: a *hash* part (plain
dict, used "otherwise") and an *ordered* part ("this local table is
ordered when the job needs sorting"), kept sorted with a lazily
re-sorted key index — cheap amortized inserts, sorted iteration.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterator, Optional

from repro.kvstore.api import PartView, has_none

_value = itemgetter(1)


class HashPart(PartView):
    """A part backed by a plain dict.  Iteration order is insertion order."""

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict = {}

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def put(self, key: Any, value: Any) -> None:
        if value is None:
            raise ValueError("None is not a storable value; use delete()")
        self._data[key] = value

    def put_many(self, batch: list) -> None:
        if has_none(map(_value, batch)):
            raise ValueError("None is not a storable value; use delete()")
        self._data.update(batch)

    def delete(self, key: Any) -> bool:
        return self._data.pop(key, None) is not None

    def items(self) -> Iterator[tuple]:
        # Snapshot so that consumers may mutate the part while iterating.
        return iter(list(self._data.items()))

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


class OrderedPart(PartView):
    """A part whose iteration is sorted by key.

    Maintains a dict plus a sorted key list.  An insert of a new key
    only marks the index dirty; it is rebuilt when an ordered scan is
    requested, so bulk loads stay O(n log n) overall instead of O(n^2).
    """

    __slots__ = ("_data", "_sorted_keys", "_dirty")

    def __init__(self) -> None:
        self._data: dict = {}
        self._sorted_keys: list = []
        self._dirty = False

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def put(self, key: Any, value: Any) -> None:
        if value is None:
            raise ValueError("None is not a storable value; use delete()")
        if key not in self._data:
            self._dirty = True
        self._data[key] = value

    def put_many(self, batch: list) -> None:
        if has_none(map(_value, batch)):
            raise ValueError("None is not a storable value; use delete()")
        data = self._data
        size = len(data)
        data.update(batch)
        if len(data) != size:  # a new key
            self._dirty = True

    def delete(self, key: Any) -> bool:
        if key not in self._data:
            return False
        del self._data[key]
        # Leave the stale key in the index; scans filter against _data.
        self._dirty = True
        return True

    def _compact(self) -> None:
        if not self._dirty:
            return
        live = [k for k in self._data]
        live.sort()
        self._sorted_keys = live
        self._dirty = False

    def items(self) -> Iterator[tuple]:
        self._compact()
        keys = list(self._sorted_keys)
        data = self._data
        return iter([(k, data[k]) for k in keys if k in data])

    def range_items(self, lo: Optional[Any] = None, hi: Optional[Any] = None) -> Iterator[tuple]:
        """Iterate pairs with ``lo <= key < hi`` in sorted order."""
        self._compact()
        keys = self._sorted_keys
        start = 0 if lo is None else bisect.bisect_left(keys, lo)
        end = len(keys) if hi is None else bisect.bisect_left(keys, hi)
        data = self._data
        return iter([(k, data[k]) for k in keys[start:end] if k in data])

    def first_key(self) -> Any:
        self._compact()
        for k in self._sorted_keys:
            if k in self._data:
                return k
        return None

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self._sorted_keys = []
        self._dirty = False


def make_part(ordered: bool) -> PartView:
    """Create a part of the requested flavor."""
    return OrderedPart() if ordered else HashPart()
