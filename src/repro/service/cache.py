"""Result cache keyed on (spec fingerprint, input-table epochs).

A repeated query — same app, same parameters, same engine options —
over unchanged inputs returns the stored payload without touching the
scheduler.  "Unchanged" is decided by the kvstore layer's table
mutation epochs: an entry records each input table's epoch *at job
completion*, and a hit requires every recorded epoch to match the
table's current one.  Any mutation of an input table (a change batch,
a reload, another job writing it) bumps its epoch and silently
invalidates every entry that depended on it — there is no explicit
invalidation protocol to get wrong.

Dropped tables count as mutated (a recreated table restarts its epoch,
but the entry then misses on the epoch value or the sweep below), and
a table the store no longer knows is an automatic miss.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.errors import NoSuchTableError
from repro.kvstore.api import KVStore


class ResultCache:
    """A small LRU of finished-job payloads.

    Payloads are opaque: :meth:`lookup` returns the very object
    :meth:`put` was given.  The front door stores a result's encoded
    JSON bytes, so a hit is served without re-encoding anything.

    Thread-compatible, not thread-safe: the front door serializes
    access under its own lock.
    """

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        #: fingerprint -> (epochs {table: epoch}, payload)
        self._entries: "OrderedDict[str, Tuple[Dict[str, int], Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _current_epochs(store: KVStore, tables: Dict[str, int]) -> Optional[Dict[str, int]]:
        current: Dict[str, int] = {}
        for name in tables:
            try:
                current[name] = store.get_table(name).mutation_epoch
            except NoSuchTableError:
                return None
        return current

    def lookup(self, store: KVStore, fingerprint: str) -> Optional[Any]:
        """The payload, if present and its input epochs still match."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        epochs, payload = entry
        if self._current_epochs(store, epochs) != epochs:
            # stale: an input mutated (or vanished) since completion
            del self._entries[fingerprint]
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return payload

    def put(self, store: KVStore, fingerprint: str, input_tables: list, payload: Any) -> None:
        """Record *payload*, versioned at the tables' current epochs."""
        epochs = self._current_epochs(store, {name: 0 for name in input_tables})
        if epochs is None:
            return  # an input table vanished mid-flight; don't cache
        self._entries[fingerprint] = (epochs, payload)
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}
