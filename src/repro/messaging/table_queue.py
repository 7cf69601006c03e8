"""Generic queue-set implementation layered on the Table interface.

This mirrors the paper's prototype (Section IV-B): "Our current
implementation uses a generic implementation of the message queuing
interface based on a private extension in the Table interface.  Each
new queue set is implemented by such a new table."

Each queue set creates one table in the backing store.  A message put
into queue *p* is stored under key ``(p, seq)`` where ``seq`` is a
monotonically increasing per-part sequence number, and the table's
``key_hash`` sends the key to part *p* — so the message physically
lands where its reader lives.  Per part, the set keeps the next
sequence number to put and the next to take; a take reads the keys in
between with one ``get_many`` and removes them with one
``delete_many``.
"""

from __future__ import annotations

import threading
from typing import Any, List

from repro.errors import QueueError
from repro.kvstore.api import KVStore, TableSpec
from repro.messaging.api import MessageQueuing, QueueSet


def _queue_part(key: tuple) -> int:
    """A queue key's part: its first element (module-level, so the
    table spec pickles to worker processes)."""
    return key[0]


class TableQueueSet(QueueSet):
    """A queue set stored in one table of the backing K/V store."""

    def __init__(self, name: str, n_parts: int, store: KVStore):
        super().__init__(name, n_parts)
        self._store = store
        self._table_name = f"__queue__{name}"
        self._table = store.create_table(
            TableSpec(name=self._table_name, n_parts=n_parts, key_hash=_queue_part)
        )
        # per part: a lock over its two cursors, the next sequence
        # number to put and the next to take
        self._locks = [threading.Lock() for _ in range(n_parts)]
        self._next_put = [0] * n_parts
        self._next_take = [0] * n_parts

    def put(self, part_index: int, message: Any) -> None:
        self._check_put(message)
        if not 0 <= part_index < self.n_parts:
            raise QueueError(f"part {part_index} out of range for queue set {self.name!r}")
        with self._locks[part_index]:
            seq = self._next_put[part_index]
            # written before the cursor moves, so a take never reaches
            # a sequence number whose message has not landed
            self._table.put((part_index, seq), message)
            self._next_put[part_index] = seq + 1

    def take(self, part_index: int, limit: int) -> List[Any]:
        with self._locks[part_index]:
            first = self._next_take[part_index]
            last = min(self._next_put[part_index], first + limit)
            if first == last:
                return []
            keys = [(part_index, seq) for seq in range(first, last)]
            found = self._table.get_many(keys)
            self._table.delete_many(keys)
            self._next_take[part_index] = last
        return [found[key] for key in keys]

    def pending(self, part_index: int) -> int:
        with self._locks[part_index]:
            return self._next_put[part_index] - self._next_take[part_index]

    def _drop(self) -> None:
        super()._drop()
        try:
            self._store.drop_table(self._table_name)
        except Exception:
            pass


class TableMessageQueuing(MessageQueuing):
    """Queue sets layered on an arbitrary :class:`KVStore`."""

    def __init__(self, store: KVStore):
        super().__init__()
        self._store = store

    def _new_queue_set(self, name: str, n_parts: int) -> QueueSet:
        return TableQueueSet(name, n_parts, self._store)
