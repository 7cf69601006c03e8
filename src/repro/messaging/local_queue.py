"""Direct in-memory queue-set implementation.

One deque per part: puts append without a lock (``deque.append`` is
atomic), takes pop under the part's lock so concurrent takers never
split a batch count.  This is the fast path used when the store does
not bring its own communication substrate; messages pass by reference.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, List

from repro.messaging.api import MessageQueuing, QueueSet


class LocalQueueSet(QueueSet):
    """Deque-backed queue set."""

    def __init__(self, name: str, n_parts: int):
        super().__init__(name, n_parts)
        self._queues = [deque() for _ in range(n_parts)]
        self._take_locks = [threading.Lock() for _ in range(n_parts)]

    def put(self, part_index: int, message: Any) -> None:
        self._check_put(message)
        self._queues[part_index].append(message)

    def take(self, part_index: int, limit: int) -> List[Any]:
        queue = self._queues[part_index]
        with self._take_locks[part_index]:
            return [queue.popleft() for _ in range(min(limit, len(queue)))]

    def pending(self, part_index: int) -> int:
        return len(self._queues[part_index])


class LocalMessageQueuing(MessageQueuing):
    """Namespace of :class:`LocalQueueSet` instances."""

    def _new_queue_set(self, name: str, n_parts: int) -> QueueSet:
        return LocalQueueSet(name, n_parts)
