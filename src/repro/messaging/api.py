"""Message-queuing SPI (paper Section III-B).

The abstraction is centered on the *queue set*: a named group of
queues, one per part of a table the set is placed like.  Clients can
put a message into any queue of the set from anywhere in the system;
the code serving a part (the no-sync engine's drain tasks) takes that
part's messages in batches, without blocking.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Dict, List

from repro.errors import NoSuchQueueSetError, QueueError


class QueueSet(abc.ABC):
    """A group of queues placed like the parts of some table."""

    def __init__(self, name: str, n_parts: int):
        if n_parts <= 0:
            raise QueueError("a queue set needs at least one part")
        self._name = name
        self._n_parts = n_parts
        self._deleted = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def n_parts(self) -> int:
        return self._n_parts

    def _check_put(self, message: Any) -> None:
        if self._deleted:
            raise NoSuchQueueSetError(self.name)
        if message is None:
            raise QueueError("None is not a legal message payload")

    @abc.abstractmethod
    def put(self, part_index: int, message: Any) -> None:
        """Enqueue *message* for *part_index*.

        Messages put by one sender into one queue are taken in the order
        they were put — the per-(sender, receiver) FIFO guarantee the
        EBSP ``incremental`` property relies on.
        """

    @abc.abstractmethod
    def take(self, part_index: int, limit: int) -> List[Any]:
        """Pop up to *limit* of *part_index*'s messages, oldest first.

        Never blocks: an empty queue gives an empty list.  Safe to call
        from several threads at once; each message is taken exactly once.
        """

    @abc.abstractmethod
    def pending(self, part_index: int) -> int:
        """Messages currently queued for *part_index*."""

    def _drop(self) -> None:
        """Release what the set holds; later puts raise."""
        self._deleted = True


class MessageQueuing(abc.ABC):
    """Factory/namespace for queue sets within some larger system."""

    def __init__(self) -> None:
        self._sets: Dict[str, QueueSet] = {}
        self._lock = threading.Lock()

    @abc.abstractmethod
    def _new_queue_set(self, name: str, n_parts: int) -> QueueSet:
        ...

    def create_queue_set(self, name: str, n_parts: int) -> QueueSet:
        """Create a queue set with one queue per part."""
        with self._lock:
            if name in self._sets:
                raise QueueError(f"queue set {name!r} already exists")
            queue_set = self._new_queue_set(name, n_parts)
            self._sets[name] = queue_set
            return queue_set

    def delete_queue_set(self, name: str) -> None:
        with self._lock:
            queue_set = self._sets.pop(name, None)
        if queue_set is None:
            raise NoSuchQueueSetError(name)
        queue_set._drop()

    def get_queue_set(self, name: str) -> QueueSet:
        with self._lock:
            queue_set = self._sets.get(name)
        if queue_set is None:
            raise NoSuchQueueSetError(name)
        return queue_set
