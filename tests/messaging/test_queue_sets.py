"""Queue-set conformance across both implementations (paper §III-B)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import NoSuchQueueSetError, QueueError
from repro.kvstore.local import LocalKVStore
from repro.messaging.local_queue import LocalMessageQueuing
from repro.messaging.table_queue import TableMessageQueuing


@pytest.fixture(params=["local", "table"])
def queuing(request):
    if request.param == "local":
        yield LocalMessageQueuing()
    else:
        store = LocalKVStore(default_n_parts=4)
        yield TableMessageQueuing(store)
        store.close()


class TestQueueSetBasics:
    def test_put_then_worker_reads(self, queuing):
        qs = queuing.create_queue_set("q", 3)
        qs.put(1, "hello")
        assert qs.take(1, 10) == ["hello"]
        assert qs.take(0, 10) == [] and qs.take(2, 10) == []

    def test_take_from_empty_returns_nothing(self, queuing):
        qs = queuing.create_queue_set("q", 1)
        start = time.monotonic()
        assert qs.take(0, 64) == []
        assert time.monotonic() - start < 1

    def test_per_sender_fifo_order(self, queuing):
        """Messages from one sender to one queue are taken in send
        order — the guarantee the EBSP `incremental` property rests on."""
        qs = queuing.create_queue_set("q", 2)
        for i in range(50):
            qs.put(0, i)
        got = []
        while True:
            batch = qs.take(0, 7)
            if not batch:
                break
            assert len(batch) <= 7
            got.extend(batch)
        assert got == list(range(50))

    def test_take_respects_limit(self, queuing):
        qs = queuing.create_queue_set("q", 1)
        for i in range(5):
            qs.put(0, i)
        assert qs.take(0, 2) == [0, 1]
        assert qs.pending(0) == 3
        assert qs.take(0, 64) == [2, 3, 4]

    def test_workers_can_message_each_other(self, queuing):
        qs = queuing.create_queue_set("q", 2)
        qs.put(0, 1)
        (value,) = qs.take(0, 1)
        qs.put(1, value + 1)
        assert qs.take(1, 1) == [2]

    def test_none_message_rejected(self, queuing):
        qs = queuing.create_queue_set("q", 1)
        with pytest.raises(QueueError):
            qs.put(0, None)

    def test_pending_counts(self, queuing):
        qs = queuing.create_queue_set("q", 2)
        qs.put(0, "a")
        qs.put(0, "b")
        assert qs.pending(0) == 2
        assert qs.pending(1) == 0
        qs.take(0, 1)
        assert qs.pending(0) == 1


class TestConcurrentTake:
    """Several takers on one part while senders put: a drain and the
    drains stealing from its part take concurrently."""

    N_SENDERS = 3
    N_TAKERS = 4
    PER_SENDER = 300

    def test_concurrent_takes_are_exactly_once(self, queuing):
        qs = queuing.create_queue_set("q", 2)
        total = self.N_SENDERS * self.PER_SENDER
        batches = []
        lock = threading.Lock()
        taken = [0]
        start = threading.Barrier(self.N_SENDERS + self.N_TAKERS)

        def send(sender):
            start.wait()
            for i in range(self.PER_SENDER):
                qs.put(0, (sender, i))

        def take():
            start.wait()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                batch = qs.take(0, 7)
                with lock:
                    if batch:
                        batches.append(batch)
                        taken[0] += len(batch)
                    if taken[0] >= total:
                        return

        threads = [threading.Thread(target=send, args=(s,)) for s in range(self.N_SENDERS)]
        threads += [threading.Thread(target=take) for _ in range(self.N_TAKERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        seen = [message for batch in batches for message in batch]
        assert sorted(seen) == sorted(
            (s, i) for s in range(self.N_SENDERS) for i in range(self.PER_SENDER)
        )
        # each take is a FIFO slice: one sender's messages ascend in it
        for batch in batches:
            for sender in range(self.N_SENDERS):
                mine = [i for s, i in batch if s == sender]
                assert mine == sorted(mine)
        assert qs.pending(0) == 0 and qs.take(0, 7) == []


class TestNamespace:
    def test_duplicate_name_rejected(self, queuing):
        queuing.create_queue_set("q", 1)
        with pytest.raises(QueueError):
            queuing.create_queue_set("q", 1)

    def test_delete_then_put_rejected(self, queuing):
        qs = queuing.create_queue_set("q", 1)
        queuing.delete_queue_set("q")
        with pytest.raises(NoSuchQueueSetError):
            qs.put(0, "late")

    def test_delete_unknown(self, queuing):
        with pytest.raises(NoSuchQueueSetError):
            queuing.delete_queue_set("ghost")

    def test_get_roundtrip(self, queuing):
        qs = queuing.create_queue_set("q", 2)
        assert queuing.get_queue_set("q") is qs

    def test_zero_parts_rejected(self, queuing):
        with pytest.raises(QueueError):
            queuing.create_queue_set("q", 0)


class TestTableQueueInternals:
    def test_queue_table_is_private(self):
        store = LocalKVStore(default_n_parts=2)
        queuing = TableMessageQueuing(store)
        queuing.create_queue_set("q", 2)
        assert "__queue__q" in store.list_tables()
        queuing.delete_queue_set("q")
        assert "__queue__q" not in store.list_tables()
        store.close()

    def test_messages_placed_at_destination_part(self):
        store = LocalKVStore(default_n_parts=3)
        queuing = TableMessageQueuing(store)
        qs = queuing.create_queue_set("q", 3)
        qs.put(2, "payload")
        table = store.get_table("__queue__q")
        assert table.part_of((2, 0)) == 2
        assert table.get((2, 0)) == "payload"
        store.close()

    def test_take_removes_the_messages_from_the_table(self):
        store = LocalKVStore(default_n_parts=2)
        queuing = TableMessageQueuing(store)
        qs = queuing.create_queue_set("q", 2)
        for i in range(3):
            qs.put(1, i)
        assert qs.take(1, 2) == [0, 1]
        table = store.get_table("__queue__q")
        assert [key for key, _ in table.items()] == [(1, 2)]
        store.close()
