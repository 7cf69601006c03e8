"""Spill transport through the transport table (paper §IV-A)."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.ebsp.transport import (
    CLIENT_SRC,
    CONT,
    CREATE,
    MSG,
    CombiningBundle,
    SpillWriter,
    collect_step_records,
    create_transport_table,
    encode_spill,
    is_compact_spill,
    iter_spill_records,
    spill_record_count,
)
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.util.hashing import part_for_key


@pytest.fixture
def setup():
    store = LocalKVStore(default_n_parts=4)
    transport = create_transport_table(store, "xport", 4)
    yield store, transport
    store.close()


def part_of(key):
    return part_for_key(key, 4)


class TestSpillWriter:
    def test_spill_lands_in_destination_part(self, setup):
        store, transport = setup
        writer = SpillWriter(transport, src_part=0, step=1, n_parts=4, part_of=part_of)
        writer.add((MSG, 3, "hello"))  # int key 3 → part 3
        writer.flush_all()
        keys = [k for k, _ in transport.items()]
        assert len(keys) == 1
        dest_part, step, src_part, seq = keys[0]
        assert dest_part == 3 and step == 1 and src_part == 0
        assert transport.part_of(keys[0]) == 3

    def test_batching_by_size(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport, src_part=0, step=0, n_parts=4, part_of=part_of, batch_size=3
        )
        for i in range(7):
            writer.add((MSG, 4, i))  # all to part 0
        # two full batches spilled eagerly, one partial still buffered
        assert len(transport.items()) == 2
        writer.flush_all()
        assert len(transport.items()) == 3
        assert writer.records_written == 7

    def test_hold_defers_everything(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport, src_part=0, step=0, n_parts=4, part_of=part_of, batch_size=1, hold=True
        )
        for i in range(5):
            writer.add((MSG, 0, i))
        assert transport.items() == []
        writer.flush_all()
        assert writer.records_written == 5

    def test_discard_drops_buffers(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport, src_part=0, step=0, n_parts=4, part_of=part_of, hold=True
        )
        writer.add((MSG, 0, "gone"))
        writer.discard()
        writer.flush_all()
        assert transport.items() == []
        assert writer.records_written == 0

    def test_kind_counts(self, setup):
        store, transport = setup
        writer = SpillWriter(transport, src_part=0, step=0, n_parts=4, part_of=part_of)
        writer.add((MSG, 0, "m"))
        writer.add((MSG, 1, "m"))
        writer.add((CONT, 2))
        writer.flush_all()
        assert writer.messages_added == 2
        assert writer.continues_added == 1

    def test_spill_ledger(self, setup):
        store, transport = setup
        writer = SpillWriter(transport, src_part=1, step=2, n_parts=4, part_of=part_of)
        writer.add((MSG, 0, "x"))
        writer.add((MSG, 0, "y"))
        writer.flush_all()
        assert writer.spilled == {0: 2}


class TestPipelinedTransport:
    """The asynchronous, batched spill path added for pipelined transport."""

    def test_combining_stops_at_spill_boundary(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=2,
            combiner=lambda a, b: a + b,
        )
        writer.add((MSG, 4, 1))
        writer.add((MSG, 4, 2))  # combines in place; buffer stays at 1
        writer.add((MSG, 8, 3))  # fills the buffer → sealed
        writer.add((MSG, 4, 10))  # fresh buffer: must NOT merge into the sealed spill
        writer.flush_all()
        spills = sorted(transport.items(), key=lambda kv: kv[0][3])
        assert [records for _, records in spills] == [
            [(MSG, 4, 3), (MSG, 8, 3)],
            [(MSG, 4, 10)],
        ]
        assert writer.messages_combined == 1

    def test_hold_leaks_nothing_before_flush(self, tmp_path):
        store = PartitionedKVStore(n_partitions=4)
        try:
            transport = create_transport_table(store, "xport", 4)
            writer = SpillWriter(
                transport,
                src_part=0,
                step=0,
                n_parts=4,
                part_of=part_of,
                batch_size=1,
                hold=True,
                spills_per_batch=4,
            )
            for i in range(12):
                writer.add((MSG, i, "payload"))
            assert transport.items() == []  # nothing before the commit point
            writer.flush_all()
            # held buffers seal once per destination part at the commit point
            assert len(transport.items()) == 4
            assert sum(len(records) for _, records in transport.items()) == 12
            assert writer.records_written == 12
        finally:
            store.close()

    def test_discard_after_partial_spills(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport, src_part=0, step=0, n_parts=4, part_of=part_of, batch_size=2
        )
        writer.add((MSG, 4, "a"))
        writer.add((MSG, 4, "b"))  # sealed and dispatched (spills_per_batch=1)
        writer.add((MSG, 4, "c"))  # still buffered
        writer.discard()
        # the dispatched spill is already out — matching the eager
        # pre-pipeline semantics — but the buffered record is gone
        assert [records for _, records in transport.items()] == [
            [(MSG, 4, "a"), (MSG, 4, "b")]
        ]
        assert writer.records_written == 2
        writer.flush_all()
        assert len(transport.items()) == 1

    def test_discard_drops_sealed_but_undispatched(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=1,
            spills_per_batch=8,
        )
        writer.add((MSG, 4, "x"))  # sealed into the ready batch, not dispatched
        writer.add((MSG, 4, "y"))
        writer.discard()
        assert transport.items() == []
        assert writer.records_written == 0
        assert writer.spills_sealed == 0

    def test_fifo_per_src_dest_on_partitioned_store(self, tmp_path):
        store = PartitionedKVStore(n_partitions=4)
        try:
            transport = create_transport_table(store, "xport", 4)
            writer = SpillWriter(
                transport,
                src_part=2,
                step=1,
                n_parts=4,
                part_of=part_of,
                batch_size=1,
                max_in_flight=3,
                spills_per_batch=2,
            )
            for i in range(40):
                writer.add((MSG, 4, i))  # every record → part 0, one spill each
            writer.flush_all()
            spills = sorted(transport.items(), key=lambda kv: kv[0][3])
            # contiguous sequence numbers, records in add() order
            assert [key[3] for key, _ in spills] == list(range(40))
            assert [records[0][2] for _, records in spills] == list(range(40))
        finally:
            store.close()

    def test_coalescing_reduces_dispatches(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=1,
            spills_per_batch=4,
        )
        for i in range(16):
            writer.add((MSG, 4, i))
        writer.flush_all()
        assert writer.spills_sealed == 16
        assert writer.batches_dispatched == 4  # 4 spills per marshalled request
        assert len(transport.items()) == 16

    def test_in_flight_window_is_bounded(self):
        """With a slow table the writer must block once the window fills."""

        class _SlowTable:
            def __init__(self):
                self.data = {}
                self.pending = []
                self.max_pending = 0
                self._lock = threading.Lock()
                self._stop = False
                self._thread = threading.Thread(target=self._drain, daemon=True)
                self._thread.start()

            def put_many_async(self, pairs):
                futures = []
                with self._lock:
                    for key, records in pairs:
                        future = Future()
                        self.pending.append((key, records, future))
                        futures.append(future)
                    self.max_pending = max(self.max_pending, len(self.pending))
                return futures

            def _drain(self):
                while not self._stop:
                    with self._lock:
                        item = self.pending.pop(0) if self.pending else None
                        self.max_pending = max(self.max_pending, len(self.pending) + (1 if item else 0))
                    if item is None:
                        time.sleep(0.001)
                        continue
                    time.sleep(0.002)  # simulate transport latency
                    key, records, future = item
                    self.data[key] = records
                    future.set_result(None)

            def stop(self):
                self._stop = True
                self._thread.join()

        table = _SlowTable()
        try:
            writer = SpillWriter(
                table,  # type: ignore[arg-type]
                src_part=0,
                step=0,
                n_parts=4,
                part_of=part_of,
                batch_size=1,
                max_in_flight=3,
                spills_per_batch=1,
            )
            for i in range(20):
                writer.add((MSG, 4, i))
            writer.flush_all()
        finally:
            table.stop()
        assert len(table.data) == 20
        # window of 3 plus the one batch just dispatched
        assert writer.in_flight_hwm <= 4
        assert table.max_pending <= 4


class TestCompactCodec:
    RECORDS = [
        (MSG, 4, "hello"),
        (CONT, 2),
        (MSG, 8, "world"),
        (CREATE, 3, 0, {"s": 1}),
        (MSG, 4, "again"),
    ]

    def test_roundtrip_preserves_records(self):
        encoded = encode_spill(self.RECORDS)
        assert is_compact_spill(encoded)
        decoded = list(iter_spill_records(encoded))
        # per-kind relative order is preserved; set equality plus
        # message order is the delivery contract
        assert sorted(map(repr, decoded)) == sorted(map(repr, self.RECORDS))
        messages = [r for r in decoded if r[0] == MSG]
        assert messages == [(MSG, 4, "hello"), (MSG, 8, "world"), (MSG, 4, "again")]

    def test_record_count_both_codecs(self):
        assert spill_record_count(self.RECORDS) == 5
        assert spill_record_count(encode_spill(self.RECORDS)) == 5

    def test_raw_list_passes_through(self):
        assert not is_compact_spill(self.RECORDS)
        assert list(iter_spill_records(self.RECORDS)) == self.RECORDS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            encode_spill([("?", 0)])

    def test_compact_writer_spills_are_collectable(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport, src_part=0, step=0, n_parts=4, part_of=part_of, compact=True
        )
        writer.add((MSG, 0, "m"))
        writer.add((CONT, 4))
        writer.add((CREATE, 8, 0, "state"))
        writer.flush_all()
        for _, value in transport.items():
            assert is_compact_spill(value)
        view = transport._parts[0]
        bundles, _ = collect_step_records(view, 0, None)
        assert bundles[0].messages == ["m"] and bundles[0].enabled
        assert bundles[4].enabled and bundles[4].messages == []
        assert bundles[8].created == [(0, "state")]

    def test_discard_accounts_compact_spills(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=1,
            spills_per_batch=8,
            compact=True,
        )
        writer.add((MSG, 4, "x"))  # sealed (encoded) but not dispatched
        writer.add((CONT, 4))
        writer.discard()
        assert transport.items() == []
        assert writer.records_written == 0
        assert writer.spills_sealed == 0


class TestCollect:
    def _write(self, transport, step, records, src=0):
        writer = SpillWriter(transport, src_part=src, step=step, n_parts=4, part_of=part_of)
        for record in records:
            writer.add(record)
        writer.flush_all()

    def test_only_requested_step_collected(self, setup):
        store, transport = setup
        self._write(transport, 1, [(MSG, 0, "now")])
        self._write(transport, 2, [(MSG, 0, "later")])
        view = transport._parts[0]  # LocalTable internals are fine in tests
        bundles, consumed = collect_step_records(view, 1, None)
        assert list(bundles[0].messages) == ["now"]
        assert len(consumed) == 1

    def test_messages_enable_continue_enables(self, setup):
        store, transport = setup
        self._write(transport, 0, [(MSG, 0, "m"), (CONT, 4)])
        view = transport._parts[0]
        bundles, _ = collect_step_records(view, 0, None)
        assert bundles[0].enabled
        assert bundles[4].enabled and bundles[4].messages == []

    def test_creations_do_not_enable(self, setup):
        store, transport = setup
        self._write(transport, 0, [(CREATE, 0, 0, "state")])
        view = transport._parts[0]
        bundles, _ = collect_step_records(view, 0, None)
        assert not bundles[0].enabled
        assert bundles[0].created == [(0, "state")]

    def test_unknown_kind_rejected(self, setup):
        store, transport = setup
        transport.put((0, 0, 0, 0), [("?", 0)])
        view = transport._parts[0]
        with pytest.raises(ValueError):
            collect_step_records(view, 0, None)


class TestCombiningBundle:
    def test_combiner_applied_pairwise(self):
        bundle = CombiningBundle()
        for value in [1, 2, 3]:
            bundle.add_message(value, lambda a, b: a + b)
        assert bundle.messages == [6]

    def test_decline_keeps_both(self):
        bundle = CombiningBundle()
        bundle.add_message("a", lambda a, b: None)
        bundle.add_message("b", lambda a, b: None)
        assert bundle.messages == ["a", "b"]

    def test_partial_decline(self):
        # combine only equal-parity ints
        def combiner(a, b):
            return a + b if (a % 2) == (b % 2) else None

        bundle = CombiningBundle()
        for value in [2, 4, 3]:
            bundle.add_message(value, combiner)
        assert bundle.messages == [6, 3]

    def test_no_combiner(self):
        bundle = CombiningBundle()
        bundle.add_message(1, None)
        bundle.add_message(2, None)
        assert bundle.messages == [1, 2]
