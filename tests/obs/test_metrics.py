"""The metrics registry, a job's counters view of it, and the serde
statistics facade plumbed onto it."""

from __future__ import annotations

import threading

import pytest

from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore
from repro.obs.metrics import MetricsRegistry
from repro.serde import SerdeStats

from tests.ebsp.jobs import TestJob


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("x.total")
        b = registry.counter("x.total")
        assert a is b
        a.add(3)
        b.add()
        assert a.value() == 4

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.gauge("n")

    def test_units_follow_first_registration(self):
        registry = MetricsRegistry()
        registry.counter("bytes.out", unit="bytes")
        registry.counter("bytes.out", unit="count")
        assert registry.dump()["bytes.out"]["unit"] == "bytes"

    def test_gauge_set_and_record_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("hwm")
        gauge.record_max(5)
        gauge.record_max(3)
        assert gauge.value() == 5
        gauge.set(1)
        assert gauge.value() == 1

    def test_gauge_fn_reads_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"v": 0}
        registry.gauge_fn("live", lambda: state["v"])
        state["v"] = 42
        assert registry.snapshot()["live"] == 42

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", unit="seconds")
        for v in (1.0, 3.0, 2.0):
            hist.observe(v)
        value = hist.value()
        assert value["count"] == 3
        assert value["total"] == 6.0
        assert value["mean"] == 2.0
        assert value["min"] == 1.0 and value["max"] == 3.0

    def test_dump_carries_type_and_unit(self):
        registry = MetricsRegistry()
        registry.counter("c", unit="bytes").add(7)
        dump = registry.dump()
        assert dump["c"] == {"type": "counter", "unit": "bytes", "value": 7}

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").add(9)
        registry.gauge("g").set(9)
        registry.reset()
        assert registry.snapshot() == {"c": 0, "g": 0}

    def test_concurrent_adds_are_exact(self):
        registry = MetricsRegistry()
        n_threads, per_thread = 8, 1000

        def worker():
            counter = registry.counter("hot")
            for _ in range(per_thread):
                counter.add()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("hot").value() == n_threads * per_thread


class TestJobCounters:
    def test_counters_are_the_undotted_instruments(self):
        def fn(ctx):
            ctx.write_state(0, ctx.key)
            return False

        job = TestJob(
            fn, state_tables=["s"], loaders=[MessageListLoader([(i, i) for i in range(8)])]
        )
        with PartitionedKVStore(n_partitions=2, runtime="inline") as store:
            result = run_job(store, job, synchronize=True)
        assert result.counters["compute_invocations"] == 8
        assert result.counters["barriers"] == result.steps
        assert result.counters["store_marshalled_bytes"] > 0
        # per-layer instruments stay in the dump only
        assert "engine.compute_seconds" in result.metrics
        assert not [name for name in result.counters if "." in name]
        for name, value in result.counters.items():
            assert result.metrics[name]["value"] == value
        assert result.metrics["spill_in_flight_hwm"]["type"] == "gauge"


class TestSerdeStatsFacade:
    def test_snapshot_keeps_exact_legacy_keys(self):
        stats = SerdeStats()
        stats.record_marshal(10)
        stats.record_unmarshal()
        stats.record_batch(5)
        assert stats.snapshot() == {
            "marshalled_objects": 1,
            "marshalled_bytes": 10,
            "unmarshalled_objects": 1,
            "batched_requests": 1,
            "batched_records": 5,
        }

    def test_registry_holds_prefixed_names_with_units(self):
        registry = MetricsRegistry()
        stats = SerdeStats(registry)
        stats.record_marshal(32)
        dump = registry.dump()
        assert dump["serde.marshalled_bytes"]["value"] == 32
        assert dump["serde.marshalled_bytes"]["unit"] == "bytes"
        assert dump["serde.marshalled_objects"]["value"] == 1

    def test_legacy_field_reads_still_work(self):
        stats = SerdeStats()
        stats.record_marshal(8)
        stats.record_batch(3)
        assert stats.marshalled_objects == 1
        assert stats.marshalled_bytes == 8
        assert stats.batched_requests == 1
        assert stats.batched_records == 3
        stats.reset()
        assert stats.marshalled_bytes == 0
