"""The no-sync engine: eligibility, semantics, ordering, stealing."""

from __future__ import annotations

import sys
import threading
from fractions import Fraction

import pytest

from repro.errors import ComputeError, JobSpecError
from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.exporters import CollectingExporter
from repro.ebsp.loaders import DictStateLoader, EnableKeysLoader, MessageListLoader
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import run_job
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob

INCREMENTAL = JobProperties(incremental=True, no_continue=True)


@pytest.fixture
def store():
    instance = LocalKVStore(default_n_parts=4)
    yield instance
    instance.close()


class TestEligibility:
    def test_ineligible_job_rejected(self, store):
        job = TestJob(lambda ctx: False)  # no properties declared
        with pytest.raises(JobSpecError):
            AsyncEngine(store, job)

    def test_aggregators_make_ineligible(self, store):
        job = TestJob(
            lambda ctx: False,
            properties=INCREMENTAL,
            aggregators={"x": SumAggregator()},
        )
        with pytest.raises(JobSpecError):
            AsyncEngine(store, job)

    def test_aborter_makes_ineligible(self, store):
        job = TestJob(
            lambda ctx: False,
            properties=INCREMENTAL,
            aborter=lambda step, aggs: False,
        )
        with pytest.raises(JobSpecError):
            AsyncEngine(store, job)

    def test_run_job_auto_selects_async(self, store):
        def fn(ctx):
            return False

        job = TestJob(fn, properties=INCREMENTAL, loaders=[MessageListLoader([(0, "x")])])
        result = run_job(store, job)
        assert not result.synchronized

    def test_force_sync_on_eligible_job(self, store):
        job = TestJob(
            lambda ctx: False,
            properties=INCREMENTAL,
            loaders=[MessageListLoader([(0, "x")])],
        )
        result = run_job(store, job, synchronize=True)
        assert result.synchronized

    def test_force_async_on_ineligible_job_raises(self, store):
        job = TestJob(lambda ctx: False, loaders=[MessageListLoader([(0, "x")])])
        with pytest.raises(JobSpecError):
            run_job(store, job, synchronize=False)


class TestExecution:
    def test_chain_terminates(self, store):
        """A chain of forwards across all parts ends via Huang detection."""
        def fn(ctx):
            for value in ctx.input_messages():
                ctx.write_state(0, value)
                if value < 40:
                    ctx.output_message(value + 1, value + 1)
            return False

        job = TestJob(fn, properties=INCREMENTAL, loaders=[MessageListLoader([(0, 0)])])
        result = run_job(store, job, synchronize=False)
        assert result.compute_invocations == 41
        table = store.get_table("state")
        assert table.get(40) == 40

    def test_empty_job_finishes(self, store):
        job = TestJob(lambda ctx: False, properties=INCREMENTAL)
        result = run_job(store, job, synchronize=False)
        assert result.compute_invocations == 0

    def test_fan_out_fan_in(self, store):
        """One seed fans out to many keys; all get invoked."""
        lock = threading.Lock()
        seen = set()

        def fn(ctx):
            with lock:
                seen.add(ctx.key)
            for message in ctx.input_messages():
                if message == "seed":
                    for target in range(1, 30):
                        ctx.output_message(target, "leaf")
            return False

        job = TestJob(fn, properties=INCREMENTAL, loaders=[MessageListLoader([(0, "seed")])])
        run_job(store, job, synchronize=False)
        assert seen == set(range(30))

    def test_per_channel_fifo_preserved(self, store):
        """incremental's contract: per (sender, receiver) order holds."""
        received = []
        lock = threading.Lock()

        def fn(ctx):
            for message in ctx.input_messages():
                if ctx.key == 0:
                    for i in range(20):
                        ctx.output_message(4, ("seq", i))  # key 4 → part 0 of 4
                elif ctx.key == 4:
                    with lock:
                        received.append(message[1])
            return False

        job = TestJob(fn, properties=INCREMENTAL, loaders=[MessageListLoader([(0, "go")])])
        run_job(store, job, synchronize=False)
        assert received == list(range(20))

    def test_enable_invokes_without_messages(self, store):
        invoked = []
        lock = threading.Lock()

        def fn(ctx):
            with lock:
                invoked.append((ctx.key, list(ctx.input_messages())))
            return False

        job = TestJob(fn, properties=INCREMENTAL, loaders=[EnableKeysLoader([5, 6])])
        run_job(store, job, synchronize=False)
        assert sorted(invoked) == [(5, []), (6, [])]

    def test_state_readable_and_writable(self, store):
        def fn(ctx):
            for message in ctx.input_messages():
                current = ctx.read_state(0) or 0
                ctx.write_state(0, current + message)
                if message > 1:
                    ctx.output_message(ctx.key, message - 1)
            return False

        job = TestJob(
            fn, properties=INCREMENTAL, loaders=[MessageListLoader([(0, 4)])]
        )
        run_job(store, job, synchronize=False)
        assert store.get_table("state").get(0) == 4 + 3 + 2 + 1

    def test_direct_output(self, store):
        exporter = CollectingExporter()

        def fn(ctx):
            for message in ctx.input_messages():
                ctx.direct_job_output(ctx.key, message)
            return False

        job = TestJob(
            fn,
            properties=INCREMENTAL,
            loaders=[MessageListLoader([(1, "a"), (2, "b")])],
            direct_exporter=exporter,
        )
        run_job(store, job, synchronize=False)
        assert exporter.pairs == {1: "a", 2: "b"}

    def test_compute_error_propagates(self, store):
        def fn(ctx):
            raise ValueError("async boom")

        job = TestJob(fn, properties=INCREMENTAL, loaders=[MessageListLoader([(0, "x")])])
        with pytest.raises(ComputeError):
            run_job(store, job, synchronize=False)

    def test_preloaded_state_via_loader(self, store):
        observed = []
        lock = threading.Lock()

        def fn(ctx):
            with lock:
                observed.append(ctx.read_state(0))
            return False

        job = TestJob(
            fn,
            properties=INCREMENTAL,
            loaders=[DictStateLoader(0, {3: "preloaded"}), EnableKeysLoader([3])],
        )
        run_job(store, job, synchronize=False)
        assert observed == ["preloaded"]


class TestWorkStealing:
    def test_stealing_requires_run_anywhere(self, store):
        # incremental makes the job no-sync eligible, not run-anywhere
        job = TestJob(lambda ctx: False, properties=INCREMENTAL)
        assert not run_job(store, job).plan["work_stealing"]

    def test_stealing_job_completes_correctly(self, store):
        """With one-msg/no-continue/rare-state/no-ss-order, stealing is
        on by default and must not lose or duplicate work."""
        lock = threading.Lock()
        processed = []

        def fn(ctx):
            for message in ctx.input_messages():
                with lock:
                    processed.append(message)
                if message == "seed":
                    # all to the same part: a steal target
                    for i in range(30):
                        ctx.output_message(100 + 4 * i, i)
            return False

        properties = JobProperties(
            one_msg=True, no_continue=True, rare_state=True, no_ss_order=True
        )
        job = TestJob(fn, properties=properties, loaders=[MessageListLoader([(0, "seed")])])
        assert run_job(store, job).plan["work_stealing"]
        assert sorted(m for m in processed if m != "seed") == list(range(30))

    def test_stealing_drains_lose_and_duplicate_nothing_under_contention(self):
        """Drains on four threaded lanes, stealing from one hot part,
        with the interpreter switching threads every 10 µs: each message
        is processed exactly once and all of Huang's weight returns."""
        lock = threading.Lock()
        processed = []

        def fn(ctx):
            for message in ctx.input_messages():
                if message == "seed":
                    for i in range(400):
                        ctx.output_message(100 + 4 * i, i)  # all to one part
                else:
                    with lock:
                        processed.append(message)
            return False

        properties = JobProperties(
            one_msg=True, no_continue=True, rare_state=True, no_ss_order=True
        )
        job = TestJob(fn, properties=properties, loaders=[MessageListLoader([(0, "seed")])])
        store = PartitionedKVStore(n_partitions=4, runtime="threaded")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            engine = AsyncEngine(store, job)
            result = engine.run()
        finally:
            sys.setswitchinterval(interval)
            store.close()
        assert sorted(processed) == list(range(400))
        assert result.compute_invocations == 401
        # the seed shares the hot part, so its drain leaves 400 records
        # queued there: idle lanes must have taken some
        assert result.counters["messages_stolen"] == result.worker_steals > 0
        assert engine._controller.held == Fraction(1)
