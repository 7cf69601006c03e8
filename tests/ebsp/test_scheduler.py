"""The concurrent-job scheduler (§VII future work)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import JobError, JobSpecError
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import EngineOptions
from repro.ebsp.scheduler import JobScheduler, JobState
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob


@pytest.fixture
def store():
    instance = PartitionedKVStore(n_partitions=4)
    yield instance
    instance.close()


def chain_job(table: str, length: int, extra_tables=(), on_step=None):
    def fn(ctx):
        for value in ctx.input_messages():
            if on_step is not None:
                on_step(ctx.step_num)
            ctx.write_state(0, value)
            if value < length:
                ctx.output_message(ctx.key, value + 1)
        return False

    return TestJob(
        fn,
        state_tables=[table, *extra_tables],
        loaders=[MessageListLoader([(0, 1)])],
    )


class TestLifecycle:
    def test_submit_and_wait(self, store):
        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(chain_job("a", 5))
            assert handle.wait(timeout=30)
            assert handle.state is JobState.SUCCEEDED
            assert handle.result.steps == 5
        assert store.get_table("a").get(0) == 5

    def test_failure_recorded_not_raised(self, store):
        def boom(ctx):
            raise RuntimeError("bad job")

        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(
                TestJob(boom, state_tables=["x"], loaders=[MessageListLoader([(0, 1)])])
            )
            assert handle.wait(timeout=30)
            assert handle.state is JobState.FAILED
            assert handle.error is not None
            assert handle.result is None

    def test_cancel_queued(self, store):
        gate = threading.Event()

        def slow(ctx):
            gate.wait(10)
            return False

        with JobScheduler(store, max_concurrent=1) as scheduler:
            running = scheduler.submit(
                TestJob(slow, state_tables=["s1"], loaders=[MessageListLoader([(0, 1)])])
            )
            queued = scheduler.submit(chain_job("s2", 3))
            assert scheduler.cancel(queued.job_id)
            assert queued.state is JobState.CANCELLED
            gate.set()
            assert running.wait(timeout=30)

    def test_cancel_running_refused(self, store):
        gate = threading.Event()

        def slow(ctx):
            gate.wait(10)
            return False

        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(
                TestJob(slow, state_tables=["s"], loaders=[MessageListLoader([(0, 1)])])
            )
            time.sleep(0.1)
            assert not scheduler.cancel(handle.job_id)
            gate.set()
            assert handle.wait(timeout=30)

    def test_submit_after_shutdown(self, store):
        scheduler = JobScheduler(store)
        scheduler.shutdown()
        with pytest.raises(JobError):
            scheduler.submit(chain_job("a", 2))

    def test_unknown_handle(self, store):
        with JobScheduler(store) as scheduler:
            with pytest.raises(JobError):
                scheduler.handle("nope")

    def test_engine_kwargs_forwarded(self, store):
        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(chain_job("a", 100), max_steps=3)
            assert handle.options == EngineOptions(max_steps=3)
            assert handle.wait(timeout=30)
            assert handle.result.steps == 3

    @pytest.mark.parametrize(
        "options, error",
        [
            ({"max_step": 3}, TypeError),  # not an option
            ({"max_steps": "3"}, JobSpecError),
            ({"spill_batch": 0}, JobSpecError),
            ({"synchronize": False, "fault_tolerance": True}, JobSpecError),
        ],
    )
    def test_bad_options_are_refused_at_submit(self, store, options, error):
        with JobScheduler(store) as scheduler:
            with pytest.raises(error):
                scheduler.submit(chain_job("a", 3), **options)
            assert scheduler.jobs() == []
        assert not store.has_table("a")


class TestConflictRules:
    def test_disjoint_jobs_run_in_parallel(self, store):
        both_running = threading.Event()
        active = {"count": 0}
        lock = threading.Lock()

        def tracked(table, key):
            # distinct keys → distinct parts → distinct partition threads,
            # so the two jobs' computes can genuinely overlap
            def fn(ctx):
                with lock:
                    active["count"] += 1
                    if active["count"] == 2:
                        both_running.set()
                both_running.wait(5)  # hold until the other arrives
                with lock:
                    active["count"] -= 1
                return False

            return TestJob(
                fn, state_tables=[table], loaders=[MessageListLoader([(key, 1)])]
            )

        with JobScheduler(store, max_concurrent=2) as scheduler:
            h1 = scheduler.submit(tracked("left", 0))
            h2 = scheduler.submit(tracked("right", 1))
            assert scheduler.wait_all(timeout=30)
            assert both_running.is_set(), "disjoint jobs should have overlapped"
            assert h1.state is h2.state is JobState.SUCCEEDED

    def test_write_conflicts_serialize(self, store):
        order = []
        lock = threading.Lock()

        def logged(tag):
            def fn(ctx):
                with lock:
                    order.append((tag, "start"))
                time.sleep(0.05)
                with lock:
                    order.append((tag, "end"))
                return False

            return TestJob(
                fn, state_tables=["shared"], loaders=[MessageListLoader([(0, 1)])]
            )

        with JobScheduler(store, max_concurrent=2) as scheduler:
            scheduler.submit(logged("one"))
            scheduler.submit(logged("two"))
            assert scheduler.wait_all(timeout=30)
        # no interleaving: each job's start/end pair is contiguous
        tags = [tag for tag, _ in order]
        assert tags in (["one", "one", "two", "two"], ["two", "two", "one", "one"])

    def test_read_sharing_allowed(self, store):
        from repro.kvstore.api import TableSpec

        store.create_table(TableSpec(name="reference", n_parts=4))
        store.get_table("reference").put(0, "shared-data")
        seen = []
        both = threading.Event()
        lock = threading.Lock()

        def reader(out_table):
            def fn(ctx):
                with lock:
                    seen.append(out_table)
                    if len(seen) == 2:
                        both.set()
                both.wait(5)
                ctx.write_state(0, ctx.read_state(1))
                return False

            return TestJob(
                fn,
                state_tables=[out_table, "reference"],
                loaders=[MessageListLoader([(0, 1)])],
            )

        with JobScheduler(store, max_concurrent=2) as scheduler:
            h1 = scheduler.submit(reader("out1"), read_only=["reference"])
            h2 = scheduler.submit(reader("out2"), read_only=["reference"])
            assert scheduler.wait_all(timeout=30)
        assert both.is_set(), "read-only sharing should have run in parallel"
        assert store.get_table("out1").get(0) == "shared-data"
        assert h1.reads == frozenset({"reference"})

    def test_reader_blocks_writer(self, store):
        """A job writing a table another job is reading must wait."""
        from repro.kvstore.api import TableSpec

        store.create_table(TableSpec(name="data", n_parts=4))
        order = []
        lock = threading.Lock()

        def make(tag, tables, read_only=None, delay=0.0):
            def fn(ctx):
                with lock:
                    order.append((tag, "start"))
                time.sleep(delay)
                with lock:
                    order.append((tag, "end"))
                return False

            return TestJob(
                fn, state_tables=tables, loaders=[MessageListLoader([(0, 1)])]
            ), read_only

        with JobScheduler(store, max_concurrent=2) as scheduler:
            reader_job, ro = make("reader", ["out", "data"], delay=0.1)
            scheduler.submit(reader_job, read_only=["data"])
            time.sleep(0.02)
            writer_job, _ = make("writer", ["data"])
            scheduler.submit(writer_job)
            assert scheduler.wait_all(timeout=30)
        assert order.index(("reader", "end")) < order.index(("writer", "start"))

    def test_bad_concurrency(self, store):
        with pytest.raises(ValueError):
            JobScheduler(store, max_concurrent=0)
