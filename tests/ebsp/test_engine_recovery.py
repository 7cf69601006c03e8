"""Fault tolerance: the §IV-A recovery outline under injected failures."""

from __future__ import annotations

import pytest

from repro.errors import JobSpecError, RecoveryError
from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.engine import MAX_RETRIES
from repro.ebsp.exporters import CollectingExporter
from repro.ebsp.loaders import DictStateLoader, EnableKeysLoader
from repro.ebsp.recovery import FailureInjector, ProgressTable, SimulatedFailure
from repro.ebsp.runner import run_job
from repro.kvstore.local import LocalKVStore

from tests.ebsp.jobs import TestJob


@pytest.fixture
def store():
    instance = LocalKVStore(default_n_parts=4)
    yield instance
    instance.close()


def counting_chain_job(length: int, exporter=None, aggregators=None):
    """Key 0 forwards a counter to itself for *length* steps, writing
    state and emitting output each step — a job where a lost or doubled
    part-step is visible in several places at once."""

    def fn(ctx):
        for value in ctx.input_messages():
            ctx.write_state(0, value)
            if exporter is not None:
                ctx.direct_job_output((ctx.step_num, ctx.key), value)
            if aggregators:
                ctx.aggregate_value("sum", value)
            if value < length:
                ctx.output_message(ctx.key, value + 1)
        return False

    from repro.ebsp.loaders import MessageListLoader

    return TestJob(
        fn,
        loaders=[MessageListLoader([(0, 1)])],
        direct_exporter=exporter,
        aggregators=aggregators or {},
    )


class TestFailureInjector:
    def test_fires_scheduled_times_then_stops(self):
        injector = FailureInjector()
        injector.schedule(part=1, step=2, times=2)
        with pytest.raises(SimulatedFailure):
            injector.check(1, 2)
        with pytest.raises(SimulatedFailure):
            injector.check(1, 2)
        injector.check(1, 2)  # exhausted: no raise
        assert injector.failures_injected == 2

    def test_other_part_steps_unaffected(self):
        injector = FailureInjector()
        injector.schedule(part=0, step=0)
        injector.check(1, 0)
        injector.check(0, 1)

    def test_bad_times(self):
        with pytest.raises(ValueError):
            FailureInjector().schedule(0, 0, times=0)


class TestProgressTable:
    def test_tracks_completion(self, store):
        progress = ProgressTable(store, "progress", 3)
        assert progress.completed_step(0) == -1
        progress.mark_completed(0, 0)
        progress.mark_completed(0, 1)
        assert progress.completed_step(0) == 1
        assert progress.min_completed_step() == -1  # parts 1,2 untouched

    def test_out_of_order_commit_rejected(self, store):
        """Commits must happen 'in the right order' (paper §IV-A)."""
        progress = ProgressTable(store, "progress", 2)
        progress.mark_completed(0, 3)
        with pytest.raises(RecoveryError):
            progress.mark_completed(0, 3)
        with pytest.raises(RecoveryError):
            progress.mark_completed(0, 1)


class TestRecovery:
    def test_result_identical_to_clean_run(self, store):
        clean = run_job(LocalKVStore(4), counting_chain_job(10), fault_tolerance=True)

        injector = FailureInjector()
        part = store.default_n_parts and 0  # key 0 lives in part 0
        injector.schedule(part=0, step=3, times=2)
        injector.schedule(part=0, step=7, times=1)
        result = run_job(
            store,
            counting_chain_job(10),
            fault_tolerance=True,
            failure_injector=injector,
        )
        assert injector.failures_injected == 3
        assert result.steps == clean.steps
        assert result.counters["part_step_retries"] == 3
        assert store.get_table("state").get(0) == 10

    def test_no_duplicate_direct_output(self, store):
        """A failed part-step must not leak its direct output."""
        exporter = CollectingExporter()
        injector = FailureInjector()
        injector.schedule(part=0, step=2, times=1)
        run_job(
            store,
            counting_chain_job(6, exporter=exporter),
            fault_tolerance=True,
            failure_injector=injector,
        )
        # one output pair per step, none doubled
        assert exporter.pairs == {(s, 0): s + 1 for s in range(6)}

    def test_aggregates_not_double_counted(self, store):
        injector = FailureInjector()
        injector.schedule(part=0, step=1, times=3)
        result = run_job(
            store,
            counting_chain_job(5, aggregators={"sum": SumAggregator()}),
            fault_tolerance=True,
            failure_injector=injector,
        )
        # a clean run aggregates 1+2+3+4+5 over the whole job; the final
        # step's aggregation is what the result reports... each step sums
        # its own value, so the final value is the last step's message
        assert result.aggregates == {"sum": 5}

    def test_messages_not_duplicated_after_retry(self, store):
        received_counts = {}

        def fn(ctx):
            messages = list(ctx.input_messages())
            received_counts.setdefault(ctx.step_num, 0)
            received_counts[ctx.step_num] += len(messages)
            for value in messages:
                if value < 4:
                    ctx.output_message(ctx.key, value + 1)
            return False

        from repro.ebsp.loaders import MessageListLoader

        injector = FailureInjector()
        injector.schedule(part=0, step=2, times=2)
        job = TestJob(fn, loaders=[MessageListLoader([(0, 1)])])
        run_job(store, job, fault_tolerance=True, failure_injector=injector)
        assert all(count == 1 for count in received_counts.values())

    def test_too_many_failures_gives_up(self, store):
        injector = FailureInjector()
        injector.schedule(part=0, step=0, times=MAX_RETRIES + 1)
        with pytest.raises(SimulatedFailure):
            run_job(
                store,
                counting_chain_job(3),
                fault_tolerance=True,
                failure_injector=injector,
            )

    def test_state_writes_rolled_back(self, store):
        """A crash mid-step leaves earlier state untouched (deleting the
        writes done by the failed shard)."""
        attempts = {"n": 0}

        def fn(ctx):
            if ctx.step_num == 0:
                # first attempt writes state then crashes before commit
                ctx.write_state(0, f"attempt-{attempts['n']}")
                attempts["n"] += 1
                if attempts["n"] == 1:
                    raise SimulatedFailure(0, 0)
            return False

        job = TestJob(fn, loaders=[EnableKeysLoader([0])])
        run_job(store, job, fault_tolerance=True)
        assert attempts["n"] == 2
        assert store.get_table("state").get(0) == "attempt-1"

    def test_deterministic_flag_reported_in_plan(self, store):
        from repro.ebsp.runner import plan_for
        from repro.ebsp.properties import JobProperties

        job = TestJob(lambda ctx: False, properties=JobProperties(deterministic=True))
        assert plan_for(job).optimized_recovery


def test_failure_injector_requires_fault_tolerance(store):
    """Without fault tolerance a part-step's input spills are deleted
    before compute, so a retry would silently run without its messages."""
    injector = FailureInjector()
    injector.schedule(part=0, step=1)
    with pytest.raises(JobSpecError, match="fault_tolerance"):
        run_job(store, counting_chain_job(3), failure_injector=injector)
    assert injector.failures_injected == 0
