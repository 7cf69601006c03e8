"""Active-part scheduling and write-back state commits.

A superstep's cost should scale with the *active frontier* (§II-A
selective enablement), not with ``n_parts``: parts with no pending
records are skipped entirely, contributing only identity aggregator
partials and a trivial progress-table entry.  State writes buffer in a
per-part-step write-back cache and commit as one batch per table.
"""

from __future__ import annotations

import pytest

from repro.ebsp.aggregators import MaxAggregator, MinAggregator, SumAggregator
from repro.ebsp.engine import SyncEngine
from repro.ebsp.properties import EngineOptions
from repro.ebsp.loaders import EnableKeysLoader, MessageListLoader
from repro.ebsp.recovery import FailureInjector
from repro.ebsp.runner import run_job
from repro.kvstore.local import LocalKVStore
from repro.util.hashing import part_for_key

from tests.ebsp.jobs import TestJob


@pytest.fixture
def store():
    instance = LocalKVStore(default_n_parts=8)
    yield instance
    instance.close()


def ping_job(length: int, aggregators=None):
    """Key 0 forwards a counter to itself — exactly one part is ever
    active, so every other part-step is skippable."""

    def fn(ctx):
        for value in ctx.input_messages():
            ctx.write_state(0, value)
            if aggregators:
                ctx.aggregate_value("sum", value)
                ctx.aggregate_value("min", value)
                ctx.aggregate_value("max", value)
            if value < length:
                ctx.output_message(ctx.key, value + 1)
        return False

    return TestJob(
        fn, loaders=[MessageListLoader([(0, 1)])], aggregators=aggregators or {}
    )


class TestActiveScheduling:
    def test_sparse_job_skips_idle_parts(self, store):
        result = run_job(store, ping_job(5), synchronize=True)
        assert result.steps == 5
        # one active part per step, the other seven skipped
        assert result.part_steps_run == result.steps
        assert result.parts_skipped == result.steps * 7
        for metrics in result.timeline:
            assert metrics.parts_run == 1
            assert metrics.parts_skipped == 7
        assert store.get_table("state").get(0) == 5

    def test_outputs_identical_with_and_without_scheduling(self, store):
        """Skipping idle parts must give exactly what enumerating every
        part would: the identity partials synthesized for the seven idle
        parts merge away, leaving the values computed by hand."""
        result = run_job(
            store,
            ping_job(
                6,
                aggregators={
                    "sum": SumAggregator(),
                    "min": MinAggregator(),
                    "max": MaxAggregator(),
                },
            ),
            synchronize=True,
        )
        # key 0 receives 1..6 in steps 0..5 and stops forwarding at 6;
        # aggregates are per step, so the last step's are its value alone
        assert result.steps == 6
        assert result.aggregates == {"sum": 6, "min": 6, "max": 6}
        assert sorted(store.get_table("state").items()) == [(0, 6)]
        assert result.part_steps_run == 6
        assert result.parts_skipped == 6 * 7

    def test_idle_parts_contribute_identity_partials(self, store):
        """Min/Max use a None identity: merging the synthesized partials
        of seven idle parts must not disturb the real extremes."""
        result = run_job(
            store,
            ping_job(
                3,
                aggregators={
                    "sum": SumAggregator(),
                    "min": MinAggregator(),
                    "max": MaxAggregator(),
                },
            ),
            synchronize=True,
        )
        # the final step aggregates only its own delivered value (3)
        assert result.aggregates == {"sum": 3, "min": 3, "max": 3}

    def test_recovery_marks_skipped_parts_complete(self, store):
        """A failure in a step where most parts were skipped: the skipped
        parts are trivially complete in the progress table, the failed
        part retries, and the job result is unharmed."""
        injector = FailureInjector()
        active_part = part_for_key(0, 8)
        injector.schedule(part=active_part, step=2, times=2)
        engine = SyncEngine(
            store,
            ping_job(6),
            EngineOptions(fault_tolerance=True, failure_injector=injector),
        )
        marked = []
        progress = engine._progress
        orig_one = progress.mark_completed
        orig_many = progress.mark_completed_many

        def record_one(part, step):
            marked.append((part, step))
            orig_one(part, step)

        def record_many(parts, step):
            marked.extend((part, step) for part in parts)
            orig_many(parts, step)

        progress.mark_completed = record_one
        progress.mark_completed_many = record_many
        result = engine.run()
        assert injector.failures_injected == 2
        assert result.counters["part_step_retries"] == 2
        assert result.parts_skipped == result.steps * 7
        # every (part, step) is recorded complete exactly once — the
        # skipped ones in bulk, the active one at its commit point
        expected = {(p, s) for p in range(8) for s in range(result.steps)}
        assert set(marked) == expected
        assert len(marked) == len(expected)
        assert store.get_table("state").get(0) == 6


class TestWriteBack:
    def test_read_after_write_within_invocation(self, store):
        observed = []

        def fn(ctx):
            ctx.write_state(0, "written")
            observed.append(ctx.read_state(0))
            ctx.delete_state(0)
            observed.append(ctx.read_state(0))
            ctx.write_state(0, "final")
            return False

        run_job(store, TestJob(fn, loaders=[EnableKeysLoader([0])]), synchronize=True)
        assert observed == ["written", None]
        assert store.get_table("state").get(0) == "final"

    def test_created_state_visible_in_same_part_step(self, store):
        """A creation staged at the start of a part-step is readable by
        the created component's own invocation in that part-step —
        before anything has been committed to the state table."""
        observed = {}

        def fn(ctx):
            if ctx.step_num == 0:
                ctx.create_state(0, 100, "seeded")
                ctx.output_message(100, "wake")
            else:
                observed[ctx.key] = ctx.read_state(0)
            return False

        run_job(store, TestJob(fn, loaders=[EnableKeysLoader([0])]), synchronize=True)
        assert observed == {100: "seeded"}
        assert store.get_table("state").get(100) == "seeded"

    def test_deletes_commit_in_batch(self, store):
        def fn(ctx):
            if ctx.step_num == 0:
                ctx.write_state(0, "transient")
                ctx.output_message(ctx.key, "again")
            else:
                ctx.delete_state(0)
            return False

        result = run_job(
            store, TestJob(fn, loaders=[EnableKeysLoader([0])]), synchronize=True
        )
        assert store.get_table("state").get(0) is None
        assert result.state_writeback_batches >= 2  # a put batch + a delete batch
        assert result.counters["state_writeback_records"] >= 2

    def test_writeback_batches_counted_once_per_table(self, store):
        """Many dirty components in one part-step commit as one batch."""
        keys = [k for k in range(200) if part_for_key(k, 8) == 0][:10]

        def fn(ctx):
            ctx.write_state(0, ctx.key)
            return False

        result = run_job(
            store, TestJob(fn, loaders=[EnableKeysLoader(keys)]), synchronize=True
        )
        assert result.counters["state_writeback_records"] == len(keys)
        # all ten writes landed in part 0's single part-step commit
        assert result.state_writeback_batches == 1
        assert sorted(store.get_table("state").items()) == sorted(
            (k, k) for k in keys
        )

    def test_repeated_reads_hit_cache(self, store):
        """After the first touch, reads of a missing key stay local to
        the part-step (negative caching)."""
        from repro.kvstore.api import TableSpec

        table = store.create_table(TableSpec(name="state"))
        gets = []
        orig_get = table.get

        def counting_get(key):
            gets.append(key)
            return orig_get(key)

        table.get = counting_get
        reads = []

        def fn(ctx):
            reads.append(ctx.read_state(0))
            reads.append(ctx.read_state(0))
            return False

        run_job(store, TestJob(fn, loaders=[EnableKeysLoader([0])]), synchronize=True)
        assert reads == [None, None]
        assert gets.count(0) == 1
