"""The synchronous engine: BSP semantics, selective enablement, outputs."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    AggregatorError,
    ComputeError,
    JobSpecError,
    PropertyViolationError,
)
from repro.ebsp.aggregators import CollectAggregator, MaxAggregator, SumAggregator
from repro.ebsp.engine import SyncEngine
from repro.ebsp.exporters import CollectingExporter
from repro.ebsp.loaders import (
    DictStateLoader,
    EnableKeysLoader,
    FunctionLoader,
    MessageListLoader,
)
from repro.ebsp.properties import EngineOptions, JobProperties
from repro.ebsp.runner import run_job
from repro.kvstore.api import TableSpec

from tests.ebsp.jobs import TestJob


class TestBarrierSemantics:
    def test_message_delivered_next_step(self, fast_store):
        """Figure 1: a message sent in step i is received in step i+1."""
        delivery_steps = {}

        def fn(ctx):
            for message in ctx.input_messages():
                delivery_steps[message] = ctx.step_num
            if ctx.step_num == 0 and ctx.key == 0:
                ctx.output_message(1, "from-step-0")
            return False

        run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([0])]))
        assert delivery_steps == {"from-step-0": 1}

    def test_all_parts_complete_before_next_step(self, partitioned_store):
        """No component may start step i+1 until every component has
        finished step i — the global barrier."""
        step_done = {0: threading.Event()}
        violations = []

        def fn(ctx):
            if ctx.step_num == 0:
                ctx.output_message(ctx.key, "again")
            if ctx.step_num == 1 and not step_done[0].is_set():
                violations.append(ctx.key)
            return False

        class Marker(TestJob):
            pass

        job = TestJob(fn, loaders=[EnableKeysLoader(range(8))])
        engine = SyncEngine(partitioned_store, job, EngineOptions())

        # wrap _run_step to mark when step 0 fully completes
        original = engine._run_step

        def wrapped(step):
            original(step)
            if step == 0:
                step_done[0].set()

        engine._run_step = wrapped
        engine.run()
        assert violations == []

    def test_steps_counted(self, fast_store):
        def fn(ctx):
            if ctx.step_num < 4:
                ctx.output_message(ctx.key, "go")
            return False

        result = run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([0])]))
        assert result.steps == 5
        assert result.barriers == 5

    def test_empty_job_zero_steps(self, fast_store):
        result = run_job(fast_store, TestJob(lambda ctx: False))
        assert result.steps == 0
        assert result.compute_invocations == 0


class TestSelectiveEnablement:
    def test_only_messaged_components_run(self, fast_store):
        invoked = []
        lock = threading.Lock()

        def fn(ctx):
            with lock:
                invoked.append((ctx.step_num, ctx.key))
            if ctx.step_num == 0:
                ctx.output_message(ctx.key + 100, "wake")
            return False

        run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([1, 2])]))
        assert sorted(invoked) == [(0, 1), (0, 2), (1, 101), (1, 102)]

    def test_continue_signal_enables_without_message(self, fast_store):
        invoked = []
        lock = threading.Lock()

        def fn(ctx):
            with lock:
                invoked.append(ctx.step_num)
            return ctx.step_num < 2  # continue twice, then stop

        result = run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([5])]))
        assert invoked == [0, 1, 2]
        assert result.steps == 3

    def test_component_without_state_entry_can_run(self, fast_store):
        """A component exists when it has state entries *or* messages."""
        seen_states = []

        def fn(ctx):
            seen_states.append(ctx.read_state(0))
            return False

        run_job(fast_store, TestJob(fn, loaders=[MessageListLoader([(9, "hi")])]))
        assert seen_states == [None]


class TestLocalState:
    def test_write_then_read_next_step(self, fast_store):
        observed = []

        def fn(ctx):
            if ctx.step_num == 0:
                ctx.write_state(0, "written")
                ctx.output_message(ctx.key, "again")
            else:
                observed.append(ctx.read_state(0))
            return False

        run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([0])]))
        assert observed == ["written"]

    def test_write_visible_within_invocation(self, fast_store):
        checks = []

        def fn(ctx):
            ctx.write_state(0, 42)
            checks.append(ctx.read_state(0))
            return False

        run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([0])]))
        assert checks == [42]

    def test_delete_state(self, fast_store):
        def fn(ctx):
            if ctx.step_num == 0:
                ctx.delete_state(0)
                ctx.output_message(ctx.key, "x")
                return False
            assert ctx.read_state(0) is None
            return False

        job = TestJob(fn, loaders=[DictStateLoader(0, {0: "to-delete"}, enable=True)])
        run_job(fast_store, job)
        assert fast_store.get_table("state").get(0) is None

    def test_multiple_state_tables(self, fast_store):
        """State can be factored into several tables (Section II)."""
        read_back = {}

        def fn(ctx):
            if ctx.step_num == 0:
                ctx.write_state(0, "alpha")
                ctx.write_state(1, "beta")
                ctx.output_message(ctx.key, "go")
            else:
                read_back["a"] = ctx.read_state(0)
                read_back["b"] = ctx.read_state(1)
            return False

        job = TestJob(fn, state_tables=["ta", "tb"], loaders=[EnableKeysLoader([3])])
        run_job(fast_store, job)
        assert read_back == {"a": "alpha", "b": "beta"}

    def test_read_write_state_in_place_mutation(self, fast_store):
        def fn(ctx):
            if ctx.step_num == 0:
                state = ctx.read_write_state(0)
                state["count"] += 1
                ctx.output_message(ctx.key, "go")
                return False
            assert ctx.read_state(0)["count"] == 1
            return False

        job = TestJob(fn, loaders=[DictStateLoader(0, {0: {"count": 0}}, enable=True)])
        run_job(fast_store, job)

    def test_create_state_for_other_component(self, fast_store):
        def fn(ctx):
            if ctx.step_num == 0:
                ctx.create_state(0, 77, {"born": True})
            return False

        run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([0])]))
        assert fast_store.get_table("state").get(77) == {"born": True}

    def test_conflicting_creations_merged(self, fast_store):
        def fn(ctx):
            if ctx.step_num == 0:
                ctx.create_state(0, 99, {ctx.key})
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([0, 1])],
            state_merger=lambda s1, s2: s1 | s2,
        )
        run_job(fast_store, job)
        assert fast_store.get_table("state").get(99) == {0, 1}

    def test_bad_table_index(self, fast_store):
        def fn(ctx):
            ctx.read_state(5)
            return False

        with pytest.raises(ComputeError):
            run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([0])]))


class TestCombiner:
    def test_combiner_merges_messages(self, fast_store):
        received = []

        def fn(ctx):
            if ctx.step_num == 0:
                ctx.output_message(100, 1)
            else:
                received.extend(ctx.input_messages())
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader(range(5))],
            combiner=lambda a, b: a + b,
        )
        run_job(fast_store, job)
        assert sum(received) == 5
        # per-part combining plus bundle combining collapses everything
        # destined to one key in one step
        assert len(received) == 1

    def test_combiner_can_decline(self, fast_store):
        received = []

        def fn(ctx):
            if ctx.step_num == 0:
                ctx.output_message(100, ctx.key)
            else:
                received.extend(ctx.input_messages())
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader(range(4))],
            combiner=lambda a, b: None,  # always decline
        )
        run_job(fast_store, job)
        assert sorted(received) == [0, 1, 2, 3]

    def test_no_combiner_by_default(self, fast_store):
        received = []

        def fn(ctx):
            if ctx.step_num == 0:
                ctx.output_message(100, ctx.key)
            else:
                received.extend(ctx.input_messages())
            return False

        run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader(range(4))]))
        assert sorted(received) == [0, 1, 2, 3]


class TestAggregators:
    def test_values_visible_next_step(self, fast_store):
        observed = {}

        def fn(ctx):
            observed[ctx.step_num] = ctx.get_aggregate_value("total")
            ctx.aggregate_value("total", ctx.step_num + 1)
            if ctx.step_num < 2:
                ctx.output_message(ctx.key, "go")
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([0])],
            aggregators={"total": SumAggregator()},
        )
        result = run_job(fast_store, job)
        assert observed == {0: 0, 1: 1, 2: 2}
        assert result.aggregates == {"total": 3}

    def test_aggregation_across_components(self, fast_store):
        def fn(ctx):
            ctx.aggregate_value("maxkey", ctx.key)
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([3, 11, 7])],
            aggregators={"maxkey": MaxAggregator()},
        )
        result = run_job(fast_store, job)
        assert result.aggregates == {"maxkey": 11}

    def test_loader_contributions_visible_step_zero(self, fast_store):
        observed = []

        def fn(ctx):
            observed.append(ctx.get_aggregate_value("seed"))
            return False

        job = TestJob(
            fn,
            loaders=[
                EnableKeysLoader([0]),
                FunctionLoader(lambda ctx: ctx.aggregate_value("seed", 10)),
            ],
            aggregators={"seed": SumAggregator()},
        )
        run_job(fast_store, job)
        assert observed == [10]

    def test_unknown_aggregator_raises(self, fast_store):
        def fn(ctx):
            ctx.aggregate_value("ghost", 1)
            return False

        with pytest.raises(ComputeError):
            run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([0])]))

    def test_many_aggregators_auxiliary_table_path(self, fast_store):
        """Many aggregators merge through the barrier like a few do
        (paper §IV-A's auxiliary-table path is not needed: the partials
        arrive merged)."""
        names = [f"agg{i}" for i in range(12)]

        def fn(ctx):
            for i, name in enumerate(names):
                ctx.aggregate_value(name, i)
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([0, 1])],
            aggregators={name: SumAggregator() for name in names},
        )
        result = run_job(fast_store, job)
        assert result.aggregates == {f"agg{i}": 2 * i for i in range(12)}

    def test_collect_aggregator_in_job(self, fast_store):
        def fn(ctx):
            ctx.aggregate_value("keys", ctx.key)
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([4, 2, 9])],
            aggregators={"keys": CollectAggregator()},
        )
        result = run_job(fast_store, job)
        assert sorted(result.aggregates["keys"]) == [2, 4, 9]


class TestBroadcast:
    def test_broadcast_data_readable_everywhere(self, fast_store):
        table = fast_store.create_table(TableSpec(name="bcast", ubiquitous=True))
        table.put("factor", 3)
        seen = []

        def fn(ctx):
            seen.append(ctx.get_broadcast_datum("factor"))
            return False

        job = TestJob(fn, loaders=[EnableKeysLoader([0, 1])], broadcast="bcast")
        run_job(fast_store, job)
        assert seen == [3, 3]

    def test_missing_broadcast_key_is_none(self, fast_store):
        table = fast_store.create_table(TableSpec(name="bcast", ubiquitous=True))
        table.put("x", 1)
        seen = []

        def fn(ctx):
            seen.append(ctx.get_broadcast_datum("ghost"))
            return False

        run_job(
            fast_store,
            TestJob(fn, loaders=[EnableKeysLoader([0])], broadcast="bcast"),
        )
        assert seen == [None]


class TestOutputs:
    def test_direct_job_output(self, fast_store):
        exporter = CollectingExporter()

        def fn(ctx):
            ctx.direct_job_output(f"out-{ctx.key}", ctx.key * 10)
            return False

        job = TestJob(fn, loaders=[EnableKeysLoader([1, 2])], direct_exporter=exporter)
        run_job(fast_store, job)
        assert exporter.pairs == {"out-1": 10, "out-2": 20}
        assert exporter.began and exporter.ended

    def test_state_exporters_fire_at_end(self, fast_store):
        exporter = CollectingExporter()

        def fn(ctx):
            ctx.write_state(0, ctx.key + 1)
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([0, 1])],
            state_exporters={"state": exporter},
        )
        run_job(fast_store, job)
        assert exporter.pairs == {0: 1, 1: 2}
        assert exporter.began and exporter.ended

    def test_exporter_for_unknown_table_rejected(self, fast_store):
        job = TestJob(
            lambda ctx: False,
            state_exporters={"ghost": CollectingExporter()},
        )
        with pytest.raises(JobSpecError):
            run_job(fast_store, job)

    def test_on_complete_callback(self, fast_store):
        holder = {}

        class CallbackJob(TestJob):
            def on_complete(self, result):
                holder["result"] = result

        job = CallbackJob(lambda ctx: False, loaders=[EnableKeysLoader([0])])
        result = run_job(fast_store, job)
        assert holder["result"] is result


class TestControl:
    def test_aborter_stops_early(self, fast_store):
        def fn(ctx):
            ctx.aggregate_value("count", 1)
            ctx.output_message(ctx.key, "forever")
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([0])],
            aggregators={"count": SumAggregator()},
            aborter=lambda step, aggs: step >= 3,
        )
        result = run_job(fast_store, job)
        assert result.aborted
        assert result.steps == 4

    def test_max_steps(self, fast_store):
        def fn(ctx):
            ctx.output_message(ctx.key, "forever")
            return False

        job = TestJob(fn, loaders=[EnableKeysLoader([0])])
        result = run_job(fast_store, job, max_steps=5)
        assert result.steps == 5
        assert not result.aborted

    def test_one_msg_violation_detected(self, fast_store):
        def fn(ctx):
            if ctx.step_num == 0:
                ctx.output_message(50, "a")
                ctx.output_message(50, "b")
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([0])],
            properties=JobProperties(one_msg=True, needs_order=True),
        )
        with pytest.raises(PropertyViolationError):
            run_job(fast_store, job, synchronize=True)

    def test_no_continue_violation_detected(self, fast_store):
        job = TestJob(
            lambda ctx: True,
            loaders=[EnableKeysLoader([0])],
            properties=JobProperties(no_continue=True, needs_order=True),
        )
        with pytest.raises(PropertyViolationError):
            run_job(fast_store, job, synchronize=True)

    def test_needs_order_sorts_within_part(self, local_store):
        """With needs-order, collocated invocations are ordered by key."""
        order = []

        def fn(ctx):
            order.append(ctx.key)
            return False

        job = TestJob(
            fn,
            loaders=[EnableKeysLoader([9, 1, 5, 3, 7])],
            properties=JobProperties(needs_order=True),
        )
        run_job(local_store, job)
        # local store has 4 parts; keys within each part must be ascending
        per_part = {}
        table = local_store.get_table("state")
        for key in order:
            per_part.setdefault(table.part_of(key), []).append(key)
        for keys in per_part.values():
            assert keys == sorted(keys)

    def test_compute_errors_carry_context(self, fast_store):
        def fn(ctx):
            raise RuntimeError("inner boom")

        with pytest.raises(ComputeError) as info:
            run_job(fast_store, TestJob(fn, loaders=[EnableKeysLoader([7])]))
        assert info.value.key == 7
        assert info.value.step == 0
        assert isinstance(info.value.cause, RuntimeError)

    def test_duplicate_state_tables_rejected(self, fast_store):
        job = TestJob(lambda ctx: False, state_tables=["t", "t"])
        with pytest.raises(JobSpecError):
            run_job(fast_store, job)

    def test_mismatched_part_counts_rejected(self, fast_store):
        fast_store.create_table(TableSpec(name="a", n_parts=2))
        fast_store.create_table(TableSpec(name="b", n_parts=3))
        job = TestJob(lambda ctx: False, state_tables=["a", "b"])
        with pytest.raises(JobSpecError):
            run_job(fast_store, job)

    def test_reference_table_sets_partitioning(self, fast_store):
        fast_store.create_table(TableSpec(name="ref", n_parts=7))
        job = TestJob(lambda ctx: False, state_tables=["fresh"], reference="ref")
        engine = SyncEngine(fast_store, job, EngineOptions())
        assert engine.n_parts == 7
        assert fast_store.get_table("fresh").n_parts == 7

    def test_private_tables_cleaned_up(self, fast_store):
        before = set(fast_store.list_tables())
        run_job(fast_store, TestJob(lambda ctx: False, loaders=[EnableKeysLoader([0])]))
        after = set(fast_store.list_tables())
        assert after - before == {"state"}
