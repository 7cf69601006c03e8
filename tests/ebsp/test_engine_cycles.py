"""No reference cycle through a finished engine, on either engine.

An engine that sits in a cycle (say, a bound method of its own stored
on itself) is freed only by the cyclic collector, so engines — and the
copy a worker unpickles per shipped part-step — pile up between
collections and job time follows the collector's schedule.  With the
collector off, a finished engine must die with its last reference.
Each SyncEngine case runs one shape of part-step: per-key, columnar,
columnar with state written and read back as columns, the columnar
shape falling back to per-key, and no-collect, once clean and once
with injected failures recovered by the driver's retry loop;
each AsyncEngine case runs one drain plan — one drain per part (a part
with nothing queued holds no drain until a post readies it) or work
stealing — once clean and once with a drain whose compute raises.
Each case checks that the plan it names is the one that ran.
Every case runs on the inline, threaded and process runtimes; one more
checks that a shipped engine's resident compute dies with it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import ComputeError
from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.engine import SyncEngine
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import EngineOptions, JobProperties
from repro.ebsp.runner import plan_for
from repro.ebsp.recovery import FailureInjector
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob
from tests.ebsp.test_batch_compute import DualFaceJob, MixedKeyJob
from tests.ebsp.test_column_staging import StagingJob


def _relay(ctx):
    # one message in, at most one message out: a no-collect job
    for value in ctx.input_messages():
        ctx.write_state(0, value)
        if value < 4:
            ctx.output_message(ctx.key + 1, value + 1)
    return False


def _no_collect_job():
    return TestJob(
        _relay,
        loaders=[MessageListLoader([(0, 1), (10, 1)])],
        properties=JobProperties(one_msg=True, no_continue=True),
    )


RUNTIMES = ["inline", "threaded", "process"]

PLANS = {
    "per-key": (lambda: DualFaceJob(24), {"batch_compute": False}, "per-key"),
    "columnar": (lambda: DualFaceJob(24), {}, "columnar"),
    "column-state": (lambda: StagingJob("write_read"), {}, "columnar"),
    "fallback": (MixedKeyJob, {}, "columnar"),
    "no-collect": (_no_collect_job, {}, "no-collect"),
}


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_finished_engine_dies_with_its_last_reference(plan, runtime):
    make_job, options, shape = PLANS[plan]
    n_partitions = 1 if plan == "fallback" else 2
    store = PartitionedKVStore(n_partitions=n_partitions, runtime=runtime)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = SyncEngine(store, make_job(), EngineOptions(**options))
        result = engine.run()
        assert result.plan["shape"] == shape
        assert result.steps > 0
        if plan == "fallback":
            assert result.counters["batch_fallbacks"] == 1
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
        store.close()


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_engine_that_recovered_failures_dies_with_its_last_reference(plan, runtime):
    """A failed part-step's exception and traceback travel through
    futures back to the driver; none of them may keep the engine in a
    cycle."""
    make_job, options, shape = PLANS[plan]
    n_partitions = 1 if plan == "fallback" else 2
    store = PartitionedKVStore(n_partitions=n_partitions, runtime=runtime)
    injector = FailureInjector()
    for part in range(n_partitions):
        injector.schedule(part=part, step=0, times=2)
        injector.schedule(part=part, step=1)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = SyncEngine(
            store,
            make_job(),
            EngineOptions(fault_tolerance=True, failure_injector=injector, **options),
        )
        result = engine.run()
        assert result.plan["shape"] == shape
        assert result.counters["part_step_retries"] == injector.failures_injected > 0
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
        store.close()


def test_shipped_engine_and_its_resident_compute_die_with_the_engine():
    """On a process store the compute ships by reference to each
    worker's resident copy; nothing in the parent keeps the engine or
    its compute past the last reference."""
    store = PartitionedKVStore(n_partitions=2, runtime="process")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = SyncEngine(store, DualFaceJob(24), EngineOptions())
        result = engine.run()
        assert result.plan["shipped"] and result.plan["shape"] == "columnar"
        refs = [weakref.ref(engine), weakref.ref(engine._compute)]
        del engine
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
        store.close()


def _no_sync_job(properties):
    return TestJob(
        _relay,
        loaders=[MessageListLoader([(0, 1), (10, 1)])],
        properties=properties,
    )


NO_SYNC_PLANS = {
    "drain": (JobProperties(incremental=True, no_continue=True), False),
    "stealing": (
        JobProperties(one_msg=True, no_continue=True, rare_state=True, no_ss_order=True),
        True,
    ),
}


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("plan", sorted(NO_SYNC_PLANS))
def test_finished_async_engine_dies_with_its_last_reference(plan, runtime):
    properties, stealing = NO_SYNC_PLANS[plan]
    store = PartitionedKVStore(n_partitions=2, runtime=runtime)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = AsyncEngine(store, _no_sync_job(properties), EngineOptions())
        result = engine.run()
        assert result.plan["work_stealing"] is stealing
        assert result.compute_invocations == 8
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
        store.close()


def _failing(ctx):
    for value in ctx.input_messages():
        if value == 3:
            raise ValueError("drain failure")
        ctx.output_message(ctx.key + 1, value + 1)
    return False


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("plan", sorted(NO_SYNC_PLANS))
def test_async_engine_whose_drain_raised_dies_with_its_last_reference(plan, runtime):
    """The failing drain's exception and traceback travel to the
    driver and out of ``run``; none of them may keep the engine in a
    cycle."""
    properties, stealing = NO_SYNC_PLANS[plan]
    store = PartitionedKVStore(n_partitions=2, runtime=runtime)
    job = TestJob(
        _failing,
        loaders=[MessageListLoader([(0, 1), (10, 1)])],
        properties=properties,
    )
    # the run raises, so no result carries the plan: ask the planner
    assert plan_for(job, store).work_stealing is stealing
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = AsyncEngine(store, job, EngineOptions())
        try:
            engine.run()
        except ComputeError:
            pass
        else:
            pytest.fail("the drain's ComputeError did not reach the caller")
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
        store.close()
