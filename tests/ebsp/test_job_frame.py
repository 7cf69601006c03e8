"""The job frame under both EBSP engines: one setup, one result assembly.

The synchronous and the no-sync engine differ only in how they drive
computes; the job's I/O accounting, its runtime profile and its spec
checks come from the shared frame and must read the same on both.
"""

from __future__ import annotations

import inspect

import pytest

from repro.errors import JobSpecError
from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.engine import SyncEngine
from repro.ebsp.exporters import CollectingExporter
from repro.ebsp.loaders import DictStateLoader, MessageListLoader
from repro.ebsp.properties import JobProperties
from repro.ebsp.recovery import FailureInjector
from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore

from tests.conftest import runtime_override
from tests.ebsp.jobs import TestJob

INCREMENTAL = JobProperties(incremental=True, no_continue=True)


@pytest.fixture
def store():
    instance = PartitionedKVStore(n_partitions=4, runtime=runtime_override())
    yield instance
    instance.close()


def _chain(ctx):
    for value in ctx.input_messages():
        ctx.write_state(0, value + (ctx.read_state(0) or 0))
        if value < 40:
            ctx.output_message(value + 1, value + 1)
    return False


def _chain_job(**kwargs):
    return TestJob(
        _chain,
        properties=INCREMENTAL,
        loaders=[
            DictStateLoader(0, {key: 1000 for key in range(0, 41, 4)}),
            MessageListLoader([(0, 0)]),
        ],
        **kwargs,
    )


def test_no_sync_result_reports_the_jobs_own_store_io(store):
    engine = AsyncEngine(store, _chain_job())
    before = store.stats.snapshot()["marshalled_bytes"]
    result = engine.run()
    delta = store.stats.snapshot()["marshalled_bytes"] - before
    assert not result.synchronized
    assert result.compute_invocations == 41
    assert result.marshalled_bytes == delta > 0


def test_both_engines_report_the_same_metric_names(store):
    def names(result):
        runtime = {name for name in result.metrics if name.startswith("runtime.")}
        stored = {name for name in result.counters if name.startswith("store_")}
        return runtime, stored

    sync = SyncEngine(store, _chain_job(state_tables=["sync_state"])).run()
    no_sync = AsyncEngine(store, _chain_job(state_tables=["async_state"])).run()
    assert sync.synchronized and not no_sync.synchronized
    runtime, stored = names(sync)
    assert runtime and stored
    assert names(no_sync) == (runtime, stored)
    assert store.get_table("sync_state").get(40) == store.get_table("async_state").get(40)


@pytest.mark.parametrize("engine_cls", [SyncEngine, AsyncEngine])
def test_misnamed_state_exporter_refused_before_anything_runs(store, engine_cls):
    invoked = []

    def fn(ctx):
        invoked.append(ctx.key)
        ctx.write_state(0, 1)
        return False

    job = TestJob(
        fn,
        properties=INCREMENTAL,
        loaders=[MessageListLoader([(2, "x"), (1, "y")])],
        state_exporters={"ghost": CollectingExporter()},
    )
    with pytest.raises(JobSpecError, match="ghost"):
        engine_cls(store, job).run()
    assert invoked == []
    assert not [name for name in store.list_tables() if name.startswith("__ebsp")]


#: Every other refusal an engine makes of its options, each with the
#: words its error names.
REFUSALS = {
    "failure-injector-without-ft": (
        lambda store, job: SyncEngine(store, job, failure_injector=FailureInjector()).run(),
        "fault_tolerance",
    ),
    "checkpoints-without-ft": (
        lambda store, job: SyncEngine(store, job, checkpoint_interval=2).run(),
        "fault_tolerance",
    ),
    "resume-without-ft": (
        lambda store, job: SyncEngine(store, job, resume=True).run(),
        "fault_tolerance",
    ),
    "no-sync-ineligible": (
        lambda store, job: run_job(store, job, synchronize=False),
        "not eligible for no-sync",
    ),
}


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_option_refused_before_anything_runs(store, refusal):
    invoked = []

    def fn(ctx):
        invoked.append(ctx.key)
        return False

    # a plain job synchronizes: ineligible for no-sync
    job = TestJob(fn, loaders=[MessageListLoader([(2, "x"), (1, "y")])])
    start, match = REFUSALS[refusal]
    with pytest.raises(JobSpecError, match=match):
        start(store, job)
    assert invoked == []
    assert not [name for name in store.list_tables() if name.startswith("__ebsp")]


def test_async_engine_options():
    assert list(inspect.signature(AsyncEngine).parameters) == [
        "store",
        "job",
        "queuing",
        "trace",
        "on_step",
    ]
