"""The planner decides how a job runs, and every result records it.

``plan_for`` turns a job's declared properties and the facts detected
from the job and the store into one :class:`ExecutionPlan`: with or
without barriers, the part-step shape, shipping and work stealing.
Both engines read it, and ``JobResult.plan`` is its JSON-able record.
The drift guards keep the service's engine-option whitelist and the
catalog's submit-time refusals in step with the engines and the
planner.
"""

from __future__ import annotations

import inspect
import json
import typing

import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_batch,
)
from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.engine import SyncEngine
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import plan_for, run_job
from repro.errors import JobSpecError
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.service.catalog import default_catalog
from repro.service.spec import (
    ALLOWED_ENGINE_OPTIONS,
    SYNC_ONLY_ENGINE_OPTIONS,
    JobRequest,
)

from tests.ebsp.jobs import TestJob
from tests.ebsp.test_batch_compute import DualFaceJob


def _plan(result):
    """*result*'s plan, after checking it is plain JSON."""
    assert json.loads(json.dumps(result.plan)) == result.plan
    return result.plan


def _relay(ctx):
    for value in ctx.input_messages():
        ctx.write_state(0, value)
        if value < 4:
            ctx.output_message(ctx.key + 1, value + 1)
    return False


def _relay_job(**properties):
    return TestJob(
        _relay,
        loaders=[MessageListLoader([(0, 1), (10, 1)])],
        properties=JobProperties(one_msg=True, no_continue=True, **properties),
    )


def _no_ebsp_tables(store):
    return not [name for name in store.list_tables() if name.startswith("__ebsp")]


class TestRecordedPlan:
    def test_columnar_pagerank_on_a_process_store_ships(self):
        adjacency = {v: [(v + 1) % 40, (v * 7 + 3) % 40] for v in range(40)}
        with PartitionedKVStore(n_partitions=2, runtime="process") as store:
            n = build_pagerank_table(store, "pr", adjacency)
            result = pagerank_batch(store, "pr", n, PageRankConfig(iterations=3))
        plan = _plan(result)
        assert {k: plan[k] for k in ("engine", "shape", "shipped")} == {
            "engine": "sync",
            "shape": "columnar",
            "shipped": True,
        }
        assert result.worker_stats["pids"]

    def test_lambda_job_on_a_process_store_runs_in_the_parent(self):
        with PartitionedKVStore(n_partitions=2, runtime="process") as store:
            job = TestJob(
                lambda ctx: ctx.step_num < 2,
                loaders=[MessageListLoader([(i, i) for i in range(6)])],
            )
            result = run_job(store, job, synchronize=True)
            assert result.steps == 3
            assert _no_ebsp_tables(store)
        assert _plan(result)["shipped"] is False

    def test_threaded_store_does_not_ship(self):
        with PartitionedKVStore(n_partitions=2, runtime="threaded") as store:
            result = run_job(store, DualFaceJob(24), synchronize=True)
        plan = _plan(result)
        assert plan["shape"] == "columnar"
        assert plan["shipped"] is False

    def test_batch_compute_false_runs_per_key(self):
        with PartitionedKVStore(n_partitions=2, runtime="inline") as store:
            result = run_job(store, DualFaceJob(24), synchronize=True, batch_compute=False)
        assert _plan(result)["shape"] == "per-key"

    def test_no_collect_job(self):
        with PartitionedKVStore(n_partitions=2, runtime="inline") as store:
            result = run_job(store, _relay_job(), synchronize=True)
        plan = _plan(result)
        assert plan["shape"] == "no-collect"
        assert plan["no_collect"] and not plan["no_sync"]

    @pytest.mark.parametrize("rare_state", [True, False])
    def test_no_sync_job_steals_only_when_rare_state(self, rare_state):
        with PartitionedKVStore(n_partitions=2, runtime="threaded") as store:
            result = run_job(store, _relay_job(no_ss_order=True, rare_state=rare_state))
        plan = _plan(result)
        assert plan["engine"] == "no-sync" and plan["shape"] == "drain"
        assert plan["shipped"] is False
        assert plan["work_stealing"] is rare_state
        assert plan["run_anywhere"] is rare_state

    def test_forced_barriers_on_an_eligible_job(self):
        store = LocalKVStore(default_n_parts=2)
        job = _relay_job(no_ss_order=True)
        result = run_job(store, job, synchronize=True)
        assert result.synchronized
        assert _plan(result)["engine"] == "sync"
        assert _plan(result)["no_sync"]


class TestPlanFor:
    def test_agrees_with_the_engines(self):
        store = LocalKVStore(default_n_parts=2)
        no_sync = _relay_job(no_ss_order=True, rare_state=True)
        assert AsyncEngine(store, no_sync).run().plan == plan_for(no_sync).as_dict()
        sync = DualFaceJob(24)
        assert SyncEngine(store, sync).run().plan == plan_for(sync, store).as_dict()

    def test_shipping_needs_the_engines_pickle_fact(self):
        with PartitionedKVStore(n_partitions=2, runtime="process") as store:
            job = DualFaceJob(24)
            assert not plan_for(job, store).shipped
            assert plan_for(job, store, ship_state_pickles=True).shipped
            assert not plan_for(job, ship_state_pickles=True).shipped

    @pytest.mark.parametrize("runtime", ["inline", "process"])
    @pytest.mark.parametrize("job", ["sync", "no-sync"])
    def test_a_job_builds_its_compute_once(self, job, runtime):
        """``run_job``, the frame and the engine's planner share one
        compute — on a process store, also the one part-steps ship."""
        job = DualFaceJob(24) if job == "sync" else _relay_job(no_ss_order=True)
        calls = []
        build = job.get_compute

        def counted():
            calls.append(1)
            return build()

        job.get_compute = counted
        with PartitionedKVStore(n_partitions=2, runtime=runtime) as store:
            result = run_job(store, job)
        assert len(calls) == 1
        assert _plan(result)["shipped"] is (runtime == "process" and result.synchronized)

    @pytest.mark.parametrize("value", [None, 0, 1, "no"])
    def test_batch_compute_must_be_a_bool(self, value):
        with pytest.raises(JobSpecError, match="batch_compute"):
            plan_for(DualFaceJob(24), batch_compute=value)
        with PartitionedKVStore(n_partitions=2, runtime="inline") as store:
            with pytest.raises(JobSpecError, match="batch_compute"):
                run_job(store, DualFaceJob(24), synchronize=True, batch_compute=value)
            # refused before the engine opened a single table
            assert store.list_tables() == []


def _keyword_types(engine):
    hints = typing.get_type_hints(engine.__init__)
    return {
        name: hints[name]
        for name, param in inspect.signature(engine).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }


class TestEngineOptionDrift:
    def test_wire_options_are_sync_engine_keywords_of_the_same_type(self):
        keywords = _keyword_types(SyncEngine)
        for name, wire_type in ALLOWED_ENGINE_OPTIONS.items():
            if name == "synchronize":  # run_job's own switch
                continue
            assert name in keywords, name
            declared = keywords[name]
            assert declared is wire_type or declared == typing.Optional[wire_type], name

    def test_sync_only_options_are_what_the_async_engine_does_not_take(self):
        taken = set(_keyword_types(AsyncEngine)) | {"synchronize"}
        assert SYNC_ONLY_ENGINE_OPTIONS == set(ALLOWED_ENGINE_OPTIONS) - taken


#: Small, valid parameters for every catalog app.
SMALL_PARAMS = {
    "pagerank": {"n_vertices": 30, "n_edges": 90, "iterations": 2},
    "sssp": {"n_vertices": 30, "n_edges": 90},
    "summa": {"m": 4, "n": 4, "inner": 4},
    "kmeans": {"n_points": 30, "k": 3},
}


def test_catalog_barrier_apps_are_not_no_sync_eligible():
    """The submit-time 400 for ``synchronize: false`` on a barrier app
    holds exactly when the planner would refuse the job."""
    catalog = default_catalog()
    barrier_apps = sorted(catalog._needs_barriers)
    assert barrier_apps
    store = LocalKVStore(default_n_parts=2)
    for app in barrier_apps:
        request = JobRequest(app=app, params=SMALL_PARAMS[app])
        catalog.validate(request)
        prepared = catalog.prepare(store, request)
        assert not plan_for(prepared.job, store).no_sync, app
