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

import dataclasses
import inspect
import json
import re
import typing

import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_batch,
)
from repro.apps.sssp.wave import build_graph_table, read_distances, wave_sssp_job
from repro.ebsp import async_engine, frame
from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.engine import SyncEngine
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import EngineOptions, JobProperties
from repro.ebsp.runner import plan_for, run_job
from repro.ebsp.recovery import FailureInjector
from repro.errors import JobSpecError, RecoveryError
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.messaging.local_queue import LocalMessageQueuing
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
        no_sync_run = AsyncEngine(store, no_sync, EngineOptions()).run()
        assert no_sync_run.plan == plan_for(no_sync).as_dict()
        sync = DualFaceJob(24)
        sync_run = SyncEngine(store, sync, EngineOptions()).run()
        assert sync_run.plan == plan_for(sync, store).as_dict()

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
            plan_for(DualFaceJob(24), options=EngineOptions(batch_compute=value))
        with PartitionedKVStore(n_partitions=2, runtime="inline") as store:
            with pytest.raises(JobSpecError, match="batch_compute"):
                run_job(store, DualFaceJob(24), synchronize=True, batch_compute=value)
            # refused before the engine opened a single table
            assert store.list_tables() == []


def _wave_graph(store):
    """A 40-vertex ring with chords, for the no-sync-eligible wave SSSP."""
    adjacency = {v: {(v + 1) % 40, (v - 1) % 40, (v * 7) % 40} - {v} for v in range(40)}
    build_graph_table(store, "graph", adjacency)


def _sync_only_sample(name, tmp_path):
    """Options that set the sync-only option *name* off its default."""
    return {
        "max_steps": {"max_steps": 1000},
        "spill_batch": {"spill_batch": 8},
        "batch_compute": {"batch_compute": False},
        "fault_tolerance": {"fault_tolerance": True},
        "checkpoint_interval": {"checkpoint_interval": 2, "fault_tolerance": True,
                                "checkpoint_dir": str(tmp_path)},
        "checkpoint_dir": {"checkpoint_dir": str(tmp_path)},
        "resume": {"resume": True, "fault_tolerance": True, "checkpoint_dir": str(tmp_path)},
        "failure_injector": {"failure_injector": FailureInjector(), "fault_tolerance": True},
    }[name]


class TestOptionsPickTheEngine:
    """An option only the synchronous engine reads plans barriers; one
    only the no-sync engine reads plans none; at its default an option
    asks for nothing."""

    @pytest.mark.parametrize("name", sorted(SYNC_ONLY_ENGINE_OPTIONS))
    def test_sync_only_option_plans_barriers(self, name, tmp_path):
        options = _sync_only_sample(name, tmp_path)
        with PartitionedKVStore(n_partitions=3, runtime="inline") as store:
            _wave_graph(store)
            job = wave_sssp_job("graph", "plain", 0, 40)
            assert plan_for(job, store, EngineOptions(**options)).synchronized
            plain = run_job(store, job, synchronize=True)
            if name == "resume":
                # the synchronous engine looks for its checkpoint
                with pytest.raises(RecoveryError, match="no checkpoint"):
                    run_job(store, wave_sssp_job("graph", "dist", 0, 40), **options)
                return
            result = run_job(store, wave_sssp_job("graph", "dist", 0, 40), **options)
            assert _plan(result)["engine"] == "sync"
            assert result.steps == plain.steps
            assert read_distances(store, "dist", range(40)) == read_distances(
                store, "plain", range(40)
            )

    def test_options_at_their_defaults_ask_for_nothing(self):
        with PartitionedKVStore(n_partitions=3, runtime="inline") as store:
            _wave_graph(store)
            result = run_job(
                store, wave_sssp_job("graph", "dist", 0, 40),
                synchronize=False, fault_tolerance=False, spill_batch=512, max_steps=None,
            )
        assert _plan(result)["engine"] == "no-sync"

    def test_queuing_plans_no_barriers(self):
        job = wave_sssp_job("graph", "dist", 0, 40)
        options = EngineOptions(queuing=LocalMessageQueuing())
        assert options.barriers is False
        assert not plan_for(job, options=options).synchronized
        # on an ineligible job it is the no-sync refusal
        with pytest.raises(JobSpecError, match="not eligible for no-sync"):
            plan_for(DualFaceJob(24), options=options)


class TestEngineOptionDrift:
    def test_wire_options_are_engine_option_fields_of_the_same_type(self):
        declared = typing.get_type_hints(EngineOptions)
        wire = {f.name for f in dataclasses.fields(EngineOptions) if f.metadata["wire"]}
        assert set(ALLOWED_ENGINE_OPTIONS) == wire
        for name, wire_type in ALLOWED_ENGINE_OPTIONS.items():
            assert wire_type in (bool, int), name
            assert declared[name] in (wire_type, typing.Optional[wire_type]), name

    def test_sync_only_options_are_what_the_async_engine_does_not_read(self):
        no_sync_source = inspect.getsource(async_engine) + inspect.getsource(frame)
        read = set(re.findall(r"options\.(\w+)", no_sync_source))
        assert read and not read & SYNC_ONLY_ENGINE_OPTIONS
        names = {f.name for f in dataclasses.fields(EngineOptions)}
        # each engine pins synchronize; a no-sync run has no barriers to
        # call on_step after, but the front door attaches it to every job
        assert SYNC_ONLY_ENGINE_OPTIONS == names - read - {"synchronize", "on_step"}


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
