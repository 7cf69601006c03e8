"""Inputs immutable, state per job: concurrent requests over one input,
scratch-table lifecycle, and what the result cache keeps valid."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.apps.kmeans.reference import gaussian_blobs, reference_kmeans
from repro.apps.pagerank.common import PageRankConfig, reference_pagerank
from repro.apps.sssp.common import INFINITY, reference_distances
from repro.ebsp.scheduler import JobScheduler
from repro.graph.generators import power_law_directed_graph, power_law_undirected_edges
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.service import FrontDoor, JobRequest, JobStatus, TenantQuota, default_catalog
from repro.service.catalog import PreparedJob
from tests.service.test_frontdoor import catalog_with_gate

PR = {"n_vertices": 300, "n_edges": 2400, "iterations": 10, "seed": 5}
SSSP = {"n_vertices": 400, "n_edges": 1200, "seed": 4}
KM = {"n_points": 240, "k": 4, "seed": 2, "spread": 1.5, "separation": 1.0}


@pytest.fixture
def store():
    instance = PartitionedKVStore(n_partitions=4, runtime="threaded")
    yield instance
    instance.close()


def _run_all(store, requests, **fd_kwargs):
    """Submit every request before any can finish; wait for all.

    Also returns each job's scheduler (reads, writes) table sets."""
    with FrontDoor(store, runtime="threaded", max_concurrent=2, **fd_kwargs) as fd:
        records = [fd.submit(request) for request in requests]
        for record in records:
            assert record.wait(120)
            assert record.status is JobStatus.DONE, record.error
        access = [
            (handle.reads, handle.writes)
            for handle in (fd._scheduler.handle(r.scheduler_id) for r in records)
        ]
    return records, access


#: The graph inputs (``svc_<app>_<input digest>``), which no job writes.
INPUT_TABLE = re.compile(r"svc_(pagerank|sssp)_[0-9a-f]{12}")


def _job_tables(store):
    """Tables the service created that a job could write: anything but
    the PageRank and SSSP graph inputs."""
    return sorted(
        name for name in store.list_tables()
        if name.startswith("svc_") and not INPUT_TABLE.fullmatch(name)
    )


class TestConcurrentRequestsOverOneInput:
    def test_pagerank_dampings(self, store):
        dampings = (0.5, 0.9)
        records, access = _run_all(
            store,
            [JobRequest(app="pagerank", tenant=f"t{i}", params={**PR, "damping": d})
             for i, d in enumerate(dampings)],
        )
        adjacency = power_law_directed_graph(PR["n_vertices"], PR["n_edges"], PR["seed"])
        for record, damping in zip(records, dampings):
            expected = reference_pagerank(
                adjacency, PageRankConfig(iterations=PR["iterations"], damping=damping)
            )
            ranks = record.payload["ranks"]
            assert max(abs(ranks[str(v)] - r) for v, r in expected.items()) < 1e-9
        # one shared read-only graph, so the scheduler may overlap the
        # two jobs; each writes only its own ranks table
        graph = records[0].payload["table"]
        assert records[1].payload["table"] == graph
        (reads_a, writes_a), (reads_b, writes_b) = access
        assert reads_a == reads_b == {graph}
        assert not writes_a & writes_b
        assert _job_tables(store) == []

    def test_sssp_sources(self, store):
        sources = (0, 17)
        records, access = _run_all(
            store,
            [JobRequest(app="sssp", tenant=f"t{i}", params={**SSSP, "source": s})
             for i, s in enumerate(sources)],
        )
        adjacency = {v: set() for v in range(SSSP["n_vertices"])}
        for a, b in power_law_undirected_edges(SSSP["n_vertices"], SSSP["n_edges"], SSSP["seed"]):
            adjacency[a].add(b)
            adjacency[b].add(a)
        for record, source in zip(records, sources):
            expected = {
                str(v): (None if d >= INFINITY else d)
                for v, d in reference_distances(adjacency, source).items()
            }
            assert record.payload["distances"] == expected
        # one shared read-only graph; each job writes its own distances
        (reads_a, writes_a), (reads_b, writes_b) = access
        assert len(reads_a) == 1 and reads_a == reads_b
        assert INPUT_TABLE.fullmatch(next(iter(reads_a)))
        assert not writes_a & writes_b
        assert _job_tables(store) == []

    def test_kmeans_max_iterations(self, store):
        caps = (2, 6)
        records, _ = _run_all(
            store,
            [JobRequest(app="kmeans", tenant=f"t{i}", params={**KM, "max_iterations": m})
             for i, m in enumerate(caps)],
        )
        points = gaussian_blobs(
            KM["n_points"], KM["k"], seed=KM["seed"], spread=KM["spread"],
            separation=KM["separation"],
        )
        initial = np.vstack([points[key] for key in sorted(points)[: KM["k"]]])
        for record, cap in zip(records, caps):
            centroids, assignments, _ = reference_kmeans(points, initial, cap)
            assert record.payload["assignments"] == {
                str(k): a for k, a in assignments.items()
            }
            assert np.allclose(np.asarray(record.payload["centroids"]), centroids)
        assert _job_tables(store) == []

    @pytest.mark.parametrize(
        "app, params",
        [
            ("pagerank", PR),
            ("sssp", {**SSSP, "source": 3}),
            ("summa", {"m": 24, "n": 24, "inner": 24, "seed": 1}),
            ("kmeans", {**KM, "max_iterations": 4}),
        ],
    )
    def test_identical_requests_in_flight(self, store, app, params):
        (first, second), _ = _run_all(
            store,
            [JobRequest(app=app, tenant=f"t{i}", params=params) for i in range(2)],
        )
        assert not first.cached and not second.cached
        assert json.dumps(first.payload, sort_keys=True) == json.dumps(
            second.payload, sort_keys=True
        )
        assert _job_tables(store) == []


class TestScratchLifecycle:
    def test_cancelled_job_leaves_no_scratch(self, store):
        gates = {}
        quotas = {"t": TenantQuota(max_running=2)}
        with FrontDoor(
            store, catalog=catalog_with_gate(gates), quotas=quotas,
            runtime="threaded", max_concurrent=1,
        ) as fd:
            blocker = fd.submit(JobRequest(app="gate", tenant="t", params={"name": "x"}))
            victim = fd.submit(JobRequest(app="pagerank", tenant="t", params=PR))
            assert victim.status is JobStatus.ADMITTED  # prepared, not started
            assert _job_tables(store) != []
            assert fd.cancel(victim.job_id)
            assert victim.wait(30) and victim.status is JobStatus.CANCELLED
            gates["x"].set()
            assert blocker.wait(30)
        assert _job_tables(store) == []

    def test_failed_collect_leaves_no_scratch(self, store):
        catalog = default_catalog()
        base = default_catalog()

        def broken(store, request):
            prepared = base.prepare(store, JobRequest(app="sssp", params=request.params))

            def collect(store, result):
                raise RuntimeError("collect blew up")

            prepared.collect = collect
            return prepared

        params = {**SSSP, "source": 5}
        catalog.register("broken", broken, required={}, optional=dict.fromkeys(params, int))
        with FrontDoor(store, catalog=catalog, runtime="threaded") as fd:
            record = fd.submit(JobRequest(app="broken", params=params))
            assert record.wait(60) and record.status is JobStatus.FAILED
            assert "collect blew up" in record.error
        assert _job_tables(store) == []

    def test_scheduler_submit_error_leaves_no_scratch(self, store):
        class Refusing(JobScheduler):
            def submit(self, job, **kwargs):
                raise RuntimeError("no slots for you")

        with Refusing(store) as scheduler, FrontDoor(store, scheduler=scheduler) as fd:
            record = fd.submit(JobRequest(app="sssp", params={**SSSP, "source": 1}))
            assert record.status is JobStatus.FAILED
            assert "no slots" in record.error
        assert _job_tables(store) == []

    def test_collect_drops_scratch_on_a_plain_prepare(self):
        local = LocalKVStore()
        request = JobRequest(app="sssp", params={**SSSP, "source": 2})
        prepared = default_catalog().prepare(local, request)
        assert prepared.scratch_tables == [
            name for name in local.list_tables() if request.fingerprint()[:12] in name
        ]
        with JobScheduler(local) as scheduler:
            handle = scheduler.submit(prepared.job, **prepared.engine_kwargs)
            assert handle.wait(60)
        prepared.collect(local, handle.result)
        # only the graph input outlives the job
        assert local.list_tables() == prepared.input_tables
        local.close()


class TestCacheValidity:
    def test_other_damping_does_not_invalidate(self, store):
        with FrontDoor(store, runtime="threaded") as fd:
            first = fd.submit(JobRequest(app="pagerank", params={**PR, "damping": 0.85}))
            assert first.wait(60) and first.status is JobStatus.DONE
            other = fd.submit(JobRequest(app="pagerank", params={**PR, "damping": 0.86}))
            assert other.wait(60) and other.status is JobStatus.DONE
            again = fd.submit(JobRequest(app="pagerank", params={**PR, "damping": 0.85}))
            assert again.cached
            assert again.payload == first.payload

    def test_sssp_graph_is_seeded_once_and_versions_the_result(self, store):
        with FrontDoor(store, runtime="threaded") as fd:
            first = fd.submit(JobRequest(app="sssp", params={**SSSP, "source": 1}))
            assert first.wait(60) and first.status is JobStatus.DONE
            (graph_name,) = [n for n in store.list_tables() if INPUT_TABLE.fullmatch(n)]
            graph = store.get_table(graph_name)
            epoch = graph.mutation_epoch
            other = fd.submit(JobRequest(app="sssp", params={**SSSP, "source": 9}))
            assert other.wait(60) and other.status is JobStatus.DONE
            assert graph.mutation_epoch == epoch  # no re-seed, no job write
            again = fd.submit(JobRequest(app="sssp", params={**SSSP, "source": 1}))
            assert again.cached and again.payload == first.payload
            graph.put(0, graph.get(0))  # touch: epoch bump, same data
            fresh = fd.submit(JobRequest(app="sssp", params={**SSSP, "source": 1}))
            assert not fresh.cached
            assert fresh.wait(60) and fresh.payload == first.payload

    def test_inputs_are_only_tables_no_job_writes(self, store):
        """PageRank and SSSP read a graph input table; the others'
        results are a pure function of the request."""
        catalog = default_catalog()
        requests = {
            "pagerank": PR,
            "sssp": SSSP,
            "summa": {"m": 8, "n": 8, "inner": 8},
            "kmeans": KM,
        }
        for app, params in requests.items():
            prepared = catalog.prepare(store, JobRequest(app=app, params=params))
            assert isinstance(prepared, PreparedJob)
            writes = set(prepared.job.state_table_names()) - set(prepared.input_tables)
            assert set(prepared.scratch_tables) == writes
            if app in ("pagerank", "sssp"):
                assert prepared.input_tables == [prepared.job.reference_table()]
            else:
                assert prepared.input_tables == []
            for name in prepared.scratch_tables:
                store.drop_table(name)
