"""FrontDoor end-to-end: lifecycle, quotas, caching, progress, shutdown."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import (
    BadRequestError,
    QuotaExceededError,
    ServiceError,
    UnknownServiceJobError,
)
from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import DictStateLoader
from repro.ebsp.scheduler import JobScheduler
from repro.kvstore.local import LocalKVStore
from repro.service import (
    FrontDoor,
    JobRequest,
    JobStatus,
    TenantQuota,
    default_catalog,
)
from repro.service.catalog import PreparedJob

PR_PARAMS = {"n_vertices": 40, "n_edges": 150, "iterations": 4}


# -- a gate app: blocks until the test releases it --------------------------------
class _GateCompute(Compute):
    def __init__(self, gate: threading.Event):
        self._gate = gate

    def compute(self, ctx: ComputeContext) -> bool:
        assert self._gate.wait(30), "test forgot to open the gate"
        ctx.write_state(0, "ran")
        return False


class _GateJob(Job):
    def __init__(self, table: str, gate: threading.Event):
        self._table = table
        self._gate = gate

    def state_table_names(self):
        return [self._table]

    def get_compute(self) -> Compute:
        return _GateCompute(self._gate)

    def loaders(self):
        return [DictStateLoader(0, {0: "pending"}, enable=True)]


def catalog_with_gate(gates):
    """The default catalog plus a test-only app that blocks on an event."""
    catalog = default_catalog()

    def build(store, request):
        name = request.params["name"]
        gate = gates.setdefault(name, threading.Event())
        table = f"gate_{name}"
        return PreparedJob(
            job=_GateJob(table, gate),
            engine_kwargs={"synchronize": True},
            collect=lambda store, result: {"steps": result.steps, "name": name},
        )

    catalog.register("gate", build, required={"name": str}, optional={})
    return catalog


@pytest.fixture
def store():
    instance = LocalKVStore()
    yield instance
    instance.close()


class TestLifecycle:
    def test_pagerank_round_trip(self, store):
        with FrontDoor(store) as fd:
            record = fd.submit(JobRequest(app="pagerank", params=PR_PARAMS))
            assert record.wait(60)
            assert record.status is JobStatus.DONE
            assert not record.cached
            assert len(record.payload["ranks"]) == PR_PARAMS["n_vertices"]
            assert abs(sum(record.payload["ranks"].values()) - 1.0) < 1e-6
            assert record.steps_seen == PR_PARAMS["iterations"] + 1
            assert record.last_step["step"] == PR_PARAMS["iterations"]

    def test_status_events_in_order(self, store):
        with FrontDoor(store) as fd:
            record = fd.submit(JobRequest(app="pagerank", params=PR_PARAMS))
            record.wait(60)
            events = fd.board.events_since(record.job_id)
            statuses = [
                e["data"]["status"] for e in events if e["kind"] == "status"
            ]
            assert statuses == ["queued", "admitted", "running", "done"]
            steps = [e["data"]["step"] for e in events if e["kind"] == "step"]
            assert steps == list(range(PR_PARAMS["iterations"] + 1))

    def test_bad_requests_fail_at_submit(self, store):
        with FrontDoor(store) as fd:
            with pytest.raises(BadRequestError, match="unknown app"):
                fd.submit(JobRequest(app="nope"))
            with pytest.raises(BadRequestError, match="unknown params"):
                fd.submit(JobRequest(app="pagerank", params={"bogus": 1}))
            with pytest.raises(BadRequestError, match="missing params"):
                fd.submit(JobRequest(app="pagerank", params={}))
            assert fd.jobs() == []  # nothing leaked into the registry

    def test_semantic_failure_is_async_and_releases_the_slot(self, store):
        # source out of range passes the schema but fails in the builder
        with FrontDoor(store) as fd:
            record = fd.submit(
                JobRequest(
                    app="sssp",
                    params={"n_vertices": 10, "n_edges": 5, "source": 99},
                )
            )
            assert record.wait(30)
            assert record.status is JobStatus.FAILED
            assert "source" in record.error
            # the tenant's running slot was released
            follow_up = fd.submit(JobRequest(app="pagerank", params=PR_PARAMS))
            assert follow_up.wait(60)
            assert follow_up.status is JobStatus.DONE

    def test_sssp_second_source_does_not_see_stale_state(self, store):
        """Re-running SSSP over the same graph with a new source must
        start from fresh annotations, not the previous run's converged
        dist/neighbor_dists (the tables share a name by design)."""
        params = {"n_vertices": 24, "n_edges": 60, "seed": 3}
        with FrontDoor(store) as fd:
            first = fd.submit(JobRequest(app="sssp", params={**params, "source": 0}))
            assert first.wait(60) and first.status is JobStatus.DONE
            second = fd.submit(JobRequest(app="sssp", params={**params, "source": 7}))
            assert second.wait(60) and second.status is JobStatus.DONE
        assert second.payload["distances"]["7"] == 0
        # byte-identical to a service that never saw source 0
        fresh = LocalKVStore()
        with FrontDoor(fresh) as fd:
            alone = fd.submit(JobRequest(app="sssp", params={**params, "source": 7}))
            assert alone.wait(60) and alone.status is JobStatus.DONE
        fresh.close()
        assert second.payload["distances"] == alone.payload["distances"]

    def test_result_raises_until_done(self, store):
        gates = {}
        with FrontDoor(store, catalog=catalog_with_gate(gates)) as fd:
            record = fd.submit(JobRequest(app="gate", params={"name": "r1"}))
            with pytest.raises(ServiceError):
                fd.result(record.job_id)
            gates["r1"].set()
            record.wait(30)
            assert fd.result(record.job_id)["name"] == "r1"


class TestQuotas:
    def test_over_quota_jobs_queue_then_run(self, store):
        gates = {}
        quotas = {"t": TenantQuota(max_running=1, max_queued=2)}
        with FrontDoor(
            store, catalog=catalog_with_gate(gates), quotas=quotas, max_concurrent=4
        ) as fd:
            first = fd.submit(
                JobRequest(app="gate", tenant="t", params={"name": "q1"})
            )
            second = fd.submit(
                JobRequest(app="gate", tenant="t", params={"name": "q2"})
            )
            assert second.status is JobStatus.QUEUED
            assert fd.tenants()["t"] == {
                **fd.tenants()["t"], "running": 1, "queued": 1,
            }
            # q2's builder only runs at dispatch; pre-seed its gate open
            gates.setdefault("q2", threading.Event()).set()
            gates["q1"].set()
            assert first.wait(30) and first.status is JobStatus.DONE
            assert second.wait(30)
            assert second.status is JobStatus.DONE

    def test_queue_quota_rejects_with_retry_after(self, store):
        gates = {}
        quotas = {"t": TenantQuota(max_running=1, max_queued=1)}
        with FrontDoor(store, catalog=catalog_with_gate(gates), quotas=quotas) as fd:
            fd.submit(JobRequest(app="gate", tenant="t", params={"name": "b1"}))
            fd.submit(JobRequest(app="gate", tenant="t", params={"name": "b2"}))
            with pytest.raises(QuotaExceededError) as info:
                fd.submit(JobRequest(app="gate", tenant="t", params={"name": "b3"}))
            assert info.value.retry_after >= 1.0
            for gate in gates.values():
                gate.set()

    def test_dispatch_failure_drains_jobs_queued_behind_it(self, store):
        """A job whose builder fails at dispatch must release its slot
        AND wake the queue — jobs behind it would otherwise stay QUEUED
        forever when no other completion event arrives."""
        gates = {}
        quotas = {"t": TenantQuota(max_running=1, max_queued=4)}
        with FrontDoor(store, catalog=catalog_with_gate(gates), quotas=quotas) as fd:
            first = fd.submit(JobRequest(app="gate", tenant="t", params={"name": "d1"}))
            # passes schema validation, fails in the builder at dispatch
            doomed = fd.submit(
                JobRequest(
                    app="sssp", tenant="t",
                    params={"n_vertices": 10, "n_edges": 5, "source": 99},
                )
            )
            behind = fd.submit(JobRequest(app="gate", tenant="t", params={"name": "d2"}))
            assert doomed.status is JobStatus.QUEUED
            assert behind.status is JobStatus.QUEUED
            gates.setdefault("d2", threading.Event()).set()
            gates["d1"].set()
            assert first.wait(30) and first.status is JobStatus.DONE
            assert doomed.wait(30) and doomed.status is JobStatus.FAILED
            assert behind.wait(30) and behind.status is JobStatus.DONE

    def test_tenants_do_not_block_each_other(self, store):
        gates = {}
        quotas = {"busy": TenantQuota(max_running=1)}
        with FrontDoor(
            store, catalog=catalog_with_gate(gates), quotas=quotas, max_concurrent=4
        ) as fd:
            fd.submit(JobRequest(app="gate", tenant="busy", params={"name": "h1"}))
            other = fd.submit(JobRequest(app="pagerank", tenant="idle", params=PR_PARAMS))
            assert other.wait(60)
            assert other.status is JobStatus.DONE
            gates["h1"].set()


class TestCancellation:
    def test_cancel_queued_job(self, store):
        gates = {}
        quotas = {"t": TenantQuota(max_running=1, max_queued=2)}
        with FrontDoor(store, catalog=catalog_with_gate(gates), quotas=quotas) as fd:
            running = fd.submit(JobRequest(app="gate", tenant="t", params={"name": "c1"}))
            queued = fd.submit(JobRequest(app="gate", tenant="t", params={"name": "c2"}))
            assert fd.cancel(queued.job_id) is True
            assert queued.status is JobStatus.CANCELLED
            gates["c1"].set()
            assert running.wait(30) and running.status is JobStatus.DONE
            # the cancelled job never ran
            assert "c2" not in gates or not gates["c2"].is_set()

    def test_cancel_running_job_is_refused(self, store):
        gates = {}
        with FrontDoor(store, catalog=catalog_with_gate(gates)) as fd:
            record = fd.submit(JobRequest(app="gate", params={"name": "c3"}))
            # wait until it is actually running
            for _ in range(100):
                if record.status is JobStatus.RUNNING:
                    break
                threading.Event().wait(0.05)
            assert fd.cancel(record.job_id) is False
            gates["c3"].set()
            record.wait(30)


class TestCaching:
    def test_repeat_submission_hits(self, store):
        with FrontDoor(store) as fd:
            first = fd.submit(JobRequest(app="pagerank", tenant="a", params=PR_PARAMS))
            first.wait(60)
            second = fd.submit(JobRequest(app="pagerank", tenant="b", params=PR_PARAMS))
            assert second.status is JobStatus.DONE  # immediately
            assert second.cached
            assert json.dumps(second.payload, sort_keys=True) == json.dumps(
                first.payload, sort_keys=True
            )
            assert fd.cache_stats()["hits"] == 1

    def test_table_mutation_invalidates(self, store):
        with FrontDoor(store) as fd:
            first = fd.submit(JobRequest(app="pagerank", params=PR_PARAMS))
            first.wait(60)
            table = store.get_table(first.payload["table"])
            table.put(0, table.get(0))  # touch: epoch bump, same data
            second = fd.submit(JobRequest(app="pagerank", params=PR_PARAMS))
            assert not second.cached
            second.wait(60)
            assert second.status is JobStatus.DONE

    def test_different_params_do_not_hit(self, store):
        with FrontDoor(store) as fd:
            fd.submit(JobRequest(app="pagerank", params=PR_PARAMS)).wait(60)
            other = dict(PR_PARAMS, iterations=5)
            second = fd.submit(JobRequest(app="pagerank", params=other))
            assert not second.cached
            second.wait(60)

    def test_matches_direct_scheduler_run(self, store):
        """The front door adds management, not computation: payloads are
        byte-identical to collecting a direct scheduler run, for every
        catalog app."""
        requests = [
            JobRequest(app="pagerank", params=PR_PARAMS),
            JobRequest(app="sssp", params={"n_vertices": 30, "n_edges": 60, "source": 2}),
            JobRequest(app="summa", params={"m": 6, "n": 4, "inner": 5}),
            JobRequest(app="kmeans", params={"n_points": 30, "k": 3}),
        ]
        with FrontDoor(store) as fd:
            records = [fd.submit(request) for request in requests]
            for record in records:
                assert record.wait(60) and record.status is JobStatus.DONE

        direct_store = LocalKVStore()
        catalog = default_catalog()
        with JobScheduler(direct_store) as scheduler:
            for request, record in zip(requests, records):
                prepared = catalog.prepare(direct_store, request)
                handle = scheduler.submit(prepared.job, **prepared.engine_kwargs)
                handle.wait(60)
                direct_payload = prepared.collect(direct_store, handle.result)
                assert json.dumps(record.payload, sort_keys=True) == json.dumps(
                    direct_payload, sort_keys=True
                ), request.app


class TestRetention:
    def test_terminal_jobs_evicted_beyond_cap(self, store):
        with FrontDoor(store, retain_jobs=2) as fd:
            records = []
            for i in range(4):
                record = fd.submit(
                    JobRequest(app="pagerank", params={**PR_PARAMS, "iterations": i + 1})
                )
                assert record.wait(60) and record.status is JobStatus.DONE
                records.append(record)
            # the two oldest lose record, event log, and scheduler handle
            assert {r.job_id for r in fd.jobs()} == {r.job_id for r in records[2:]}
            with pytest.raises(UnknownServiceJobError):
                fd.job(records[0].job_id)
            assert fd.board.events_since(records[0].job_id) == []
            assert len(fd._scheduler.jobs()) <= 2

    def test_retained_jobs_stay_queryable(self, store):
        with FrontDoor(store, retain_jobs=8) as fd:
            record = fd.submit(JobRequest(app="pagerank", params=PR_PARAMS))
            assert record.wait(60)
            assert fd.result(record.job_id) == record.payload
            assert fd.board.events_since(record.job_id) != []

    def test_retain_jobs_must_be_positive(self, store):
        with pytest.raises(ValueError, match="retain_jobs"):
            FrontDoor(store, retain_jobs=0)


class TestShutdown:
    def test_close_cancels_queued_and_drains_running(self, store):
        gates = {}
        quotas = {"t": TenantQuota(max_running=1, max_queued=2)}
        fd = FrontDoor(store, catalog=catalog_with_gate(gates), quotas=quotas)
        running = fd.submit(JobRequest(app="gate", tenant="t", params={"name": "s1"}))
        queued = fd.submit(JobRequest(app="gate", tenant="t", params={"name": "s2"}))
        gates["s1"].set()
        assert fd.close(timeout=30) is True
        assert running.status is JobStatus.DONE
        assert queued.status is JobStatus.CANCELLED

    def test_submit_after_close_raises(self, store):
        fd = FrontDoor(store)
        fd.close()
        with pytest.raises(ServiceError, match="shut down"):
            fd.submit(JobRequest(app="pagerank", params=PR_PARAMS))

    def test_close_is_idempotent(self, store):
        fd = FrontDoor(store)
        assert fd.close() is True
        assert fd.close() is True


def test_metrics_are_labeled_per_tenant(store):
    with FrontDoor(store) as fd:
        fd.submit(JobRequest(app="pagerank", tenant="alice", params=PR_PARAMS)).wait(60)
        fd.submit(JobRequest(app="pagerank", tenant="bob", params=PR_PARAMS))
        snapshot = fd.metrics().snapshot()
        assert snapshot["service.jobs_submitted{tenant=alice}"] == 1
        assert snapshot["service.jobs_submitted{tenant=bob}"] == 1
        assert snapshot["service.cache_hits{tenant=bob}"] == 1
        assert snapshot["service.jobs_done{tenant=alice}"] == 1
