"""HTTP surface: routing, status codes, long-poll, and SSE."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.kvstore.local import LocalKVStore
from repro.service import FrontDoor, ServiceServer, TenantQuota
from tests.service.test_frontdoor import PR_PARAMS, catalog_with_gate


def call(base, method, path, body=None):
    request = urllib.request.Request(
        base + path,
        data=None if body is None else json.dumps(body).encode(),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read() or b"{}"), response.headers
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        return exc.code, json.loads(raw) if raw else {}, exc.headers


@pytest.fixture
def service():
    gates = {}
    store = LocalKVStore()
    front_door = FrontDoor(
        store,
        catalog=catalog_with_gate(gates),
        quotas={"small": TenantQuota(max_running=1, max_queued=1)},
        max_concurrent=4,
    )
    with ServiceServer(front_door) as server:
        yield server.url, gates, store
        for gate in gates.values():
            gate.set()
    store.close()


def submit_and_wait(base, body, timeout=60.0):
    code, record, _ = call(base, "POST", "/v1/jobs", body)
    assert code == 202, record
    job_id = record["job_id"]
    cursor, status = 0, record["status"]
    while status not in ("done", "failed", "cancelled"):
        _, payload, _ = call(
            base, "GET", f"/v1/jobs/{job_id}/events?since={cursor}&timeout=5"
        )
        for event in payload["events"]:
            cursor = event["seq"] + 1
            if event["kind"] == "status":
                status = event["data"]["status"]
    return job_id, status


class TestBasics:
    def test_healthz(self, service):
        base, _, _ = service
        assert call(base, "GET", "/healthz")[1] == {"ok": True}

    def test_apps_lists_the_catalog(self, service):
        base, _, _ = service
        _, payload, _ = call(base, "GET", "/v1/apps")
        assert set(payload["apps"]) >= {"pagerank", "sssp", "summa", "kmeans"}

    def test_unknown_route_404(self, service):
        base, _, _ = service
        assert call(base, "GET", "/v1/nope")[0] == 404

    def test_unknown_job_404(self, service):
        base, _, _ = service
        assert call(base, "GET", "/v1/jobs/deadbeef")[0] == 404
        assert call(base, "POST", "/v1/jobs/deadbeef/cancel")[0] == 404

    def test_bad_spec_400(self, service):
        base, _, _ = service
        assert call(base, "POST", "/v1/jobs", {"app": "nope"})[0] == 400
        assert call(base, "POST", "/v1/jobs", {"app": "pagerank", "params": {"x": 1}})[0] == 400

    def test_barrier_free_misuse_400(self, service):
        base, _, _ = service
        sssp = {"n_vertices": 10, "n_edges": 20}
        body = {"app": "sssp", "params": sssp, "engine": {"synchronize": False, "max_steps": 3}}
        code, payload, _ = call(base, "POST", "/v1/jobs", body)
        assert code == 400 and "synchronize" in payload["error"]
        for app, params in (("pagerank", PR_PARAMS), ("kmeans", {"n_points": 8, "k": 2})):
            body = {"app": app, "params": params, "engine": {"synchronize": False}}
            code, payload, _ = call(base, "POST", "/v1/jobs", body)
            assert code == 400 and "needs barriers" in payload["error"]
        # apps that can run barrier-free still accept it
        body = {"app": "sssp", "params": sssp, "engine": {"synchronize": False}}
        assert submit_and_wait(base, body)[1] == "done"

    def test_malformed_json_400(self, service):
        base, _, _ = service
        request = urllib.request.Request(
            base + "/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400


class TestJobs:
    def test_submit_run_result(self, service):
        base, _, _ = service
        job_id, status = submit_and_wait(
            base, {"app": "pagerank", "params": PR_PARAMS}
        )
        assert status == "done"
        code, payload, _ = call(base, "GET", f"/v1/jobs/{job_id}/result")
        assert code == 200
        assert len(payload["result"]["ranks"]) == PR_PARAMS["n_vertices"]
        _, listing, _ = call(base, "GET", "/v1/jobs")
        assert any(j["job_id"] == job_id for j in listing["jobs"])

    def test_result_before_done_409(self, service):
        base, gates, _ = service
        code, record, _ = call(
            base, "POST", "/v1/jobs", {"app": "gate", "params": {"name": "w1"}}
        )
        assert code == 202
        code, _, _ = call(base, "GET", f"/v1/jobs/{record['job_id']}/result")
        assert code == 409
        gates["w1"].set()

    def test_backpressure_429_with_retry_after(self, service):
        base, gates, _ = service
        body = lambda n: {"app": "gate", "tenant": "small", "params": {"name": n}}
        assert call(base, "POST", "/v1/jobs", body("p1"))[0] == 202
        assert call(base, "POST", "/v1/jobs", body("p2"))[0] == 202
        code, payload, headers = call(base, "POST", "/v1/jobs", body("p3"))
        assert code == 429
        assert int(headers["Retry-After"]) >= 1
        # p2 is still queued, so its builder (which makes the gate)
        # hasn't run; pre-seed an already-open gate for it
        gates.setdefault("p2", threading.Event()).set()
        gates["p1"].set()

    def test_cancel_queued_job(self, service):
        base, gates, _ = service
        body = lambda n: {"app": "gate", "tenant": "small", "params": {"name": n}}
        call(base, "POST", "/v1/jobs", body("k1"))
        _, queued, _ = call(base, "POST", "/v1/jobs", body("k2"))
        code, payload, _ = call(base, "POST", f"/v1/jobs/{queued['job_id']}/cancel")
        assert code == 200 and payload["cancelled"] is True
        gates["k1"].set()

    def test_cached_repeat(self, service):
        base, _, _ = service
        submit_and_wait(base, {"app": "pagerank", "params": PR_PARAMS})
        code, record, _ = call(
            base, "POST", "/v1/jobs", {"app": "pagerank", "params": PR_PARAMS}
        )
        assert code == 202
        assert record["status"] == "done" and record["cached"] is True
        _, stats, _ = call(base, "GET", "/v1/cache")
        assert stats["hits"] >= 1


class TestStreaming:
    def test_long_poll_blocks_until_events(self, service):
        base, gates, _ = service
        _, record, _ = call(
            base, "POST", "/v1/jobs", {"app": "gate", "params": {"name": "lp1"}}
        )
        job_id = record["job_id"]
        # drain what exists, then long-poll for the completion events
        _, payload, _ = call(base, "GET", f"/v1/jobs/{job_id}/events?since=0")
        cursor = payload["events"][-1]["seq"] + 1 if payload["events"] else 0
        release = threading.Timer(0.3, gates["lp1"].set)
        release.start()
        try:
            _, payload, _ = call(
                base, "GET", f"/v1/jobs/{job_id}/events?since={cursor}&timeout=20"
            )
            assert payload["events"], "long-poll returned empty despite completion"
        finally:
            release.join()

    def test_sse_stream_ends_at_terminal_status(self, service):
        base, gates, _ = service
        _, record, _ = call(
            base, "POST", "/v1/jobs", {"app": "gate", "params": {"name": "sse1"}}
        )
        job_id = record["job_id"]
        gates["sse1"].set()
        request = urllib.request.Request(f"{base}/v1/jobs/{job_id}/stream?since=0")
        events = []
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            for line in response:
                line = line.decode().strip()
                if line.startswith("data: "):
                    events.append(json.loads(line[len("data: "):]))
        statuses = [
            e["data"]["status"] for e in events if e["kind"] == "status"
        ]
        assert statuses[-1] == "done"
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)

    def test_sse_for_unknown_job_is_404(self, service):
        base, _, _ = service
        assert call(base, "GET", "/v1/jobs/deadbeef/stream")[0] == 404


class TestOps:
    def test_tenants_snapshot(self, service):
        base, gates, _ = service
        call(base, "POST", "/v1/jobs",
             {"app": "gate", "tenant": "small", "params": {"name": "t1"}})
        _, payload, _ = call(base, "GET", "/v1/tenants")
        assert payload["tenants"]["small"]["running"] == 1
        gates["t1"].set()

    def test_metrics_dump(self, service):
        base, _, _ = service
        submit_and_wait(base, {"app": "pagerank", "params": PR_PARAMS})
        _, payload, _ = call(base, "GET", "/v1/metrics")
        assert "service.jobs_submitted{tenant=public}" in payload
        assert "service.queue_depth" in payload
