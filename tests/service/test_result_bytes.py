"""A result is encoded once, at completion and off the front-door lock,
and those bytes are what every GET and every cache hit serves."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.service.frontdoor as frontdoor_module
import repro.service.server as server_module
from repro.kvstore.local import LocalKVStore
from repro.service import (
    FrontDoor,
    JobRequest,
    JobStatus,
    ServiceServer,
    TenantQuota,
    default_catalog,
)
from repro.service.catalog import PreparedJob
from tests.service.test_frontdoor import _GateJob, catalog_with_gate
from tests.service.test_job_tables import SSSP, _job_tables


@pytest.fixture
def store():
    instance = LocalKVStore()
    yield instance
    instance.close()


def get_raw(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def open_gates(*names):
    gates = {}
    for name in names:
        gates[name] = threading.Event()
        gates[name].set()
    return gates


class TestEncodedOnce:
    def test_one_encode_per_job_none_per_get_or_hit(self, store, monkeypatch):
        """Count the encoder's calls on the payload: one when the job
        completes, none for two GETs, a cache hit, or the hit's GET."""
        payloads = []

        def counting(encode):
            def wrapper(value):
                if isinstance(value, dict) and value.get("name") == "x":
                    payloads.append(value)
                return encode(value)
            return wrapper

        monkeypatch.setattr(frontdoor_module, "encode", counting(frontdoor_module.encode))
        monkeypatch.setattr(server_module, "encode", counting(server_module.encode))
        request = {"app": "gate", "params": {"name": "x"}}
        front_door = FrontDoor(store, catalog=catalog_with_gate(open_gates("x")))
        with ServiceServer(front_door) as server:
            first = front_door.submit(JobRequest.from_wire(dict(request, tenant="a")))
            assert first.wait(30) and first.status is JobStatus.DONE, first.error
            assert len(payloads) == 1
            code_1, body_1 = get_raw(server.url, f"/v1/jobs/{first.job_id}/result")
            code_2, body_2 = get_raw(server.url, f"/v1/jobs/{first.job_id}/result")
            hit = front_door.submit(JobRequest.from_wire(dict(request, tenant="b")))
            assert hit.status is JobStatus.DONE and hit.cached
            code_3, body_3 = get_raw(server.url, f"/v1/jobs/{hit.job_id}/result")
        assert len(payloads) == 1
        assert code_1 == code_2 == code_3 == 200
        assert body_1 == body_2
        key = b'"result": '
        assert body_1[body_1.index(key):] == body_3[body_3.index(key):]
        # the hit shares the stored bytes object; nothing was copied
        assert hit.result_json is first.result_json
        assert body_1 == (
            b'{"cached": false, "job_id": "' + first.job_id.encode()
            + b'", "result": ' + first.result_json + b"}"
        )
        assert json.loads(body_3) == {
            "cached": True, "job_id": hit.job_id, "result": {"name": "x", "steps": 1}
        }


def catalog_with_slow_collect(entered: threading.Event, release: threading.Event):
    """The gate catalog plus an app whose ``collect`` blocks until
    *release* is set, having set *entered*."""
    catalog = catalog_with_gate(open_gates("warm"))

    def build(store, request):
        def collect(store, result):
            entered.set()
            assert release.wait(30), "test forgot to release collect"
            return {"slow": True}

        return PreparedJob(
            job=_GateJob("slow_state", open_gates("run")["run"]),
            engine_kwargs={"synchronize": True},
            collect=collect,
        )

    catalog.register("slow", build, required={}, optional={})
    return catalog


@pytest.mark.parametrize("blocked", ["collect", "encode"])
def test_collect_and_encode_run_off_the_lock(store, monkeypatch, blocked):
    """While one job's collect (or encode) is stuck, another tenant's
    cache-hit submit still returns at once."""
    entered, release = threading.Event(), threading.Event()
    if blocked == "collect":
        catalog = catalog_with_slow_collect(entered, release)
    else:
        catalog = catalog_with_slow_collect(threading.Event(), open_gates("r")["r"])
        encode = frontdoor_module.encode

        def slow_encode(value):
            if value == {"slow": True}:
                entered.set()
                assert release.wait(30), "test forgot to release encode"
            return encode(value)

        monkeypatch.setattr(frontdoor_module, "encode", slow_encode)
    warm = JobRequest(app="gate", params={"name": "warm"}, tenant="b")
    with FrontDoor(store, catalog=catalog) as fd:
        assert fd.submit(warm).wait(30)
        slow = fd.submit(JobRequest(app="slow", tenant="a"))
        assert entered.wait(30)
        assert slow.status is JobStatus.RUNNING  # not DONE until the bytes exist
        returned = []
        submitter = threading.Thread(target=lambda: returned.append(fd.submit(warm)))
        submitter.start()
        submitter.join(10)
        stuck = submitter.is_alive()
        release.set()
        submitter.join(30)
        assert not stuck, f"a cache-hit submit waited behind a blocked {blocked}"
        assert returned[0].status is JobStatus.DONE and returned[0].cached
        assert slow.wait(30) and slow.status is JobStatus.DONE
        assert slow.payload == {"slow": True}


def test_unencodable_payload_fails_the_job(store):
    """A payload JSON cannot hold (here a set) fails its job at
    completion: FAILED with the error, scratch tables dropped, the
    admission slot released, and the result route a clean 409."""
    catalog = default_catalog()
    base = default_catalog()

    def returns_a_set(store, request):
        prepared = base.prepare(store, JobRequest(app="sssp", params=request.params))
        prepared.collect = lambda store, result: {1, 2, 3}  # leaves its scratch table
        return prepared

    params = {**SSSP, "source": 5}
    catalog.register("setty", returns_a_set, required={}, optional=dict.fromkeys(params, int))
    front_door = FrontDoor(
        store, catalog=catalog, quotas={"t": TenantQuota(max_running=1, max_queued=4)}
    )
    with ServiceServer(front_door) as server:
        record = front_door.submit(JobRequest(app="setty", params=params, tenant="t"))
        assert record.wait(60) and record.status is JobStatus.FAILED
        assert record.error.startswith("TypeError") and "set" in record.error
        assert record.result_json is None and record.payload is None
        assert _job_tables(store) == []
        assert front_door.tenants()["t"]["running"] == 0
        code, body = get_raw(server.url, f"/v1/jobs/{record.job_id}/result")
        assert code == 409 and "TypeError" in json.loads(body)["error"]
        # the released slot runs the tenant's next job
        after = front_door.submit(JobRequest(app="sssp", params=params, tenant="t"))
        assert after.wait(60) and after.status is JobStatus.DONE, after.error
