"""JobRequest validation, wire round-trip, and fingerprint semantics."""

from __future__ import annotations

import dataclasses

import pytest

from repro.ebsp.properties import EngineOptions
from repro.errors import BadRequestError
from repro.kvstore.local import LocalKVStore
from repro.service import FrontDoor, ServiceServer
from repro.service.spec import ALLOWED_ENGINE_OPTIONS, JobRequest, JobStatus
from tests.service.test_frontdoor import PR_PARAMS
from tests.service.test_server import call


class TestValidation:
    def test_minimal_request_is_valid(self):
        JobRequest(app="pagerank").validate()

    def test_empty_app_rejected(self):
        with pytest.raises(BadRequestError):
            JobRequest(app="").validate()

    @pytest.mark.parametrize("tenant", ["", "a b", "x" * 65, "sla$h"])
    def test_bad_tenant_rejected(self, tenant):
        with pytest.raises(BadRequestError):
            JobRequest(app="a", tenant=tenant).validate()

    @pytest.mark.parametrize("priority", [-1, 1001, 1.5, True])
    def test_bad_priority_rejected(self, priority):
        with pytest.raises(BadRequestError):
            JobRequest(app="a", priority=priority).validate()

    def test_unknown_engine_option_rejected(self):
        with pytest.raises(BadRequestError, match="not allowed"):
            JobRequest(app="a", engine={"failure_injector": "x"}).validate()

    def test_engine_type_mismatch_rejected(self):
        with pytest.raises(BadRequestError):
            JobRequest(app="a", engine={"max_steps": "ten"}).validate()
        with pytest.raises(BadRequestError):
            JobRequest(app="a", engine={"max_steps": True}).validate()

    def test_all_whitelisted_options_accepted(self):
        engine = {
            name: (3 if kind is int else True)
            for name, kind in ALLOWED_ENGINE_OPTIONS.items()
        }
        JobRequest(app="a", engine=engine).validate()

    @pytest.mark.parametrize("option", ["max_steps", "spill_batch", "fault_tolerance"])
    def test_sync_only_option_without_barriers_rejected(self, option):
        engine = {"synchronize": False, option: 3 if option != "fault_tolerance" else True}
        with pytest.raises(BadRequestError, match="need synchronize=true"):
            JobRequest(app="a", engine=engine).validate()
        # the same option with barriers, or unspecified synchronize, is fine
        JobRequest(app="a", engine={**engine, "synchronize": True}).validate()
        del engine["synchronize"]
        JobRequest(app="a", engine=engine).validate()

    @pytest.mark.parametrize(
        "engine, words",
        [
            ({"spill_batch": 0}, "'spill_batch' must be >= 1"),
            ({"max_steps": -1}, "'max_steps' must be >= 0"),
            ({"checkpoint_interval": 2}, "require fault_tolerance=True"),
            ({"synchronize": False, "batch_compute": False}, "need synchronize=true"),
        ],
    )
    def test_values_checked_by_engine_options(self, engine, words):
        with pytest.raises(BadRequestError, match=words):
            JobRequest(app="a", engine=engine).validate()

    def test_options_at_their_defaults_ask_for_nothing(self):
        JobRequest(app="a", engine={"synchronize": False, "fault_tolerance": False}).validate()

    def test_unserializable_params_rejected(self):
        with pytest.raises(BadRequestError):
            JobRequest(app="a", params={"x": object()}).validate()


class TestWire:
    def test_round_trip(self):
        request = JobRequest(
            app="sssp", tenant="team-a", params={"n_vertices": 10, "n_edges": 5},
            engine={"synchronize": False}, priority=7,
        )
        assert JobRequest.from_wire(request.to_wire()) == request

    def test_missing_app_rejected(self):
        with pytest.raises(BadRequestError, match="missing 'app'"):
            JobRequest.from_wire({"tenant": "a"})

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequestError, match="unknown request fields"):
            JobRequest.from_wire({"app": "a", "bogus": 1})

    def test_non_object_rejected(self):
        with pytest.raises(BadRequestError):
            JobRequest.from_wire([1, 2])


class TestFingerprint:
    def test_semantically_equal_specs_agree(self):
        a = JobRequest(app="pr", params={"x": 1, "y": 2})
        b = JobRequest(app="pr", params={"y": 2, "x": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_tenant_and_priority_are_excluded(self):
        a = JobRequest(app="pr", tenant="alice", priority=1, params={"x": 1})
        b = JobRequest(app="pr", tenant="bob", priority=900, params={"x": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_params_and_engine_are_included(self):
        base = JobRequest(app="pr", params={"x": 1})
        assert base.fingerprint() != JobRequest(app="pr", params={"x": 2}).fingerprint()
        assert (
            base.fingerprint()
            != JobRequest(app="pr", params={"x": 1}, engine={"max_steps": 3}).fingerprint()
        )


def test_terminal_statuses():
    assert JobStatus.DONE.terminal
    assert JobStatus.FAILED.terminal
    assert JobStatus.CANCELLED.terminal
    assert not JobStatus.QUEUED.terminal
    assert not JobStatus.ADMITTED.terminal
    assert not JobStatus.RUNNING.terminal


class TestWireDrift:
    """The wire whitelist and the engine's keywords must not drift: a
    whitelisted name the engine no longer takes is accepted with 202
    and then fails the job."""

    def test_whitelisted_options_are_engine_keywords(self):
        fields = {field.name for field in dataclasses.fields(EngineOptions)}
        assert set(ALLOWED_ENGINE_OPTIONS) <= fields

    @pytest.mark.parametrize(
        "option", ["active_scheduling", "compact_spills", "pipelined_transport"]
    )
    def test_removed_switches_refused_over_http(self, option):
        store = LocalKVStore()
        try:
            with ServiceServer(FrontDoor(store)) as server:
                body = {"app": "pagerank", "params": PR_PARAMS, "engine": {option: True}}
                code, payload, _ = call(server.url, "POST", "/v1/jobs", body)
        finally:
            store.close()
        assert code == 400
        assert option in payload["error"]
        for allowed in ALLOWED_ENGINE_OPTIONS:
            assert allowed in payload["error"]
