"""Trace-schema guarantees on real engine runs (both runtimes).

The exported Chrome/Perfetto document must uphold, on the threaded
runtime *and* the inline runtime:

- structural validity (``validate_chrome_trace`` finds nothing);
- one ``worker-<i>`` lane per runtime worker that ran part-steps;
- spans on a lane nest properly, with no negative durations;
- untraced runs attach no trace at all.
"""

from __future__ import annotations

import pytest

from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore
from repro.obs.export import lane_tids, to_chrome_trace, validate_chrome_trace
from repro.obs.trace import RecordingTracer, TraceEvent

from tests.ebsp.jobs import TestJob

N_PARTITIONS = 4


@pytest.fixture(params=["threaded", "inline"])
def store(request):
    instance = PartitionedKVStore(n_partitions=N_PARTITIONS, runtime=request.param)
    yield instance
    instance.close()


def _ripple_job():
    """A few supersteps with messages crossing parts."""

    def fn(ctx):
        for value in ctx.input_messages():
            ctx.write_state(0, value)
            if value < 3:
                ctx.output_message((ctx.key + 1) % 16, value + 1)
        return False

    return TestJob(fn, loaders=[MessageListLoader([(i, 0) for i in range(16)])])


class TestTracedRun:
    def test_sync_trace_is_schema_valid(self, store):
        result = run_job(store, _ripple_job(), synchronize=True, trace=True)
        trace = result.trace
        assert trace is not None
        assert validate_chrome_trace(trace) == []

    def test_worker_lanes_match_runtime_workers(self, store):
        result = run_job(store, _ripple_job(), synchronize=True, trace=True)
        lanes = sorted(result.trace["otherData"]["lanes"].values())
        worker_lanes = [lane for lane in lanes if lane.startswith("worker-")]
        # every runtime worker ran part-steps for its parts: exactly one
        # lane per worker, numbered 0..n-1
        assert worker_lanes == [f"worker-{i}" for i in range(N_PARTITIONS)]
        assert "driver" in lanes

    def test_span_population(self, store):
        result = run_job(store, _ripple_job(), synchronize=True, trace=True)
        spans = [e for e in result.trace["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        # the instrumented layers all contributed
        assert {"job", "superstep", "barrier", "part-step", "commit"} <= names
        supersteps = [e for e in spans if e["name"] == "superstep"]
        assert len(supersteps) == result.steps
        assert all(e["dur"] >= 0 for e in spans)

    def test_async_trace_is_schema_valid(self, store):
        job = TestJob(
            lambda ctx: False,
            loaders=[MessageListLoader([(i, i) for i in range(8)])],
            properties=JobProperties(one_msg=True, no_continue=True, no_ss_order=True),
        )
        result = run_job(store, job, synchronize=False, trace=True)
        assert result.trace is not None
        assert validate_chrome_trace(result.trace) == []
        assert result.trace["otherData"]["engine"] == "no-sync"

    def test_untraced_run_attaches_nothing(self, store):
        result = run_job(store, _ripple_job(), synchronize=True)
        assert result.trace is None
        # metrics flow regardless of tracing
        assert result.metrics["compute_invocations"]["value"] > 0

    def test_phase_split_accounts_time(self, store):
        result = run_job(store, _ripple_job(), synchronize=True, trace=True)
        phases = result.phase_seconds
        assert set(phases) == {"compute", "flush", "barrier_wait"}
        assert all(v >= 0.0 for v in phases.values())
        assert phases["compute"] > 0.0
        # the timeline carries the same split per step
        assert sum(m.compute_seconds for m in result.timeline) == pytest.approx(
            phases["compute"]
        )


class TestExporter:
    def test_lane_ordering(self):
        tids = lane_tids(["rpc-1", "worker-1", "driver", "worker-0", "qs-x-0"])
        ordered = sorted(tids, key=tids.get)
        assert ordered == ["driver", "worker-0", "worker-1", "rpc-1", "qs-x-0"]

    def test_roundtrip_valid(self):
        tracer = RecordingTracer()
        with tracer.span("outer", cat="t"):
            with tracer.span("inner", cat="t"):
                pass
        doc = to_chrome_trace(tracer.events())
        assert validate_chrome_trace(doc) == []

    def test_validator_flags_negative_duration(self):
        doc = to_chrome_trace([])
        doc["traceEvents"].append(
            {"name": "bad", "cat": "t", "ph": "X", "ts": 1.0, "dur": -5.0,
             "pid": 1, "tid": 0}
        )
        assert any("dur" in p for p in validate_chrome_trace(doc))

    def test_validator_flags_overlap(self):
        events = [
            TraceEvent("a", "t", "driver", start=0.0, duration=2.0),
            TraceEvent("b", "t", "driver", start=1.0, duration=2.0),
        ]
        doc = to_chrome_trace(events)
        assert any("without nesting" in p for p in validate_chrome_trace(doc))

    def test_validator_flags_unnamed_lane(self):
        doc = {
            "traceEvents": [
                {"name": "x", "cat": "t", "ph": "X", "ts": 0.0, "dur": 1.0,
                 "pid": 1, "tid": 9}
            ]
        }
        assert any("thread_name" in p for p in validate_chrome_trace(doc))
