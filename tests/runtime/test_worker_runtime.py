"""The WorkerRuntime contract, pinned for all three implementations.

These tests are the executable form of the SPI documented in
``repro/runtime/api.py``: placement, per-worker FIFO, long-op
serialization, drain-then-stop shutdown, and the
instrumentation counters.

The process runtime participates through its fallback surface here
(these tasks are closures, which never ship); its process-specific
behaviour — shipped execution, part residency, child lifecycle — is
pinned in ``test_process_runtime.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import (
    InlineRuntime,
    ProcessRuntime,
    RuntimeClosedError,
    ThreadedRuntime,
    WorkerRuntime,
    resolve_runtime,
    stats_delta,
)

RUNTIME_KINDS = ["threaded", "inline", "process"]


def make_runtime(kind: str, n_workers: int = 4) -> WorkerRuntime:
    if kind == "threaded":
        return ThreadedRuntime(n_workers, name="t")
    if kind == "process":
        return ProcessRuntime(n_workers, name="t")
    return InlineRuntime(n_workers, name="t")


@pytest.fixture(params=RUNTIME_KINDS)
def runtime(request):
    instance = make_runtime(request.param)
    yield instance
    instance.close()


class TestPlacement:
    def test_worker_of_is_modulo(self, runtime):
        assert [runtime.worker_of(lane) for lane in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_task_sees_its_worker_marker(self, runtime):
        assert runtime.submit(6, runtime.current_worker).result() == 2
        assert runtime.submit_long(6, runtime.current_worker).result() == 2

    def test_client_thread_is_on_no_worker(self, runtime):
        assert runtime.current_worker() is None

    def test_markers_are_per_instance(self, runtime):
        other = make_runtime("inline", n_workers=4)
        try:
            seen = runtime.submit(1, other.current_worker).result()
            assert seen is None
        finally:
            other.close()

    def test_submit_to_worker_bypasses_placement(self, runtime):
        # direct addressing names the worker, not a lane mapped onto one
        seen = [runtime.submit_to_worker(w, runtime.current_worker).result() for w in range(4)]
        assert seen == [0, 1, 2, 3]


class TestOrdering:
    def test_fifo_per_worker(self, runtime):
        order = []
        futures = [runtime.submit(0, order.append, i) for i in range(50)]
        for future in futures:
            future.result()
        assert order == list(range(50))

    def test_submit_to_worker_runs_after_queued_tasks(self, runtime):
        # direct addressing is FIFO with the worker's short lane: a
        # table drop's eviction reaches a part after the writes queued
        # on it before the drop
        applied = []
        for i in range(10):
            runtime.submit(0, applied.append, i)
        runtime.submit_to_worker(runtime.worker_of(0), applied.append, "last").result()
        assert applied == list(range(10)) + ["last"]

    def test_long_ops_serialize_per_worker(self, runtime):
        active = []
        overlap = []

        def task(i):
            active.append(i)
            if len(active) > 1:
                overlap.append(tuple(active))
            time.sleep(0.005)
            active.remove(i)
            return i

        futures = [runtime.submit_long(1, task, i) for i in range(5)]
        assert [f.result() for f in futures] == list(range(5))
        assert overlap == []

    def test_long_op_does_not_block_short_lane(self):
        runtime = ThreadedRuntime(2, name="t")
        try:
            release = threading.Event()
            long_future = runtime.submit_long(0, release.wait, 5)
            short_future = runtime.submit(0, lambda: "quick")
            assert short_future.result(timeout=2) == "quick"
            assert not long_future.done()
            release.set()
            assert long_future.result(timeout=2) is True
        finally:
            runtime.close()

    def test_exceptions_flow_through_futures(self, runtime):
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            runtime.submit(0, boom).result()
        with pytest.raises(ValueError):
            runtime.submit_long(0, boom).result()
        # the runtime survives task failures
        assert runtime.submit(0, lambda: "ok").result() == "ok"


class TestLifecycle:
    @pytest.mark.parametrize("kind", RUNTIME_KINDS)
    def test_close_is_idempotent(self, kind):
        runtime = make_runtime(kind)
        runtime.close()
        runtime.close()
        assert runtime.closed

    @pytest.mark.parametrize("kind", RUNTIME_KINDS)
    def test_submit_after_close_raises(self, kind):
        runtime = make_runtime(kind)
        runtime.close()
        with pytest.raises(RuntimeClosedError):
            runtime.submit(0, lambda: None)
        with pytest.raises(RuntimeClosedError):
            runtime.submit_long(0, lambda: None)

    def test_close_drains_pending_work(self):
        """Nothing submitted before close may be dropped (the lossy-close
        bug this layer was built to remove)."""
        runtime = ThreadedRuntime(2, name="t")
        done = []
        futures = [
            runtime.submit(i % 2, lambda i=i: done.append(i)) for i in range(200)
        ]
        runtime.close(wait=True)
        assert all(f.done() for f in futures)
        assert sorted(done) == list(range(200))

    def test_close_drains_long_chain(self):
        runtime = ThreadedRuntime(2, name="t")
        done = []
        futures = [runtime.submit_long(0, lambda i=i: done.append(i)) for i in range(20)]
        runtime.close(wait=True)
        assert all(f.done() for f in futures)
        assert done == list(range(20))

    @pytest.mark.parametrize("kind", RUNTIME_KINDS)
    def test_context_manager_closes(self, kind):
        with make_runtime(kind) as runtime:
            runtime.submit(0, lambda: None).result()
        assert runtime.closed


class TestStats:
    def test_counters_accumulate(self, runtime):
        for lane in range(8):
            runtime.submit(lane, lambda: None).result()
        runtime.submit_long(0, lambda: None).result()
        runtime.record_steal(3)
        stats = runtime.stats()
        assert stats["runtime"] == runtime.kind
        assert stats["n_workers"] == 4
        assert stats["tasks"] == 9
        assert "gang_tasks" not in stats
        assert stats["steals"] == 1
        per_worker = {w["worker"]: w["tasks"] for w in stats["workers"]}
        assert per_worker == {0: 3, 1: 2, 2: 2, 3: 2}
        assert stats["workers"][3]["steals"] == 1

    def test_stats_delta(self, runtime):
        runtime.submit(0, lambda: None).result()
        before = runtime.stats()
        runtime.submit(0, lambda: None).result()
        runtime.submit(1, lambda: None).result()
        delta = stats_delta(before, runtime.stats())
        assert delta["tasks"] == 2
        assert {w["worker"]: w["tasks"] for w in delta["workers"]} == {
            0: 1,
            1: 1,
            2: 0,
            3: 0,
        }

    def test_queue_depth_high_water_mark(self):
        runtime = ThreadedRuntime(1, name="t")
        try:
            release = threading.Event()
            futures = [runtime.submit(0, release.wait, 5)]
            futures += [runtime.submit(0, lambda: None) for _ in range(9)]
            release.set()
            for future in futures:
                future.result(timeout=5)
            depth = runtime.stats()["workers"][0]["max_queue_depth"]
            assert depth >= 2
        finally:
            runtime.close()

    def test_stats_delta_queue_depth_is_per_window(self):
        """Regression: a job's delta must report the depth reached during
        the job, not the runtime's lifetime high-water mark."""
        runtime = ThreadedRuntime(1, name="t")
        try:
            # build a lifetime HWM well above anything the "job" does
            release = threading.Event()
            futures = [runtime.submit(0, release.wait, 5)]
            futures += [runtime.submit(0, lambda: None) for _ in range(9)]
            release.set()
            for future in futures:
                future.result(timeout=5)
            assert runtime.stats()["workers"][0]["max_queue_depth"] >= 2

            # the "job": one baseline-scoped window with light traffic
            runtime.begin_stats_window()
            before = runtime.stats()
            runtime.submit(0, lambda: None).result(timeout=5)
            delta = stats_delta(before, runtime.stats())
            assert delta["workers"][0]["max_queue_depth"] <= 1
            # the lifetime mark is untouched by the window reset
            assert runtime.stats()["workers"][0]["max_queue_depth"] >= 2
        finally:
            runtime.close()


class TestInlineDeterminism:
    def test_execution_is_immediate_and_ordered(self):
        runtime = InlineRuntime(4, name="t")
        order = []
        runtime.submit(2, order.append, "a")
        order.append("b")
        runtime.submit_long(1, order.append, "c")
        assert order == ["a", "b", "c"]
        runtime.close()

    def test_nested_markers_restore(self):
        runtime = InlineRuntime(4, name="t")

        def outer():
            inner_seen = runtime.submit(3, runtime.current_worker).result()
            return inner_seen, runtime.current_worker()

        inner_seen, after_inner = runtime.submit(1, outer).result()
        assert inner_seen == 3
        assert after_inner == 1
        assert runtime.current_worker() is None
        runtime.close()


class TestResolveRuntime:
    def test_default_and_names(self):
        threaded = resolve_runtime(None, 4)
        inline = resolve_runtime("inline", 4)
        try:
            assert isinstance(threaded, ThreadedRuntime)
            assert isinstance(inline, InlineRuntime)
        finally:
            threaded.close()
            inline.close()

    def test_instance_passthrough_checks_width(self):
        runtime = InlineRuntime(4)
        try:
            assert resolve_runtime(runtime, 4) is runtime
            with pytest.raises(ValueError):
                resolve_runtime(runtime, 8)
        finally:
            runtime.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_runtime("fibers", 4)
