"""The deterministic single-threaded runtime.

The "parallel debugging store" idea promoted to a first-class execution
mode: every lane and long task executes immediately on the *calling*
thread, with the worker marker set for its duration, and returns an
already-resolved future.  Cross-worker marshalling, placement, FIFO
ordering, and instrumentation all behave exactly like the threaded
runtime — but execution order is the submission order of a single
thread, so failures reproduce deterministically and a debugger walks
straight through store internals.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Any, Callable

from repro.obs.trace import get_tracer
from repro.runtime.api import RuntimeClosedError, WorkerRuntime, finished_future


class InlineRuntime(WorkerRuntime):
    """Single-threaded deterministic execution with simulated workers."""

    kind = "inline"

    def _run_on_worker(self, worker: int, fn: Callable[..., Any], args: tuple) -> Future:
        if self._closed:
            raise RuntimeClosedError(f"runtime {self.name!r} is closed")
        tls = self._tls
        previous = getattr(tls, "worker", None)
        tls.worker = worker
        tracer = get_tracer()
        span = None
        token = None
        if tracer.enabled:
            # No separate rpc threads here: short and long tasks share
            # the worker's single compute lane.
            token = tracer.push_lane(f"worker-{worker}")
            span = tracer.span(getattr(fn, "__name__", "task"), cat="runtime.task")
            span.__enter__()
        started = time.perf_counter()
        try:
            result = fn(*args)
        except BaseException as exc:
            return finished_future(exception=exc)
        else:
            return finished_future(result)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
                tracer.pop_lane(token)
            tls.worker = previous
            self._counters[worker].record_task(time.perf_counter() - started)

    def submit(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        return self._run_on_worker(self.worker_of(lane), fn, args)

    def submit_long(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        # Immediate execution trivially satisfies one-at-a-time per worker.
        return self._run_on_worker(self.worker_of(lane), fn, args)

    def submit_to_worker(self, worker: int, fn: Callable[..., Any], *args: Any) -> Future:
        return self._run_on_worker(worker, fn, args)

    def close(self, wait: bool = True) -> None:
        self._closed = True
