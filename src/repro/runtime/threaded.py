"""The default parallel runtime: one thread per worker plus a long pool.

Each worker owns a FIFO queue served by a dedicated (lazily started)
thread — the *short lane*, handling request/response table operations
in strict submission order.  Long-running work (enumerations,
collocated mobile code) goes to one shared bounded pool, serialized
one-at-a-time per worker by chaining, so a long enumeration never
blocks the gets and puts of its worker and the paper's "one at a time"
long-op discipline is preserved.

This module is the only place in the codebase allowed to construct a
``ThreadPoolExecutor``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional

from repro.obs.trace import get_tracer
from repro.runtime.api import RuntimeClosedError, WorkerRuntime

_SENTINEL = object()


class _LaneWorker:
    """One worker's serialized short-op lane: a queue plus its thread.

    The queue is a :class:`queue.SimpleQueue` (C-implemented, the same
    structure ``ThreadPoolExecutor`` hands work through) so the
    submit → execute hot path costs one enqueue and one dequeue.
    """

    def __init__(self, runtime: "ThreadedRuntime", index: int):
        self._runtime = runtime
        self.index = index
        self.trace_lane = f"rpc-{index}"
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._start_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._closing = False

    def submit(self, fn: Callable[..., Any], args: tuple) -> Future:
        if self._closing:
            raise RuntimeClosedError(f"runtime {self._runtime.name!r} is closed")
        future: Future = Future()
        # Enqueue timestamp: only stamped when tracing, so the disabled
        # submit path pays one attribute load and no clock read.
        enqueued = time.perf_counter() if get_tracer().enabled else 0.0
        self._queue.put((fn, args, future, enqueued))
        counters = self._runtime._counters[self.index]
        counters.note_queue_depth(self._queue.qsize())
        if self._thread is None:
            with self._start_lock:
                if self._thread is None and not self._closing:
                    self._thread = threading.Thread(
                        target=self._loop,
                        name=f"{self._runtime.name}{self.index}-lane",
                        daemon=True,
                    )
                    self._thread.start()
        return future

    def _run_one(self, item: Any, counters: Any) -> None:
        fn, args, future, enqueued = item
        if not future.set_running_or_notify_cancel():
            return
        tracer = get_tracer()
        started = time.perf_counter()
        span = None
        if tracer.enabled:
            span = tracer.span(
                getattr(fn, "__name__", "task"),
                cat="runtime.rpc",
                lane=self.trace_lane,
                queue_wait_ms=round((started - enqueued) * 1000.0, 3) if enqueued else 0.0,
            )
            span.__enter__()
        try:
            result = fn(*args)
        except BaseException as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)
        if span is not None:
            span.__exit__(None, None, None)
        counters.record_task(time.perf_counter() - started)

    def _loop(self) -> None:
        self._runtime._tls.worker = self.index
        counters = self._runtime._counters[self.index]
        get = self._queue.get
        while True:
            item = get()
            if item is _SENTINEL:
                break
            self._run_one(item, counters)
        # Drain-then-stop: a submit that raced close() may have enqueued
        # behind the sentinel; nothing accepted is ever dropped.
        self._drain(counters)

    def _drain(self, counters: Any) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _SENTINEL:
                self._run_one(item, counters)

    def close(self) -> Optional[threading.Thread]:
        """Stop accepting work; the loop drains the queue before exiting."""
        self._closing = True
        with self._start_lock:
            thread = self._thread
        if thread is not None:
            self._queue.put(_SENTINEL)
        return thread

    def finish_drain(self) -> None:
        """Run any stragglers that raced past close() (caller has joined
        the lane thread, so this is the only consumer left)."""
        previous = getattr(self._runtime._tls, "worker", None)
        self._runtime._tls.worker = self.index
        try:
            self._drain(self._runtime._counters[self.index])
        finally:
            self._runtime._tls.worker = previous


class ThreadedRuntime(WorkerRuntime):
    """Parallelism equivalent to the historical per-store thread pools."""

    kind = "threaded"

    def __init__(self, n_workers: int, name: str = "worker", long_workers: Optional[int] = None):
        super().__init__(n_workers, name=name)
        self._lanes = [_LaneWorker(self, i) for i in range(n_workers)]
        self._long_pool = ThreadPoolExecutor(
            max_workers=long_workers if long_workers is not None else n_workers,
            thread_name_prefix=f"{name}-long",
        )
        # Per-worker tail of the long-op chain: the next long task for a
        # worker is dispatched only when the previous one resolved.
        self._long_tails: Dict[int, Future] = {}
        self._long_lock = threading.Lock()
        self._close_lock = threading.Lock()

    # -- submission --------------------------------------------------------
    def submit(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        return self._lanes[self.worker_of(lane)].submit(fn, args)

    def submit_to_worker(self, worker: int, fn: Callable[..., Any], *args: Any) -> Future:
        return self._lanes[worker].submit(fn, args)

    def submit_long(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        if self._closed:
            raise RuntimeClosedError(f"runtime {self.name!r} is closed")
        worker = self.worker_of(lane)
        outer: Future = Future()

        def _dispatch(_prev: Optional[Future] = None) -> None:
            try:
                self._long_pool.submit(self._run_long, worker, fn, args, outer)
            except RuntimeError as exc:  # pool shut down mid-chain
                if not outer.done():
                    outer.set_exception(RuntimeClosedError(str(exc)))

        with self._long_lock:
            prev = self._long_tails.get(worker)
            self._long_tails[worker] = outer
        if prev is None:
            _dispatch()
        else:
            prev.add_done_callback(_dispatch)
        return outer

    def _run_long(self, worker: int, fn: Callable[..., Any], args: tuple, outer: Future) -> None:
        if not outer.set_running_or_notify_cancel():
            return
        # Pool threads are shared between workers: the marker is
        # per-task, unlike a lane thread's permanent one.  The trace
        # lane follows the same rule — spans the task emits (part-steps,
        # store requests) land on this worker's compute lane.
        self._tls.worker = worker
        tracer = get_tracer()
        pushed = False
        token = None
        if tracer.enabled:
            token = tracer.push_lane(f"worker-{worker}")
            pushed = True
        started = time.perf_counter()
        try:
            result = fn(*args)
        except BaseException as exc:
            outer.set_exception(exc)
        else:
            outer.set_result(result)
        finally:
            if pushed:
                tracer.pop_lane(token)
            self._tls.worker = None
            self._counters[worker].record_long_task(time.perf_counter() - started)

    # -- lifecycle ---------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        threads = [lane.close() for lane in self._lanes]
        if wait:
            for lane, thread in zip(self._lanes, threads):
                if thread is not None:
                    thread.join()
                lane.finish_drain()
            # Join the long chains: every tail future resolves once its
            # chain has run (lane drain above may still have appended).
            with self._long_lock:
                tails = list(self._long_tails.values())
            for tail in tails:
                try:
                    tail.exception()
                except BaseException:
                    pass
        self._long_pool.shutdown(wait=wait)
