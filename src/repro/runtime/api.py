"""The worker-runtime SPI: one executor/placement/lifecycle substrate.

The paper's architectural claim (Section III) is a *narrow SPI to one
fundamental storage + compute + communication layer*.  Everything in
that layer that is about execution resources — worker threads, the
part→worker placement map, task serialization, lifecycle, and
instrumentation — lives here, behind :class:`WorkerRuntime`.  The
stores, the queue sets, and both EBSP engines execute *through* a
runtime instead of owning private thread pools, so placement,
concurrency, and shutdown are decided in exactly one place.

Concepts
--------

Workers
    A runtime has a fixed number of *workers*, indexed ``0..n-1``.  A
    worker models one emulated machine/partition/shard.  Threaded
    runtimes give each worker a real thread; the inline runtime only
    simulates workers on the calling thread.

Lanes and placement
    Work is submitted to an integer *lane*.  The runtime owns the
    placement map ``worker_of(lane) = lane % n_workers`` — the same
    round-robin rule the stores use for part→partition assignment, now
    stated once.  All tasks submitted to lanes of one worker via
    :meth:`WorkerRuntime.submit` execute in FIFO submission order on
    that worker, which is the per-(sender, receiver) ordering guarantee
    the spill transport and the no-sync engine rely on.

Short vs. long tasks
    :meth:`WorkerRuntime.submit` is for short request/response
    operations (get/put/delete); :meth:`WorkerRuntime.submit_long` is
    for long-running work (enumerations, collocated mobile code).  Long
    tasks run on a shared bounded pool, serialized one-at-a-time per
    worker (the paper's "one at a time" long-op thread), and never
    block a worker's short lane.

Gangs
    :meth:`WorkerRuntime.run_tasks` dispatches a gang of long-lived
    cooperating tasks (queue-set workers) on dedicated threads and
    joins them.  Gang tasks may block on each other's messages, so they
    always get real threads — even under the inline runtime, whose
    determinism applies to lane and long-op execution.

Lifecycle
    :meth:`WorkerRuntime.close` is drain-then-stop: no new work is
    accepted, everything already submitted runs to completion, worker
    threads exit, and the call is idempotent.  Nothing in flight is
    dropped — closing a store can no longer lose ``put_async`` writes.

Instrumentation
    Every runtime keeps per-worker counters — tasks run, busy time,
    queue-depth high-water mark, steal count — surfaced by
    :meth:`WorkerRuntime.stats`, carried into ``JobResult`` by the
    engines and printed by ``inspect --stats``.
"""

from __future__ import annotations

import abc
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.obs.trace import get_tracer


class RuntimeClosedError(RuntimeError):
    """Raised when work is submitted to a closed runtime."""


def finished_future(result: Any = None, exception: Optional[BaseException] = None) -> Future:
    """An already-resolved :class:`Future` (the inline runtime's currency)."""
    future: Future = Future()
    if exception is not None:
        future.set_exception(exception)
    else:
        future.set_result(result)
    return future


class _WorkerCounters:
    """Per-worker instrumentation kept off the hot path.

    Single-writer discipline instead of a lock: ``tasks``/``busy_seconds``
    are written only by the worker's lane thread, ``long_tasks``/
    ``long_busy_seconds`` only by the (per-worker serialized) long-op
    chain.  ``max_queue_depth`` is a best-effort high-water mark updated
    by submitters; ``steals`` can have concurrent writers (gang threads
    sharing a worker) and keeps a lock — steals are rare, submits are not.
    """

    __slots__ = (
        "index",
        "_steal_lock",
        "tasks",
        "busy_seconds",
        "long_tasks",
        "long_busy_seconds",
        "max_queue_depth",
        "window_max_queue_depth",
        "steals",
    )

    def __init__(self, index: int):
        self.index = index
        self._steal_lock = threading.Lock()
        self.tasks = 0
        self.busy_seconds = 0.0
        self.long_tasks = 0
        self.long_busy_seconds = 0.0
        self.max_queue_depth = 0
        self.window_max_queue_depth = 0
        self.steals = 0

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if depth > self.window_max_queue_depth:
            self.window_max_queue_depth = depth

    def record_task(self, seconds: float) -> None:
        self.tasks += 1
        self.busy_seconds += seconds

    def record_long_task(self, seconds: float) -> None:
        self.long_tasks += 1
        self.long_busy_seconds += seconds

    def record_steal(self) -> None:
        with self._steal_lock:
            self.steals += 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "worker": self.index,
            "tasks": self.tasks + self.long_tasks,
            "busy_seconds": self.busy_seconds + self.long_busy_seconds,
            "max_queue_depth": self.max_queue_depth,
            "window_max_queue_depth": self.window_max_queue_depth,
            "steals": self.steals,
        }


class WorkerRuntime(abc.ABC):
    """Execution substrate: workers, placement, lanes, lifecycle, stats."""

    #: Short identifier ("threaded", "inline", "process") reported in stats.
    kind: str = "abstract"

    #: Whether workers share the client's address space.  Stores use
    #: this to decide between direct part access (threads) and
    #: resident-part handles (processes).
    shares_memory: bool = True

    def __init__(self, n_workers: int, name: str = "worker"):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self._n_workers = n_workers
        self.name = name
        # Thread-local "which worker am I on" marker, scoped to this
        # runtime instance so nested runtimes (a scheduler's runtime
        # driving a store's runtime) cannot confuse each other.
        self._tls = threading.local()
        self._counters = [_WorkerCounters(i) for i in range(n_workers)]
        self._gang_lock = threading.Lock()
        self._gang_tasks = 0
        self._gang_busy_seconds = 0.0
        self._closed = False

    # -- placement ---------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self._n_workers

    def worker_of(self, lane: int) -> int:
        """The placement map: which worker serves *lane*."""
        return lane % self._n_workers

    def current_worker(self) -> Optional[int]:
        """Index of the worker whose task is executing on this thread."""
        return getattr(self._tls, "worker", None)

    # -- submission --------------------------------------------------------
    @abc.abstractmethod
    def submit(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)`` on *lane*'s worker; FIFO per worker."""

    @abc.abstractmethod
    def submit_long(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        """Run a long task near *lane*'s worker; one at a time per worker."""

    @abc.abstractmethod
    def submit_to_worker(self, worker: int, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)`` on a specific *worker*, bypassing placement.

        Addresses the physical worker directly, FIFO with its short
        lane: how a store reaches every started worker (to evict a
        dropped table's resident parts).
        """

    def run_tasks(self, fns: Sequence[Callable[[], Any]], label: str = "gang") -> List[Any]:
        """Run a gang of cooperating tasks on dedicated threads; gather.

        Results are returned in task order.  If any task raised, the
        first (by index) exception is re-raised after every thread has
        been joined — so a failing gang never leaks threads.
        """
        if self._closed:
            raise RuntimeClosedError(f"runtime {self.name!r} is closed")
        slots: List[Any] = [None] * len(fns)
        errors: List[Optional[BaseException]] = [None] * len(fns)

        def _run(index: int, fn: Callable[[], Any]) -> None:
            # Each gang task owns its thread for its whole life, so its
            # lane (e.g. "qs-updates-3") is pushed once and never shared.
            tracer = get_tracer()
            token = None
            pushed = False
            if tracer.enabled:
                token = tracer.push_lane(f"{label}-{index}")
                pushed = True
            started = time.perf_counter()
            try:
                slots[index] = fn()
            except BaseException as exc:  # gathered and re-raised below
                errors[index] = exc
            finally:
                if pushed:
                    tracer.pop_lane(token)
                with self._gang_lock:
                    self._gang_tasks += 1
                    self._gang_busy_seconds += time.perf_counter() - started

        threads = [
            threading.Thread(
                target=_run, args=(i, fn), name=f"{self.name}-{label}-{i}"
            )
            for i, fn in enumerate(fns)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for error in errors:
            if error is not None:
                raise error
        return slots

    # -- instrumentation ---------------------------------------------------
    def record_steal(self, lane: int) -> None:
        """Count one stolen task against *lane*'s worker."""
        self._counters[self.worker_of(lane)].record_steal()

    def begin_stats_window(self) -> None:
        """Reset the per-window high-water marks (``window_max_queue_depth``).

        Engines call this when they take their baseline snapshot, so a
        job's ``stats_delta`` reports the depth reached *during* the job
        rather than the runtime's lifetime high-water mark.
        """
        for counters in self._counters:
            counters.window_max_queue_depth = 0

    def stats(self) -> Dict[str, Any]:
        """Snapshot of all runtime counters (per worker and aggregate)."""
        workers = [counters.snapshot() for counters in self._counters]
        with self._gang_lock:
            gang_tasks = self._gang_tasks
            gang_busy = self._gang_busy_seconds
        return {
            "runtime": self.kind,
            "n_workers": self._n_workers,
            "tasks": sum(w["tasks"] for w in workers),
            "busy_seconds": sum(w["busy_seconds"] for w in workers),
            "steals": sum(w["steals"] for w in workers),
            "gang_tasks": gang_tasks,
            "gang_busy_seconds": gang_busy,
            "workers": workers,
        }

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @abc.abstractmethod
    def close(self, wait: bool = True) -> None:
        """Drain-then-stop: run everything submitted, then stop workers.

        Idempotent.  With ``wait=False`` the drain still happens — no
        queued task is dropped — but worker threads are not joined
        before returning.
        """

    def __enter__(self) -> "WorkerRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-counter difference of two :meth:`WorkerRuntime.stats` snapshots.

    Monotone counters subtract.  ``max_queue_depth`` is a high-water
    mark, which has no meaningful difference — the delta reports the
    *window* maximum (reset by :meth:`WorkerRuntime.begin_stats_window`
    when the baseline was taken), so a job sees the depth reached during
    its own run, not the runtime's lifetime mark.
    """
    delta: Dict[str, Any] = {
        "runtime": after.get("runtime"),
        "n_workers": after.get("n_workers"),
    }
    for key in ("tasks", "busy_seconds", "steals", "gang_tasks", "gang_busy_seconds"):
        delta[key] = after.get(key, 0) - before.get(key, 0)
    # Crash-tolerance counters exist only on runtimes that respawn
    # workers; pass them through as deltas (and the degraded set as-is —
    # degradation is one-way, so the *after* membership is the fact).
    for key in ("respawns", "worker_timeouts"):
        if key in after:
            delta[key] = after.get(key, 0) - before.get(key, 0)
    if "degraded" in after:
        delta["degraded"] = list(after["degraded"])
    before_workers = {w["worker"]: w for w in before.get("workers", [])}
    workers = []
    for w in after.get("workers", []):
        b = before_workers.get(w["worker"], {})
        entry = {
            "worker": w["worker"],
            "tasks": w["tasks"] - b.get("tasks", 0),
            "busy_seconds": w["busy_seconds"] - b.get("busy_seconds", 0.0),
            "max_queue_depth": w.get("window_max_queue_depth", w["max_queue_depth"]),
            "steals": w["steals"] - b.get("steals", 0),
        }
        if "pid" in w:
            entry["pid"] = w["pid"]
        workers.append(entry)
    delta["workers"] = workers
    # Identity facts (which backend, which worker→pid map) pass through
    # so A/B artifacts built from deltas stay self-describing.
    if "pids" in after:
        delta["pids"] = after["pids"]
    return delta


#: A runtime selector: an instance, a registered name, or None (default).
RuntimeSpec = Union["WorkerRuntime", str, None]


def resolve_runtime(
    runtime: RuntimeSpec, n_workers: int, name: str = "worker", default: str = "threaded"
) -> "WorkerRuntime":
    """Build (or validate) a runtime from a construction-time selector.

    ``None`` defers to the ``RIPPLE_RUNTIME`` environment variable and
    then *default*; ``"threaded"``/``"inline"``/``"process"`` construct
    that implementation with *n_workers* workers; a
    :class:`WorkerRuntime` instance is used as-is, provided its worker
    count matches the placement the caller needs.
    """
    import os

    from repro.runtime.inline import InlineRuntime
    from repro.runtime.process import ProcessRuntime
    from repro.runtime.threaded import ThreadedRuntime

    if runtime is None:
        runtime = os.environ.get("RIPPLE_RUNTIME") or default
    if isinstance(runtime, WorkerRuntime):
        if runtime.n_workers != n_workers:
            raise ValueError(
                f"runtime has {runtime.n_workers} workers but {n_workers} are "
                "required by the store's partitioning"
            )
        return runtime
    if runtime == "threaded":
        return ThreadedRuntime(n_workers, name=name)
    if runtime == "inline":
        return InlineRuntime(n_workers, name=name)
    if runtime == "process":
        return ProcessRuntime(n_workers, name=name)
    raise ValueError(
        f"unknown runtime {runtime!r} (expected 'threaded', 'inline', or 'process')"
    )
