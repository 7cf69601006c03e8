"""Concurrent job management (the paper's §VII future work).

The architecture already permits "various styles of analytics in the
same platform and on the same data"; this module adds the management
piece: a :class:`JobScheduler` that accepts jobs against one shared
store, runs them with bounded concurrency, tracks their lifecycle, and
serializes jobs that would contend for the same *mutable* state tables
while letting read-only sharing proceed in parallel (the factored
state-table story of Section II: "running a new analysis need not
involve changing existing data").
"""

from __future__ import annotations

import enum
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.errors import JobError
from repro.ebsp.job import Job
from repro.ebsp.properties import EngineOptions
from repro.ebsp.results import JobResult
from repro.ebsp.runner import run_with_options
from repro.kvstore.api import KVStore
from repro.runtime import RuntimeSpec, resolve_runtime


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class JobHandle:
    """The scheduler's view of one submitted job."""

    job_id: str
    job: Job
    writes: FrozenSet[str]
    reads: FrozenSet[str]
    #: How the job runs, checked at submit.
    options: EngineOptions = field(default_factory=EngineOptions, repr=False)
    state: JobState = JobState.QUEUED
    result: Optional[JobResult] = None
    error: Optional[BaseException] = None
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Invoked (with this handle) on a runtime worker right before the
    #: job starts executing.
    on_start: Optional[Callable[["JobHandle"], None]] = field(default=None, repr=False)
    #: Invoked (with this handle) once the job reaches a terminal state
    #: — SUCCEEDED, FAILED, or CANCELLED.  Runs after ``wait`` unblocks,
    #: on the worker that ran the job (or the cancelling thread).
    on_done: Optional[Callable[["JobHandle"], None]] = field(default=None, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes (or *timeout*); True if done."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self.state in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)


class JobScheduler:
    """Runs jobs over one shared store with bounded concurrency.

    Conflict rule: two jobs may run simultaneously unless one *writes*
    a table the other reads or writes.  By default every state table of
    a job counts as written; pass ``read_only=[...]`` at submit time to
    mark reference tables, unlocking read-sharing.
    """

    def __init__(
        self,
        store: KVStore,
        max_concurrent: int = 2,
        runtime: RuntimeSpec = None,
    ):
        if max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        self._store = store
        # One runtime worker per concurrency slot; a launched job runs on
        # the lane of the slot it claimed, so distinct slots never
        # serialize behind each other.
        self._runtime = resolve_runtime(runtime, n_workers=max_concurrent, name="job")
        self._lock = threading.Lock()
        self._handles: Dict[str, JobHandle] = {}
        self._queue: List[str] = []
        self._running_writes: Dict[str, FrozenSet[str]] = {}
        self._running_reads: Dict[str, FrozenSet[str]] = {}
        self._free_slots: List[int] = list(range(max_concurrent))
        self._closed = False

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        job: Job,
        read_only: Optional[List[str]] = None,
        on_start: Optional[Callable[[JobHandle], None]] = None,
        on_done: Optional[Callable[[JobHandle], None]] = None,
        **engine_kwargs: Any,
    ) -> JobHandle:
        """Queue *job*; returns a handle immediately.

        *on_start* fires right before the job begins executing;
        *on_done* fires once it reaches a terminal state (including
        cancellation).  Callbacks run on scheduler threads and must not
        block; exceptions they raise are swallowed.  Bad *engine_kwargs*
        (:class:`EngineOptions` fields) are refused before anything queues.
        """
        options = EngineOptions(**engine_kwargs)
        tables = set(job.state_table_names())
        reads = frozenset(read_only or []) & tables
        writes = frozenset(tables - reads)
        handle = JobHandle(
            job_id=uuid.uuid4().hex[:12], job=job, writes=writes, reads=reads,
            options=options, on_start=on_start, on_done=on_done,
        )
        with self._lock:
            # checked under the lock: close() cancels the queue under
            # the same lock, so a job can never slip in after the
            # cancellation sweep and hang with no one to run it
            if self._closed:
                raise JobError("scheduler is shut down")
            self._handles[handle.job_id] = handle
            self._queue.append(handle.job_id)
        self._pump()
        return handle

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started; returns whether it was."""
        with self._lock:
            handle = self._handles.get(job_id)
            if handle is None or handle.state is not JobState.QUEUED:
                return False
            self._queue.remove(job_id)
            handle.state = JobState.CANCELLED
            handle.finished_at = time.monotonic()
            handle._done.set()
        self._notify_done(handle)
        return True

    def forget(self, job_id: str) -> bool:
        """Drop a *finished* job's handle from the registry; True if
        dropped.  Queued or running jobs are kept — callers retire
        handles they no longer need so a long-lived scheduler does not
        accumulate one per job ever submitted."""
        with self._lock:
            handle = self._handles.get(job_id)
            if handle is None or not handle.done:
                return False
            del self._handles[job_id]
            return True

    @staticmethod
    def _notify_done(handle: JobHandle) -> None:
        if handle.on_done is not None:
            try:
                handle.on_done(handle)
            except Exception:
                pass

    # -- scheduling core --------------------------------------------------------
    def _conflicts(self, handle: JobHandle) -> bool:
        for writes in self._running_writes.values():
            if writes & (handle.writes | handle.reads):
                return True
        for reads in self._running_reads.values():
            if reads & handle.writes:
                return True
        return False

    def _pump(self) -> None:
        """Launch every queued job that has a free slot and no conflict."""
        to_launch: List[tuple] = []
        with self._lock:
            remaining: List[str] = []
            for job_id in self._queue:
                handle = self._handles[job_id]
                if self._free_slots and not self._conflicts(handle):
                    handle.state = JobState.RUNNING
                    self._running_writes[job_id] = handle.writes
                    self._running_reads[job_id] = handle.reads
                    to_launch.append((handle, self._free_slots.pop(0)))
                else:
                    remaining.append(job_id)
            self._queue = remaining
        for handle, slot in to_launch:
            self._runtime.submit(slot, self._run_one, handle, slot)

    def _run_one(self, handle: JobHandle, slot: int) -> None:
        if handle.on_start is not None:
            try:
                handle.on_start(handle)
            except Exception:
                pass
        try:
            handle.result = run_with_options(self._store, handle.job, handle.options)
            handle.state = JobState.SUCCEEDED
        except BaseException as exc:  # recorded, not raised here
            handle.error = exc
            handle.state = JobState.FAILED
        finally:
            handle.finished_at = time.monotonic()
            with self._lock:
                self._running_writes.pop(handle.job_id, None)
                self._running_reads.pop(handle.job_id, None)
                self._free_slots.append(slot)
            handle._done.set()
            self._notify_done(handle)
            self._pump()

    # -- introspection / lifecycle ---------------------------------------------------
    def handle(self, job_id: str) -> JobHandle:
        with self._lock:
            handle = self._handles.get(job_id)
        if handle is None:
            raise JobError(f"unknown job id {job_id!r}")
        return handle

    def jobs(self) -> List[JobHandle]:
        with self._lock:
            return list(self._handles.values())

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job finishes; True if all did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self.jobs():
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not handle.wait(remaining):
                return False
        return True

    def close(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain-then-stop: stop accepting jobs, cancel the
        queue, wait for running jobs up to *timeout* seconds, release
        the runtime.  Idempotent — later calls are no-ops returning
        whether everything had drained.

        With ``timeout=None`` the drain waits indefinitely (running
        jobs always complete).  With a deadline, jobs still running
        when it expires keep executing on unjoined runtime threads —
        nothing is killed mid-superstep — but ``close`` returns
        ``False`` immediately so a SIGTERM handler can exit.
        """
        cancelled: List[JobHandle] = []
        with self._lock:
            already_closed = self._closed
            self._closed = True
            if not already_closed:
                for job_id in self._queue:
                    handle = self._handles[job_id]
                    handle.state = JobState.CANCELLED
                    handle.finished_at = time.monotonic()
                    handle._done.set()
                    cancelled.append(handle)
                self._queue = []
        for handle in cancelled:
            self._notify_done(handle)
        drained = self.wait_all(timeout)
        self._runtime.close(wait=drained)
        return drained

    def shutdown(self, wait: bool = True) -> None:
        """Historical alias for :meth:`close`.

        Queued jobs are cancelled; jobs already running are allowed to
        complete (the runtime drains its lanes before stopping).  With
        ``wait=False`` the drain still happens but worker threads are
        not joined before returning.
        """
        self.close(timeout=None if wait else 0.0)

    def runtime_stats(self) -> Dict[str, Any]:
        """Per-slot execution counters from the scheduler's runtime."""
        return self._runtime.stats()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
