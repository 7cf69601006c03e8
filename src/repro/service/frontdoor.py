"""The front door: one object tying spec, admission, cache, progress,
and the scheduler into a multi-tenant job service.

Lifecycle of a submission::

    submit ── cache hit ──────────────────────────────► DONE (cached)
       │
       └─ admission ─ reject ─► QuotaExceededError (429 + retry-after)
              │
              ├─ run now ─► ADMITTED ─► RUNNING ─► DONE / FAILED
              └─ queued  ─► QUEUED ──(drain on any completion)──► ...

Preparation (input generation, table seeding) is deferred until after
the cache lookup misses *and* admission lets the job through, so a hit
costs no table work.  A prepared job reads immutable input tables and
writes only its own scratch tables (see :mod:`repro.service.catalog`):
the inputs are handed to the scheduler as read-only, so jobs over one
input run side by side, and a job's scratch tables are dropped on every
path that does not reach ``collect`` (failure, cancellation, a submit
error).  Since no job writes an input, completing a job leaves every
cached result over the same input valid.

A finished job's payload is collected and encoded to JSON bytes once,
on the scheduler's completion thread and outside the front door's
lock (see :mod:`repro.service.wire`).  Those bytes are the only stored
form of a result: the record and the cache hold them, a cache hit
reuses the cached bytes object, and ``GET …/result`` writes them as
they are.  A payload that cannot be encoded fails its job.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import asdict
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ServiceError, UnknownServiceJobError
from repro.ebsp.scheduler import JobHandle, JobScheduler, JobState
from repro.kvstore.api import KVStore
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RuntimeSpec
from repro.service.admission import AdmissionController, TenantQuota
from repro.service.cache import ResultCache
from repro.service.catalog import AppCatalog, PreparedJob, default_catalog
from repro.service.progress import ProgressBoard, ServiceJob
from repro.service.spec import JobRequest, JobStatus
from repro.service.wire import encode


class FrontDoor:
    """A multi-tenant job service over one store and one scheduler."""

    def __init__(
        self,
        store: KVStore,
        *,
        scheduler: Optional[JobScheduler] = None,
        catalog: Optional[AppCatalog] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: TenantQuota = TenantQuota(),
        max_queue_depth: int = 64,
        cache_capacity: int = 128,
        max_concurrent: int = 2,
        runtime: RuntimeSpec = None,
        metrics: Optional[MetricsRegistry] = None,
        retain_jobs: int = 256,
    ):
        if retain_jobs <= 0:
            raise ValueError("retain_jobs must be positive")
        self._store = store
        self._own_scheduler = scheduler is None
        self._scheduler = scheduler or JobScheduler(
            store, max_concurrent=max_concurrent, runtime=runtime
        )
        self._catalog = catalog or default_catalog()
        self._admission = AdmissionController(
            quotas=quotas, default_quota=default_quota, max_queue_depth=max_queue_depth
        )
        self._cache = ResultCache(cache_capacity)
        self.board = ProgressBoard()
        self._metrics = metrics or MetricsRegistry()
        # Reentrant: completion callbacks land on scheduler workers and
        # re-enter to drain the admission queue.
        self._lock = threading.RLock()
        self._jobs: Dict[str, ServiceJob] = {}
        self._prepared: Dict[str, PreparedJob] = {}
        #: Terminal job ids, oldest first; beyond ``retain_jobs`` their
        #: records, event logs, and scheduler handles are evicted.
        self._retain_jobs = retain_jobs
        self._terminal: Deque[str] = deque()
        self._draining = False
        self._drain_pending = False
        self._closed = False
        self._metrics.gauge_fn(
            "service.queue_depth", lambda: self._admission.queue_depth(), unit="jobs"
        )

    # -- submission ---------------------------------------------------------------
    def submit(self, request: JobRequest) -> ServiceJob:
        """Validate, consult the cache, pass admission, maybe dispatch.

        Raises :class:`~repro.errors.BadRequestError` for a bad spec
        and :class:`~repro.errors.QuotaExceededError` on backpressure;
        otherwise always returns a record (possibly already DONE, for
        a cache hit).
        """
        request.validate()
        self._catalog.validate(request)  # unknown app / bad params → 400, not async failure
        tenant = request.tenant
        fingerprint = request.fingerprint()
        with self._lock:
            if self._closed:
                raise ServiceError("front door is shut down")
            self._counter("service.jobs_submitted", tenant).add()
            record = ServiceJob(
                job_id=uuid.uuid4().hex[:12], request=request, fingerprint=fingerprint
            )
            self._jobs[record.job_id] = record

            cached = self._cache.lookup(self._store, fingerprint)
            if cached is not None:
                self._counter("service.cache_hits", tenant).add()
                record.cached = True
                record.result_json = cached
                record.finished_at = time.time()
                self._transition(record, JobStatus.DONE, cached=True)
                self._retire(record)
                return record
            self._counter("service.cache_misses", tenant).add()

            try:
                run_now = self._admission.offer(record.job_id, tenant, request.priority)
            except ServiceError:
                self._counter("service.jobs_rejected", tenant).add()
                del self._jobs[record.job_id]
                raise
            self._transition(record, JobStatus.QUEUED)
            if run_now:
                self._dispatch(record)
            else:
                # a submission may be queued only because others are
                # queued ahead of it; give the queue a chance to move
                self._drain()
        return record

    def _counter(self, name: str, tenant: str):
        return self._metrics.counter(MetricsRegistry.labeled(name, tenant=tenant))

    def _transition(self, record: ServiceJob, status: JobStatus, **extra: Any) -> None:
        record.status = status
        self.board.post(record.job_id, "status", {"status": status.value, **extra})

    def _retire(self, record: ServiceJob) -> None:
        """Mark *record* terminal and enforce the retention cap: the
        oldest finished jobs beyond ``retain_jobs`` lose their record,
        event log, and scheduler handle, so a long-running service does
        not grow per-job state without bound.  Lock held."""
        record._done.set()
        self._terminal.append(record.job_id)
        while len(self._terminal) > self._retain_jobs:
            old_id = self._terminal.popleft()
            old = self._jobs.pop(old_id, None)
            self.board.forget(old_id)
            if old is not None and old.scheduler_id is not None:
                self._scheduler.forget(old.scheduler_id)

    # -- dispatch ----------------------------------------------------------------
    def _dispatch(self, record: ServiceJob) -> None:
        """Prepare the job (cache miss is now certain) and hand it to
        the scheduler.  Caller holds the lock."""
        try:
            prepared = self._catalog.prepare(self._store, record.request)
        except Exception as exc:
            self._admission.release(record.request.tenant, 0)
            self._fail(record, exc)
            # the released slot may admit a job queued behind this one —
            # without a drain here nothing else would wake the queue
            self._drain()
            return
        self._prepared[record.job_id] = prepared
        self._transition(record, JobStatus.ADMITTED)

        def on_step(metrics: Any) -> None:
            snapshot = asdict(metrics)
            record.last_step = snapshot
            record.steps_seen += 1
            self.board.post(record.job_id, "step", snapshot)

        def on_start(handle: JobHandle) -> None:
            with self._lock:
                record.started_at = time.time()
                self._transition(record, JobStatus.RUNNING)

        def on_done(handle: JobHandle) -> None:
            self._complete(record, handle)

        engine_kwargs = dict(prepared.engine_kwargs)
        engine_kwargs.setdefault("on_step", on_step)
        try:
            handle = self._scheduler.submit(
                prepared.job,
                read_only=prepared.input_tables,
                on_start=on_start,
                on_done=on_done,
                **engine_kwargs,
            )
        except Exception as exc:
            self._prepared.pop(record.job_id, None)
            self._drop_scratch(prepared)
            self._admission.release(record.request.tenant, 0)
            self._fail(record, exc)
            self._drain()
            return
        record.scheduler_id = handle.job_id

    def _fail(self, record: ServiceJob, exc: BaseException) -> None:
        record.error = f"{type(exc).__name__}: {exc}"
        record.finished_at = time.time()
        self._transition(record, JobStatus.FAILED, error=record.error)
        self._retire(record)
        self._counter("service.jobs_failed", record.request.tenant).add()

    # -- completion --------------------------------------------------------------
    def _complete(self, record: ServiceJob, handle: JobHandle) -> None:
        with self._lock:
            prepared = self._prepared.pop(record.job_id, None)
        # Collect and encode on this completion thread without the lock:
        # a large result takes tens of ms to read back and encode, and
        # no other tenant's submit should wait behind that.  The record
        # stays RUNNING until the result bytes exist.
        result_json: Optional[bytes] = None
        error: Optional[BaseException] = None
        if handle.state is JobState.SUCCEEDED and prepared is not None:
            try:
                result_json = encode(prepared.collect(self._store, handle.result))
            except Exception as exc:
                error = exc
        with self._lock:
            part_steps = (
                handle.result.part_steps_run if handle.result is not None else 0
            )
            self._admission.release(record.request.tenant, part_steps)
            if result_json is not None:
                self._cache.put(
                    self._store, record.fingerprint, prepared.input_tables, result_json
                )
                record.result_json = result_json
                record.finished_at = time.time()
                self._transition(record, JobStatus.DONE, cached=False)
                self._retire(record)
                self._counter("service.jobs_done", record.request.tenant).add()
            elif handle.state is JobState.CANCELLED:
                self._drop_scratch(prepared)
                record.finished_at = time.time()
                self._transition(record, JobStatus.CANCELLED)
                self._retire(record)
            else:
                self._drop_scratch(prepared)
                self._fail(record, error or handle.error or ServiceError("job failed"))
            self._drain()

    def _drop_scratch(self, prepared: Optional[PreparedJob]) -> None:
        """Drop whatever is left of a job's scratch tables.  Lock held."""
        if prepared is None:
            return
        for name in prepared.scratch_tables:
            if self._store.has_table(name):
                self._store.drop_table(name)

    def _drain(self) -> None:
        """Admit every queued job its tenant can now run.  Lock held.

        Non-reentrant: a dispatch that fails inside the loop releases
        its slot and requests another drain rather than recursing, so
        the pass re-runs until the queue is quiescent."""
        if self._draining:
            self._drain_pending = True
            return
        self._draining = True
        try:
            self._drain_pending = True
            while self._drain_pending:
                self._drain_pending = False
                for job_id in self._admission.drain():
                    record = self._jobs.get(job_id)
                    if record is not None and record.status is JobStatus.QUEUED:
                        self._dispatch(record)
        finally:
            self._draining = False
            self._drain_pending = False

    # -- client surface -----------------------------------------------------------
    def job(self, job_id: str) -> ServiceJob:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownServiceJobError(job_id)
        return record

    def jobs(self) -> List[ServiceJob]:
        with self._lock:
            return list(self._jobs.values())

    def result(self, job_id: str) -> Any:
        """The payload of a DONE job, decoded from the bytes the HTTP
        surface serves; raises for anything else."""
        record = self.job(job_id)
        if record.status is not JobStatus.DONE:
            raise ServiceError(
                f"job {job_id} is {record.status.value}"
                + (f": {record.error}" if record.error else "")
            )
        return record.payload

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started running; True on success."""
        with self._lock:
            record = self.job(job_id)
            if record.status is JobStatus.QUEUED:
                self._admission.withdraw(job_id)
                record.finished_at = time.time()
                self._transition(record, JobStatus.CANCELLED)
                self._retire(record)
                return True
            if record.status is JobStatus.ADMITTED and record.scheduler_id:
                # scheduler-side cancel only works pre-start; its
                # on_done callback finishes our bookkeeping
                return self._scheduler.cancel(record.scheduler_id)
            return False

    def tenants(self) -> Dict[str, Any]:
        with self._lock:
            return self._admission.tenants()

    def cache_stats(self) -> Dict[str, int]:
        with self._lock:
            return self._cache.stats()

    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def wait(self, job_id: str, timeout: Optional[float] = None) -> ServiceJob:
        record = self.job(job_id)
        record.wait(timeout)
        return record

    # -- lifecycle ---------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting jobs, cancel the queue, drain the scheduler."""
        with self._lock:
            if self._closed:
                return True
            self._closed = True
            for record in list(self._jobs.values()):
                if record.status is JobStatus.QUEUED:
                    self._admission.withdraw(record.job_id)
                    record.finished_at = time.time()
                    self._transition(record, JobStatus.CANCELLED)
                    self._retire(record)
        if self._own_scheduler:
            return self._scheduler.close(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        for record in self.jobs():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not record.wait(remaining):
                return False
        return True

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
