"""Live job progress: status records and per-job event streams.

Each service job owns a :class:`ServiceJob` record (the poll surface:
``GET /v1/jobs/{id}``) and an append-only event log (the streaming
surface: long-poll and SSE).  Events carry a per-job sequence number,
so a client that reconnects resumes from ``?since=N`` without gaps or
duplicates — the board never rewrites history, it only appends.

Status events are appended by the front door on every transition;
``step`` events come straight from the engine's ``on_step`` hook, one
per superstep barrier, carrying that step's metrics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.service.spec import JobRequest, JobStatus
from repro.service.wire import decode

#: Per-job event-log bound: old step events are compacted away first so
#: a long-running job cannot grow the board without limit.
MAX_EVENTS_PER_JOB = 512


@dataclass
class ServiceJob:
    """The front door's record of one submitted job."""

    job_id: str
    request: JobRequest
    fingerprint: str
    status: JobStatus = JobStatus.QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cached: bool = False
    error: Optional[str] = None
    #: Scheduler-side job id once admitted (None while queued / cached).
    scheduler_id: Optional[str] = None
    #: Rolling superstep snapshot (step number, durations, counts).
    last_step: Optional[Dict[str, Any]] = None
    steps_seen: int = 0
    #: The result payload encoded once at completion (see
    #: :mod:`repro.service.wire`), once DONE; a cache hit shares the
    #: cached bytes object.  The only stored form of the result.
    result_json: Optional[bytes] = field(default=None, repr=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def payload(self) -> Any:
        """The result decoded from :attr:`result_json` (a fresh value on
        every access), or ``None`` before DONE."""
        return None if self.result_json is None else decode(self.result_json)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def describe(self) -> Dict[str, Any]:
        """The wire form of this record (result payload excluded)."""
        return {
            "job_id": self.job_id,
            "app": self.request.app,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "fingerprint": self.fingerprint,
            "status": self.status.value,
            "cached": self.cached,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "steps_seen": self.steps_seen,
            "last_step": self.last_step,
        }


class ProgressBoard:
    """Append-only per-job event logs with blocking reads.

    Thread-safe; writers notify a single condition variable, readers
    long-poll on it.  Sequence numbers are per job and monotone even
    across compaction (compaction drops old *step* events but keeps
    the numbering, so ``since`` cursors never go backwards).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._next_seq: Dict[str, int] = {}

    def post(self, job_id: str, kind: str, data: Optional[Dict[str, Any]] = None) -> None:
        with self._cond:
            seq = self._next_seq.get(job_id, 0)
            self._next_seq[job_id] = seq + 1
            log = self._events.setdefault(job_id, [])
            log.append({"seq": seq, "kind": kind, "ts": time.time(), "data": data or {}})
            if len(log) > MAX_EVENTS_PER_JOB:
                # compact: drop the oldest step events, keep transitions
                steps = [e for e in log if e["kind"] == "step"]
                drop = set(id(e) for e in steps[: len(steps) // 2])
                self._events[job_id] = [e for e in log if id(e) not in drop]
            self._cond.notify_all()

    def events_since(
        self, job_id: str, since: int = 0, timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Events with ``seq >= since``; blocks up to *timeout* for news.

        Returns immediately when events are already available (or when
        *timeout* is ``None``/0); an empty list means the wait timed
        out with nothing new — a long-poll client simply re-requests.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def fresh() -> List[Dict[str, Any]]:
            return [e for e in self._events.get(job_id, []) if e["seq"] >= since]

        with self._cond:
            events = fresh()
            while not events and deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
                events = fresh()
            return events

    def forget(self, job_id: str) -> None:
        with self._cond:
            self._events.pop(job_id, None)
            self._next_seq.pop(job_id, None)
