"""Admission control: quotas, priority aging, and backpressure.

The front door sits between tenants and the scheduler so that one
tenant's burst cannot monopolize the shared platform.  Three levers:

* **Per-tenant quotas** — a cap on concurrently *running* jobs, a cap
  on *queued* jobs, and a part-step budget over a rolling window (the
  paper's work unit: one part, one superstep).  Exceeding the running
  cap or step budget queues the job; exceeding the queued cap — or the
  global queue cap — rejects the submission outright with a
  retry-after hint (HTTP 429 semantics).

* **Priority with aging** — queued jobs are drained lowest effective
  priority first, where ``effective = priority − aging_rate · age``.
  Any job's effective priority eventually undercuts fresh arrivals, so
  nothing starves.

* **Window accounting** — each finished job charges its tenant the
  part-steps it actually executed (from the engine's counters); the
  charge expires ``window_seconds`` later.

This class is *not* internally locked: the front door serializes all
calls under its own lock, and keeping the controller passive makes its
decision logic trivially testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.errors import QuotaExceededError


@dataclass(frozen=True)
class TenantQuota:
    """Limits for one tenant (or the default for unlisted tenants)."""

    max_running: int = 2
    max_queued: int = 8
    #: Part-steps the tenant may consume per window; ``None`` = unmetered.
    step_budget: Optional[int] = None
    window_seconds: float = 60.0


@dataclass
class _TenantLedger:
    running: int = 0
    queued: int = 0
    #: (expiry monotonic time, part-steps charged)
    charges: Deque[Tuple[float, int]] = field(default_factory=deque)

    def spent(self, now: float) -> int:
        while self.charges and self.charges[0][0] <= now:
            self.charges.popleft()
        return sum(steps for _, steps in self.charges)


@dataclass
class _QueuedJob:
    job_id: str
    tenant: str
    priority: int
    enqueued_at: float


class AdmissionController:
    """Decides, per submission and per completion, who runs next.

    Not thread-safe by design — see the module docstring.
    """

    def __init__(
        self,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: TenantQuota = TenantQuota(),
        max_queue_depth: int = 64,
        aging_rate: float = 10.0,
        clock: Any = time.monotonic,
    ):
        self._quotas = dict(quotas or {})
        self._default = default_quota
        self._max_queue_depth = max_queue_depth
        self._aging_rate = aging_rate
        self._clock = clock
        self._ledgers: Dict[str, _TenantLedger] = {}
        self._queue: List[_QueuedJob] = []

    # -- introspection ----------------------------------------------------------
    def quota_for(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self._default)

    def queue_depth(self) -> int:
        return len(self._queue)

    def tenants(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant accounting snapshot (the /v1/tenants payload)."""
        now = self._clock()
        out: Dict[str, Dict[str, Any]] = {}
        for tenant in sorted(set(self._ledgers) | set(self._quotas)):
            ledger = self._ledgers.get(tenant, _TenantLedger())
            quota = self.quota_for(tenant)
            out[tenant] = {
                "running": ledger.running,
                "queued": ledger.queued,
                "window_steps_spent": ledger.spent(now),
                "quota": {
                    "max_running": quota.max_running,
                    "max_queued": quota.max_queued,
                    "step_budget": quota.step_budget,
                    "window_seconds": quota.window_seconds,
                },
            }
        return out

    def _ledger(self, tenant: str) -> _TenantLedger:
        ledger = self._ledgers.get(tenant)
        if ledger is None:
            ledger = self._ledgers[tenant] = _TenantLedger()
        return ledger

    # -- submission -------------------------------------------------------------
    def offer(self, job_id: str, tenant: str, priority: int) -> bool:
        """Accept a submission; True if it may run *now*, False if queued.

        Raises :class:`~repro.errors.QuotaExceededError` when the
        tenant's queue quota or the global queue cap is exhausted.
        """
        now = self._clock()
        ledger = self._ledger(tenant)
        quota = self.quota_for(tenant)
        if self._admissible(ledger, quota, now) and not self._queue:
            ledger.running += 1
            return True
        if len(self._queue) >= self._max_queue_depth:
            raise QuotaExceededError(
                f"service queue is full ({self._max_queue_depth} jobs)",
                retry_after=self._retry_after_hint(),
            )
        if ledger.queued >= quota.max_queued:
            raise QuotaExceededError(
                f"tenant {tenant!r} has {ledger.queued} queued jobs "
                f"(quota: {quota.max_queued})",
                retry_after=self._retry_after_hint(),
            )
        ledger.queued += 1
        self._queue.append(_QueuedJob(job_id, tenant, priority, now))
        return False

    def _admissible(self, ledger: _TenantLedger, quota: TenantQuota, now: float) -> bool:
        if ledger.running >= quota.max_running:
            return False
        if quota.step_budget is not None and ledger.spent(now) >= quota.step_budget:
            return False
        return True

    def _retry_after_hint(self) -> float:
        """Crude but honest: one window-fraction per queued job ahead."""
        return max(1.0, min(30.0, float(len(self._queue))))

    # -- queue drain --------------------------------------------------------------
    def _effective_priority(self, job: _QueuedJob, now: float) -> float:
        return job.priority - self._aging_rate * (now - job.enqueued_at)

    def drain(self) -> List[str]:
        """Pop every queued job whose tenant can run it now.

        Scans in effective-priority order (aged), so long-waiting
        low-priority jobs drain ahead of fresh high-priority ones.
        Returns job ids; the caller marks them admitted and hands them
        to the scheduler.
        """
        now = self._clock()
        admitted: List[str] = []
        for job in sorted(self._queue, key=lambda j: self._effective_priority(j, now)):
            ledger = self._ledger(job.tenant)
            if self._admissible(ledger, self.quota_for(job.tenant), now):
                ledger.queued -= 1
                ledger.running += 1
                self._queue.remove(job)
                admitted.append(job.job_id)
        return admitted

    def withdraw(self, job_id: str) -> bool:
        """Remove a still-queued job (cancellation); True if found."""
        for job in self._queue:
            if job.job_id == job_id:
                self._queue.remove(job)
                self._ledger(job.tenant).queued -= 1
                return True
        return False

    # -- completion ---------------------------------------------------------------
    def release(self, tenant: str, part_steps: int = 0) -> None:
        """A running job of *tenant* finished; charge its part-steps."""
        ledger = self._ledger(tenant)
        ledger.running = max(0, ledger.running - 1)
        if part_steps > 0:
            quota = self.quota_for(tenant)
            ledger.charges.append((self._clock() + quota.window_seconds, part_steps))
