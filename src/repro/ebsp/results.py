"""Job results and execution counters.

The engines write every instrument into one
:class:`~repro.obs.MetricsRegistry` per job.  :class:`JobResult`
carries the registry's full dump and, as ``counters``, the plain view
of its un-dotted instruments — the engine counters and high-water
marks (``messages_sent``, ``spill_in_flight_hwm``, …), as opposed to
the dotted per-layer ones (``engine.*``, ``runtime.*``).  Traced runs
also carry the recorded span trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class StepMetrics:
    """Timeline entry for one synchronized step."""

    step: int
    duration_seconds: float
    invocations: int
    records_out: int
    #: Parts that ran a part-step task this step.
    parts_run: int = 0
    #: Parts skipped by active-part scheduling (no pending records).
    parts_skipped: int = 0
    #: Worker-seconds the step's part-steps spent in collect + compute
    #: (summed across parts, so it can exceed the wall duration).
    compute_seconds: float = 0.0
    #: Worker-seconds spent at part-step commit points: batched state
    #: write-back plus the transport flush gather.
    flush_seconds: float = 0.0
    #: Worker-seconds parts sat finished waiting for the step's global
    #: barrier to release (stragglers make this grow).
    barrier_wait_seconds: float = 0.0


@dataclass
class JobResult:
    """What a job execution yields (paper Section II).

    Final component states stay in the key/value store (and flow
    through the job's state exporters); direct job output flows through
    the direct exporter; this object carries the final aggregator
    results, the number of steps taken, instrumentation counters, the
    execution plan, and (for synchronized runs) a per-step timeline.
    """

    steps: int
    aggregates: Dict[str, Any] = field(default_factory=dict)
    aborted: bool = False
    counters: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    synchronized: bool = True
    timeline: list = field(default_factory=list)
    #: Per-worker runtime counters for this job (delta over the store's
    #: WorkerRuntime): tasks, busy_seconds, steals, and a ``workers``
    #: list with the same split per worker.  Empty when the store has no
    #: runtime (e.g. a bare Table implementation).
    worker_stats: Dict[str, Any] = field(default_factory=dict)
    #: Full metrics-registry dump for this run: name → {type, unit,
    #: value}.  Superset of ``counters``, which holds the values of its
    #: un-dotted names.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: For traced runs, the Chrome/Perfetto trace-event document the
    #: run exported (``None`` when tracing was off).
    trace: Optional[Dict[str, Any]] = None
    #: How the job ran (:meth:`~repro.ebsp.properties.ExecutionPlan.as_dict`).
    plan: Dict[str, Any] = field(default_factory=dict)

    @property
    def compute_invocations(self) -> int:
        return self.counters.get("compute_invocations", 0)

    @property
    def messages_sent(self) -> int:
        return self.counters.get("messages_sent", 0)

    @property
    def barriers(self) -> int:
        return self.counters.get("barriers", 0)

    @property
    def runtime_tasks(self) -> int:
        """Worker-runtime tasks (short + long) this job executed."""
        return self.worker_stats.get("tasks", 0)

    @property
    def worker_steals(self) -> int:
        """Messages an idle worker stole from a busy peer (run-anywhere)."""
        return self.worker_stats.get("steals", 0)

    # -- transport-pipeline instrumentation --------------------------------
    @property
    def spills_written(self) -> int:
        """Sealed spills that reached the transport table."""
        return self.counters.get("spills_written", 0)

    @property
    def transport_batches(self) -> int:
        """Batched transport dispatches (each one marshalled request)."""
        return self.counters.get("transport_batches", 0)

    @property
    def marshalled_bytes(self) -> int:
        """Bytes this run marshalled across partition boundaries (0 when
        the store keeps no serde statistics)."""
        return self.counters.get("store_marshalled_bytes", 0)

    # -- activity-proportional scheduling instrumentation -------------------
    @property
    def part_steps_run(self) -> int:
        """Part-step tasks actually dispatched across all steps."""
        return self.counters.get("part_steps_run", 0)

    @property
    def parts_skipped(self) -> int:
        """Part-steps skipped because the part had no pending records."""
        return self.counters.get("parts_skipped", 0)

    @property
    def state_writeback_batches(self) -> int:
        """Batched state-table commits issued at part-step commit points."""
        return self.counters.get("state_writeback_batches", 0)

    # -- crash tolerance (paper §IV-A, real failures) -----------------------
    @property
    def worker_respawns(self) -> int:
        """Worker processes that died (or were killed for blowing a task
        deadline) and were respawned during this job."""
        return self.counters.get("worker_respawns", 0)

    @property
    def part_step_retries(self) -> int:
        """Part-step attempts that failed (simulated failure, worker
        loss, or deadline kill) and were re-driven from retained spills."""
        return self.counters.get("part_step_retries", 0)

    @property
    def worker_timeouts(self) -> int:
        """Tasks killed for exceeding the runtime's task deadline."""
        return self.counters.get("worker_timeouts", 0)

    @property
    def checkpoints_written(self) -> int:
        """Superstep checkpoints persisted during this run."""
        return self.counters.get("checkpoints_written", 0)

    @property
    def checkpoint_bytes(self) -> int:
        """Total marshalled bytes across this run's checkpoints."""
        return self.counters.get("checkpoint_bytes", 0)

    @property
    def resumed_from_step(self) -> int:
        """1-based step this run resumed after (0 = started fresh): a
        value of *n* means supersteps 0..n−1 came from a checkpoint."""
        return self.counters.get("resumed_from_step", 0)

    # -- phase attribution (repro.obs) --------------------------------------
    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Wall-time attribution by execution phase.

        Synchronized runs report ``compute`` / ``flush`` /
        ``barrier_wait`` (worker-seconds, summed over the timeline);
        no-sync runs report ``compute`` (worker-seconds in drains).
        This is what the sync-vs-async and active-parts ablations
        compare.
        """

        def _metric(name: str) -> float:
            entry = self.metrics.get(name)
            return float(entry["value"]) if entry is not None else 0.0

        if self.synchronized:
            if self.timeline:
                return {
                    "compute": sum(m.compute_seconds for m in self.timeline),
                    "flush": sum(m.flush_seconds for m in self.timeline),
                    "barrier_wait": sum(m.barrier_wait_seconds for m in self.timeline),
                }
            return {
                "compute": _metric("engine.compute_seconds"),
                "flush": _metric("engine.flush_seconds"),
                "barrier_wait": _metric("engine.barrier_wait_seconds"),
            }
        return {"compute": _metric("engine.compute_seconds")}


#: Cumulative per-store job counters live here so ``inspect --stats``
#: can report them after the fact.  The name deliberately avoids the
#: ``__ebsp`` prefix, which is reserved for per-job scratch tables that
#: must not outlive a run.
JOB_STATS_TABLE = "__ripple_job_stats"

#: Per-job trace/metrics exports for traced runs on durable stores,
#: keyed by the cumulative job sequence number; read back by
#: ``inspect trace <job>`` and ``inspect metrics <job>``.
JOB_TRACES_TABLE = "__ripple_job_traces"

#: Job counters accumulated into the job-stats table, plus derived totals.
_RECORDED_COUNTERS = (
    "compute_invocations",
    "part_steps_run",
    "parts_skipped",
    "state_writeback_batches",
    "state_writeback_records",
    "records_spilled",
    "spills_written",
    "transport_batches",
    "messages_sent",
    "store_marshalled_bytes",
    "part_step_retries",
    "worker_respawns",
    "worker_timeouts",
    "checkpoints_written",
    "checkpoint_bytes",
)


def record_job_stats(store: Any, result: "JobResult") -> Optional[int]:
    """Fold one job's headline counters into the store's cumulative
    job-stats table, for durable stores (``store.keeps_job_stats``) —
    in-memory stores already hand the same counters back in the
    :class:`JobResult`.  Returns the job's cumulative sequence number
    (1-based) when recorded, else ``None``.  Best-effort: a store that
    cannot host the table (closed, read-only, …) silently keeps no job
    stats."""
    if not getattr(store, "keeps_job_stats", False):
        return None
    try:
        from repro.kvstore.api import TableSpec

        table = store.get_or_create_table(TableSpec(name=JOB_STATS_TABLE, n_parts=1))
        updates = [("jobs", 1), ("steps", result.steps)]
        for name in _RECORDED_COUNTERS:
            value = result.counters.get(name, 0)
            if value:
                updates.append((name, value))
        current = table.get_many([name for name, _ in updates])
        table.put_many(
            (name, (current.get(name) or 0) + delta) for name, delta in updates
        )
        return (current.get("jobs") or 0) + 1
    except Exception:
        return None


def record_job_trace(store: Any, job_seq: Optional[int], result: "JobResult") -> None:
    """Persist a traced run's exported trace and metrics for ``inspect``.

    Only durable stores (``keeps_job_stats``) keep traces, under the
    job's cumulative sequence number; the latest sequence is also
    stored under the key ``"latest"``.  Best-effort like
    :func:`record_job_stats`.
    """
    if result.trace is None or job_seq is None:
        return
    if not getattr(store, "keeps_job_stats", False):
        return
    try:
        from repro.kvstore.api import TableSpec

        table = store.get_or_create_table(TableSpec(name=JOB_TRACES_TABLE, n_parts=1))
        table.put_many(
            [
                (job_seq, {"trace": result.trace, "metrics": result.metrics}),
                ("latest", job_seq),
            ]
        )
    except Exception:
        pass
