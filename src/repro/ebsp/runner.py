"""Top-level job execution: pick an engine from the job's properties.

``run_job`` is the public entry point: it derives the execution plan
(:func:`plan_for`) from the job's declared properties plus the facts
detected from the job and the store, and dispatches to the no-sync
engine when the job is eligible — unless the caller forces
synchronization, which is the paper's "simple all-or-nothing switch".
Both engines run inside the same job frame (:mod:`repro.ebsp.frame`),
so the choice changes how computes are driven, never how the job's
tables are set up or how its result, counters and outputs are
reported.
"""

from __future__ import annotations

from typing import Optional

from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.engine import SyncEngine
from repro.ebsp.job import Job
from repro.ebsp.properties import plan_for
from repro.ebsp.results import JobResult
from repro.kvstore.api import KVStore


def run_job(
    store: KVStore,
    job: Job,
    *,
    synchronize: Optional[bool] = None,
    **engine_kwargs: object,
) -> JobResult:
    """Execute *job* against *store* and return its :class:`JobResult`.

    Parameters
    ----------
    synchronize:
        ``None`` (default) lets the plan decide: a no-sync-eligible job
        runs without barriers, everything else runs synchronously.
        ``True`` forces barriers even for an eligible job; ``False``
        demands no-sync execution and raises
        :class:`~repro.errors.JobSpecError` for an ineligible job.
    engine_kwargs:
        Passed through to the chosen engine (e.g. ``max_steps``,
        ``spill_batch``, ``fault_tolerance`` and ``batch_compute`` for
        the synchronous engine; ``queuing`` for the asynchronous one;
        ``trace`` and ``on_step`` for both).
    """
    # the engine choice does not depend on the part-step shape, so no
    # compute is built here: the engine plans its shape from its own
    if plan_for(job, store, synchronize=synchronize, batch_compute=False).synchronized:
        return SyncEngine(store, job, **engine_kwargs).run()
    return AsyncEngine(store, job, **engine_kwargs).run()
