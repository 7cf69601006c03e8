"""Top-level job execution: pick an engine from the job's properties.

``run_job`` is the public entry point: it checks the caller's
:class:`EngineOptions` once, derives the execution plan
(:func:`plan_for`) from them, the job's declared properties and the
facts detected from the job and the store, and dispatches to the
no-sync engine when the plan has no barriers.  Both engines run inside
the same job frame (:mod:`repro.ebsp.frame`), so the choice changes how
computes are driven, never how the job's tables are set up or how its
result, counters and outputs are reported.
"""

from __future__ import annotations

from typing import Any

from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.engine import SyncEngine
from repro.ebsp.job import Job
from repro.ebsp.properties import EngineOptions, plan_for
from repro.ebsp.results import JobResult
from repro.kvstore.api import KVStore


def run_job(store: KVStore, job: Job, **options: Any) -> JobResult:
    """Execute *job* against *store* under the :class:`EngineOptions`
    fields *options*, checked before anything runs.

    ``synchronize=None`` (the default) lets the plan decide: a
    no-sync-eligible job runs without barriers unless an option only the
    synchronous engine reads (``max_steps``, ``fault_tolerance``, …) is
    set.  ``True`` forces barriers; ``False`` demands no-sync execution
    and raises :class:`~repro.errors.JobSpecError` for an ineligible job.
    """
    return run_with_options(store, job, EngineOptions(**options))


def run_with_options(store: KVStore, job: Job, options: EngineOptions) -> JobResult:
    """:func:`run_job` with its options already built."""
    # the engine choice does not depend on the part-step shape, so no
    # compute is built here: the engine plans its shape from its own
    if plan_for(job, store, options, shape=False).synchronized:
        return SyncEngine(store, job, options).run()
    return AsyncEngine(store, job, options).run()
