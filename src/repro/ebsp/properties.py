"""Job properties and the execution optimizations they enable.

Section II-A of the paper identifies nine job properties and five
execution optimizations unlocked by combinations of them:

========== =====================================================
property    meaning
========== =====================================================
no-agg      no individual aggregators          (detected)
no-client-sync  no aborter                     (detected)
needs-order collocated computes must be ordered by key (declared)
no-continue compute always returns the negative signal (declared)
one-msg     at most one message per (destination, step) (declared)
rare-state  state bandwidth ≪ message bandwidth (declared)
no-ss-order computes for a key need not be in step order (declared)
incremental messages deliverable in any grouping, per-(sender,
            receiver) order preserved           (declared)
deterministic  compute is deterministic         (declared)
========== =====================================================

and the derived optimizations:

- ``(¬needs-order) ⇒ no-sort``
- ``one-msg ∧ no-continue ⇒ no-collect``
- ``no-collect ∧ rare-state ⇒ run-anywhere``
- ``(no-collect ∧ no-ss-order ∨ incremental) ∧ no-agg ∧
  no-client-sync ⇒ no-sync``
- ``deterministic ⇒`` optimized failure recovery

The first two properties "can easily be detected by Ripple before it
starts actually running the job; the others must be explicitly
declared" — which is exactly how :meth:`ExecutionPlan.derive` works:
it takes the declared :class:`JobProperties` plus the two facts
detected from the job object.  It then decides how the job runs
(barriers, part-step shape, shipping, stealing) from further detected
facts (:func:`plan_for`); ``JobResult.plan`` records the choice.

One engine optimization needs *no* property gate: active-part
scheduling (skipping the part-step task for parts with no pending
records).  A part with zero spills produces zero bundles, so running
it would invoke nothing and contribute only identity aggregator
partials — skipping it is observationally equivalent for every job,
which is why the engine always does it rather than deriving it here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.errors import JobSpecError


@dataclass(frozen=True)
class JobProperties:
    """The declared (non-detectable) job properties."""

    needs_order: bool = False
    no_continue: bool = False
    one_msg: bool = False
    rare_state: bool = False
    no_ss_order: bool = False
    incremental: bool = False
    deterministic: bool = False


@dataclass(frozen=True)
class ExecutionPlan:
    """The optimizations a job may get, and how it runs."""

    no_sort: bool
    no_collect: bool
    run_anywhere: bool
    no_sync: bool
    optimized_recovery: bool
    # carried along for engines that need the raw declarations
    properties: JobProperties
    no_agg: bool
    no_client_sync: bool
    synchronized: bool
    #: "per-key", "columnar" or "no-collect" part-steps; "drain" without barriers
    shape: str
    shipped: bool
    work_stealing: bool

    @classmethod
    def derive(
        cls,
        properties: JobProperties,
        has_aggregators: bool,
        has_aborter: bool,
        *,
        synchronize: Optional[bool] = None,
        columnar: bool = False,
        ships: bool = False,
    ) -> "ExecutionPlan":
        """Apply the paper's implication rules, then choose how the job runs.

        *synchronize* is the paper's all-or-nothing switch: ``None``
        follows ``no_sync``; ``False`` raises :class:`JobSpecError` for
        an ineligible job.  Part-steps are no-collect when the rules
        allow, else columnar when *columnar*; they ship when *ships*.
        Drains never ship; they steal under run-anywhere ∧ no-ss-order.
        """
        no_agg = not has_aggregators
        no_client_sync = not has_aborter
        no_sort = not properties.needs_order
        no_collect = properties.one_msg and properties.no_continue
        run_anywhere = no_collect and properties.rare_state
        no_sync = (
            ((no_collect and properties.no_ss_order) or properties.incremental)
            and no_agg
            and no_client_sync
        )
        if synchronize is False and not no_sync:
            raise JobSpecError(
                "job is not eligible for no-sync execution: requires (one-msg ∧ "
                "no-continue ∧ no-ss-order ∨ incremental) ∧ no aggregators ∧ no aborter"
            )
        synchronized = not no_sync if synchronize is None else synchronize
        # no-collect builds no per-destination groups to vectorize
        shape = ("drain" if not synchronized else "no-collect" if no_collect
                 else "columnar" if columnar else "per-key")
        return cls(
            no_sort=no_sort,
            no_collect=no_collect,
            run_anywhere=run_anywhere,
            no_sync=no_sync,
            optimized_recovery=properties.deterministic,
            properties=properties,
            no_agg=no_agg,
            no_client_sync=no_client_sync,
            synchronized=synchronized,
            shape=shape,
            shipped=synchronized and ships,
            work_stealing=not synchronized and run_anywhere and properties.no_ss_order,
        )

    def as_dict(self) -> Dict[str, Any]:
        """``JobResult.plan``: how the job ran, the five derived
        optimizations and what they came from, in plain JSON values."""
        return {"engine": "sync" if self.synchronized else "no-sync", **asdict(self)}


def plan_for(
    job: Any,
    store: Any = None,
    *,
    compute: Any = None,
    synchronize: Optional[bool] = None,
    batch_compute: bool = True,
    ship_state_pickles: bool = False,
) -> ExecutionPlan:
    """The plan *job* runs by on *store*: its declared properties plus
    the facts detected from the job (aggregators, aborter, a
    ``compute_batch`` override) and the store (``ships_compute``).
    The override is read off *compute*, the job's compute when the
    caller has built it, else off one built here (only when
    *batch_compute*).  ``batch_compute=False`` is the per-key reference
    lever; anything but a ``bool`` is refused with
    :class:`JobSpecError`.  Only a built engine knows if its ship state
    pickles (*ship_state_pickles*)."""
    require_bool("batch_compute", batch_compute)
    if batch_compute and compute is None:
        compute = job.get_compute()
    return ExecutionPlan.derive(
        job.properties(),
        bool(job.aggregators()),
        job.has_aborter,
        synchronize=synchronize,
        columnar=batch_compute and compute.supports_batch(),
        ships=ship_state_pickles and bool(getattr(store, "ships_compute", False)),
    )


def require_bool(name: str, value: Any) -> None:
    """Refuse a non-``bool`` engine switch (``None`` no longer means
    "detect") with :class:`JobSpecError`."""
    if not isinstance(value, bool):
        raise JobSpecError(f"{name} must be True or False, not {value!r}")
