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
detected from the job object.

One engine optimization needs *no* property gate: active-part
scheduling (skipping the part-step task for parts with no pending
records).  A part with zero spills produces zero bundles, so running
it would invoke nothing and contribute only identity aggregator
partials — skipping it is observationally equivalent for every job,
which is why the engine always does it rather than deriving it here.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    """The optimizations the engine may apply to a given job."""

    no_sort: bool
    no_collect: bool
    run_anywhere: bool
    no_sync: bool
    optimized_recovery: bool
    # carried along for engines that need the raw declarations
    properties: JobProperties
    no_agg: bool
    no_client_sync: bool

    @classmethod
    def derive(
        cls, properties: JobProperties, has_aggregators: bool, has_aborter: bool
    ) -> "ExecutionPlan":
        """Apply the paper's implication rules."""
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
        return cls(
            no_sort=no_sort,
            no_collect=no_collect,
            run_anywhere=run_anywhere,
            no_sync=no_sync,
            optimized_recovery=properties.deterministic,
            properties=properties,
            no_agg=no_agg,
            no_client_sync=no_client_sync,
        )
