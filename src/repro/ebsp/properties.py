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
facts and the caller's :class:`EngineOptions` (:func:`plan_for`);
``JobResult.plan`` records the choice.

One engine optimization needs *no* property gate: active-part
scheduling (skipping the part-step task for parts with no pending
records).  A part with zero spills produces zero bundles, so running
it would invoke nothing and contribute only identity aggregator
partials — skipping it is observationally equivalent for every job,
which is why the engine always does it rather than deriving it here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, FrozenSet, List, Optional

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
        return {"engine": SYNC if self.synchronized else NO_SYNC, **asdict(self)}


#: Which engine reads an engine option.
SYNC, NO_SYNC, BOTH = "sync", "no-sync", "both"


def _option(default: Any, engine: str, kind: Optional[type] = None, *,
            wire: bool = False, least: Optional[int] = None) -> Any:
    """An :class:`EngineOptions` field: the *engine* that reads it, the
    *kind* its value must be (or the default ``None``), its lower bound,
    and whether a remote client may set it."""
    metadata = {"engine": engine, "type": kind, "wire": wire, "least": least}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class EngineOptions:
    """Every option of a job's run, declared, typed and checked once
    (docs/programming-model.md tables them).

    Construction refuses an ill-typed or out-of-range value, a
    fault-tolerance feature without ``fault_tolerance``, and options
    that ask for both engines, with :class:`JobSpecError`.  An option
    only one engine reads asks for that engine when it is off its
    default (:attr:`barriers`); at its default it asks for nothing.
    """

    #: The paper's all-or-nothing switch; ``None`` lets the plan decide.
    synchronize: Optional[bool] = _option(None, BOTH, bool, wire=True)
    max_steps: Optional[int] = _option(None, SYNC, int, wire=True, least=0)
    spill_batch: int = _option(512, SYNC, int, wire=True, least=1)
    #: ``False`` forces per-key part-steps (the reference lever).
    batch_compute: bool = _option(True, SYNC, bool, wire=True)
    fault_tolerance: bool = _option(False, SYNC, bool, wire=True)
    checkpoint_interval: int = _option(0, SYNC, int, wire=True, least=0)
    checkpoint_dir: Optional[str] = _option(None, SYNC)
    resume: bool = _option(False, SYNC, bool)
    #: A :class:`~repro.ebsp.recovery.FailureInjector`.
    failure_injector: Any = _option(None, SYNC)
    #: A :class:`~repro.messaging.api.MessageQueuing`; ``None`` is local.
    queuing: Any = _option(None, NO_SYNC)
    #: ``None`` defers to ``RIPPLE_TRACE``; ``True``/``False``/a tracer are explicit.
    trace: Any = _option(None, BOTH)
    #: Called with each barrier's :class:`~repro.ebsp.results.StepMetrics`.
    on_step: Optional[Callable[[Any], None]] = _option(None, BOTH)

    def __post_init__(self) -> None:
        asked: Dict[str, List[str]] = {SYNC: [], NO_SYNC: [], BOTH: []}
        for name, default, meta in _OPTIONS:
            value = getattr(self, name)
            if value is default:
                continue
            kind, least = meta["type"], meta["least"]
            # a bool is an int to isinstance, never to an option
            if kind is not None and (
                not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool)
            ):
                wanted = "True or False" if kind is bool else "an int"
                raise JobSpecError(f"engine option {name!r} must be {wanted}, not {value!r}")
            if least is not None and value < least:
                raise JobSpecError(f"engine option {name!r} must be >= {least}, not {value!r}")
            if value != default:
                asked[meta["engine"]].append(name)
        # what the options ask of each engine, for :attr:`barriers`
        object.__setattr__(self, "_asked", asked)
        sync_only, no_sync_only = asked[SYNC], asked[NO_SYNC]
        # without fault tolerance input spills are deleted before
        # compute, and no progress table exists to checkpoint or resume
        needing = [name for name in ("failure_injector", "checkpoint_interval", "resume")
                   if name in sync_only and not self.fault_tolerance]
        if needing:
            raise JobSpecError(f"engine options {needing} require fault_tolerance=True")
        for barriers, names, other in ((True, sync_only, no_sync_only),
                                       (False, no_sync_only, sync_only)):
            if names and (self.synchronize is (not barriers) or other):
                raise JobSpecError(
                    f"engine options {names} need synchronize={str(barriers).lower()} (the "
                    f"{'no-sync' if barriers else 'synchronous'} engine reads none of them)"
                )

    @property
    def barriers(self) -> Optional[bool]:
        """What the options ask of the plan: an explicit ``synchronize``,
        else barriers when an option only the synchronous engine reads is
        off its default, none when one only the no-sync engine reads is,
        and ``None`` when the plan is free."""
        if self.synchronize is None and self._asked[SYNC]:
            return True
        if self.synchronize is None and self._asked[NO_SYNC]:
            return False
        return self.synchronize


#: ``(name, default, metadata)`` per option, read once per check.
_OPTIONS = tuple(
    (option.name, option.default, option.metadata) for option in fields(EngineOptions)
)

#: The options a remote client may set, with their JSON types.  Objects
#: (tracers, injectors, callbacks) never cross the wire.
ALLOWED_ENGINE_OPTIONS: Dict[str, type] = {
    name: meta["type"] for name, _, meta in _OPTIONS if meta["wire"]
}

#: The options only the synchronous engine reads.
SYNC_ONLY_ENGINE_OPTIONS: FrozenSet[str] = frozenset(
    name for name, _, meta in _OPTIONS if meta["engine"] == SYNC
)


def plan_for(
    job: Any,
    store: Any = None,
    options: Optional[EngineOptions] = None,
    *,
    compute: Any = None,
    ship_state_pickles: bool = False,
    shape: bool = True,
) -> ExecutionPlan:
    """The plan *job* runs by on *store*: its declared properties, the
    facts detected from the job (aggregators, aborter, a
    ``compute_batch`` override) and the store (``ships_compute``), and
    what *options* ask (:attr:`EngineOptions.barriers`).  The override
    is read off *compute*, else off one built here; ``shape=False``
    plans the engine alone and builds none.  Only a built engine knows
    if its ship state pickles (*ship_state_pickles*)."""
    options = options if options is not None else EngineOptions()
    columnar = shape and options.batch_compute
    if columnar and compute is None:
        compute = job.get_compute()
    return ExecutionPlan.derive(
        job.properties(),
        bool(job.aggregators()),
        job.has_aborter,
        synchronize=options.barriers,
        columnar=columnar and compute.supports_batch(),
        ships=ship_state_pickles and bool(getattr(store, "ships_compute", False)),
    )
