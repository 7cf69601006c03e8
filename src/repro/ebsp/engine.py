"""The synchronous K/V EBSP engine (paper Sections II and IV-A).

Execution of a job that uses synchronization is a series of steps.
Within step *i*:

1. each part of the transport table is scanned for spills addressed to
   it for step *i*; the (key, message-list) pairs are constructed in a
   local structure — ordered when the job needs sorting, a hash
   otherwise (the analog of MapReduce's shuffle);
2. an enumeration of that structure drives the compute invocations:
   a component is invoked iff it is *enabled* (continued from step
   *i−1*, or was sent a message in step *i−1*);
3. outgoing messages are spilled to the transport table for step
   *i+1*; a positive continue signal becomes a special BSP message to
   the component itself, so "the basic mechanism is driven purely by
   BSP messages";
4. per-part aggregator partials are folded; the barrier merges them
   globally, and the finished results are readable in step *i+1*;
5. between steps there is a global synchronization barrier — here, the
   join on all per-part futures of the enumeration.

The engine honors the Section II-A execution special cases: it skips
sorting unless the job ``needs_order``, skips value-list collection for
``one-msg ∧ no-continue`` jobs, and (with ``fault_tolerance=True``)
implements the outlined recovery scheme — part-step writes buffer until
a commit point, a progress table maps part → completed step, and the
driver re-drives any failed part-step (a simulated failure or a lost
worker process) from its retained input spills.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import (
    AggregatorError,
    ComputeError,
    PropertyViolationError,
    RecoveryError,
)
from repro.ebsp.frame import FrameContext, JobFrame, _job_counters
from repro.ebsp.job import BaseContext, BatchComputeContext, Compute, Job
from repro.ebsp.loaders import StagedLoaderContext
from repro.ebsp.properties import EngineOptions, plan_for
from repro.ebsp.recovery import ProgressTable, SimulatedFailure
from repro.ebsp.results import JobResult
from repro.obs.trace import activate, get_tracer
from repro.runtime.shipping import CONSUMER_SHIP_ATTR, Resident, drop_resident
from repro.ebsp.transport import (
    CLIENT_SRC,
    CONT,
    CREATE,
    MSG,
    NO_MESSAGE,
    MessageBatch,
    SpillWriter,
    collect_step_columns,
    collect_step_records,
    create_transport_table,
    group_step_columns,
    scan_step_records_no_collect,
)
from repro.kvstore.api import KVStore, PartConsumer, has_none

#: Transport pipeline: sealed spills per dispatched batch, and the
#: bound on dispatched-but-unjoined batches per writer.
SPILL_COALESCE = 4
SPILL_WINDOW = 8

#: Components per ``compute_batch`` call; a part's groups are sliced
#: into chunks of this size.
COMPUTE_BATCH_SIZE = 65536

#: Attempts a failed part-step gets beyond its first before the job
#: gives up (simulated failures and lost workers alike).
MAX_RETRIES = 5


class _SimpleBaseContext(BaseContext):
    """Context handed to combiner invocations."""

    def __init__(self, step_num: int):
        self._step_num = step_num

    @property
    def step_num(self) -> int:
        return self._step_num


class _LoaderCtx(StagedLoaderContext):
    """Loader context: feeds states, step-0 spills, enables, aggregates."""

    def __init__(self, engine: "SyncEngine"):
        super().__init__(engine._state_tables)
        self._engine = engine
        self.writer = engine._make_writer(CLIENT_SRC, 0, 0, hold=False)
        self.agg_partials: Dict[str, Any] = {
            name: agg.create() for name, agg in engine._aggs.items()
        }

    def send_message(self, key: Any, message: Any) -> None:
        self.writer.add((MSG, key, message))

    def enable(self, key: Any) -> None:
        self.writer.add((CONT, key))

    def enable_many(self, keys: List[Any]) -> None:
        # One columnar continue batch when every key is exactly ``int``
        # and fits int64: readers lower the column back to the same
        # Python ints.  bool, numpy scalars, big ints and tuples would
        # change identity or shape in an int64 column, so they keep the
        # per-record path.
        if keys and all(type(key) is int for key in keys):
            try:
                column = np.asarray(keys, dtype=np.int64)
            except OverflowError:
                column = None
            if column is not None:
                self.writer.add_continue_batch(column)
                return
        for key in keys:
            self.writer.add((CONT, key))

    def aggregate_value(self, name: str, value: Any) -> None:
        agg = self._engine._aggs.get(name)
        if agg is None:
            raise AggregatorError(f"job has no aggregator named {name!r}")
        self.agg_partials[name] = agg.add(self.agg_partials[name], value)


class _StepContext(FrameContext):
    """One part's compute context for one step; rebound per component.

    Reads and writes go through the frame's write-back cache, which
    commits at the part-step commit point (:meth:`commit_state`).
    """

    def __init__(self, engine: "SyncEngine", step: int, writer: SpillWriter):
        super().__init__(engine)
        self._step_num = step
        self._writer = writer
        self.agg_partials: Dict[str, Any] = {
            name: agg.create() for name, agg in engine._aggs.items()
        }
        self.direct_outputs: List[Tuple[Any, Any]] = []

    # -- ComputeContext API ------------------------------------------------------
    @property
    def step_num(self) -> int:
        return self._step_num

    def create_state(self, tab_idx: int, key: Any, state: Any) -> None:
        self._check_tab(tab_idx)
        if state is None:
            raise ValueError("None is not a creatable state")
        self._writer.add((CREATE, key, tab_idx, state))

    def output_message(self, key: Any, message: Any) -> None:
        if message is None:
            raise ValueError("None is not a sendable message")
        self._writer.add((MSG, key, message))

    def aggregate_value(self, name: str, value: Any) -> None:
        agg = self._engine._aggs.get(name)
        if agg is None:
            raise AggregatorError(f"job has no aggregator named {name!r}")
        self.agg_partials[name] = agg.add(self.agg_partials[name], value)

    def get_aggregate_value(self, name: str) -> Any:
        if name not in self._engine._aggs:
            raise AggregatorError(f"job has no aggregator named {name!r}")
        return self._engine._agg_values.get(name)

    def direct_job_output(self, key: Any, value: Any) -> None:
        # buffered onto the part-step result; the driver exports after
        # the barrier (the exporter itself never leaves the parent)
        if self._engine._has_direct_exporter:
            self.direct_outputs.append((key, value))


class _BatchStepContext(BatchComputeContext):
    """The columnar face of one part's step context.

    Wraps the part's :class:`_StepContext` so staged state, aggregator
    partials, direct outputs, and the invocation count live in exactly
    one place regardless of which face the compute used — the batch
    path commits through the same write-back cache and the same
    :meth:`_StepContext.commit_state` as the per-key path.
    """

    _ABSENT = _StepContext._ABSENT
    _MISS = object()

    def __init__(self, inner: _StepContext, writer: SpillWriter):
        self._inner = inner
        self._writer = writer
        self._keys: Any = None
        self._keys_list: List[Any] = []
        self._batch: Optional[MessageBatch] = None

    def _bind_batch(self, keys: Any, batch: MessageBatch) -> None:
        self._keys = keys
        # lowered once: store dicts key on Python scalars, and ``tolist``
        # on a typed column is one C-level pass
        self._keys_list = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        self._batch = batch
        self._inner.invocations += len(self._keys_list)

    def _subset(self, keys: Any) -> List[Any]:
        """*keys* (a subset of the batch) lowered to Python scalars; the
        whole batch when ``None``."""
        if keys is None:
            return self._keys_list
        return keys.tolist() if isinstance(keys, np.ndarray) else list(keys)

    # -- BatchComputeContext API ------------------------------------------------
    @property
    def step_num(self) -> int:
        return self._inner.step_num

    @property
    def keys(self) -> Any:
        return self._keys

    @property
    def messages(self) -> MessageBatch:
        return self._batch

    def read_states(self, tab_idx: int, keys: Any = None) -> List[Any]:
        inner = self._inner
        inner._check_tab(tab_idx)
        cache = inner._cache
        keys = self._subset(keys)
        out: List[Any] = [None] * len(keys)
        missing_keys: List[Any] = []
        missing_at: List[int] = []
        for i, key in enumerate(keys):
            value = cache.get((tab_idx, key), _BatchStepContext._MISS)
            if value is _BatchStepContext._MISS:
                missing_keys.append(key)
                missing_at.append(i)
            elif value is not _BatchStepContext._ABSENT:
                out[i] = value
        if missing_keys:
            table = inner._engine._state_tables[tab_idx]
            fetched = table.get_many(missing_keys)
            for key, i in zip(missing_keys, missing_at):
                value = fetched.get(key)
                cache[(tab_idx, key)] = (
                    _BatchStepContext._ABSENT if value is None else value
                )
                out[i] = value
        return out

    def write_states(self, tab_idx: int, states: Any, keys: Any = None) -> None:
        inner = self._inner
        inner._check_tab(tab_idx)
        keys = self._subset(keys)
        if len(states) != len(keys):
            raise ValueError(
                f"write_states column has {len(states)} entries "
                f"for {len(keys)} keys"
            )
        values = states.tolist() if isinstance(states, np.ndarray) else list(states)
        if has_none(values):
            raise ValueError("None is not a storable state; use delete_states()")
        inner._stage_many(tab_idx, keys, values)

    def delete_states(self, tab_idx: int, keys: Any) -> None:
        inner = self._inner
        inner._check_tab(tab_idx)
        keys = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        inner._stage_many(tab_idx, keys, [_BatchStepContext._ABSENT] * len(keys))

    def create_state(self, tab_idx: int, key: Any, state: Any) -> None:
        inner = self._inner
        inner._check_tab(tab_idx)
        if state is None:
            raise ValueError("None is not a creatable state")
        self._writer.add((CREATE, key, tab_idx, state))

    def send_messages(self, dest_keys: Any, payloads: Any) -> None:
        self._writer.add_message_batch(dest_keys, payloads)

    def output_message(self, key: Any, message: Any) -> None:
        if message is None:
            raise ValueError("None is not a sendable message")
        self._writer.add((MSG, key, message))

    def aggregate_value(self, name: str, value: Any) -> None:
        self._inner.aggregate_value(name, value)

    def aggregate_values(self, name: str, values: Any) -> None:
        inner = self._inner
        agg = inner._engine._aggs.get(name)
        if agg is None:
            raise AggregatorError(f"job has no aggregator named {name!r}")
        inner.agg_partials[name] = agg.add_many(inner.agg_partials[name], values)

    def get_aggregate_value(self, name: str) -> Any:
        return self._inner.get_aggregate_value(name)

    def get_broadcast_datum(self, key: Any) -> Any:
        return self._inner.get_broadcast_datum(key)

    def direct_job_output(self, key: Any, value: Any) -> None:
        self._inner.direct_job_output(key, value)


class _PartStepResult:
    """What one part's step hands back across the barrier.

    Besides the aggregator partials and record counts, each part
    carries its phase timings: worker-seconds in collect + compute,
    worker-seconds at the commit point (state write-back + transport
    flush), and its finish instant.  The finish instants are carried as
    a *sum* (with a count) because results merge pairwise — the driver
    recovers the step's total barrier wait as
    ``n_timed * t_barrier − finished_sum``.

    It also carries everything else the part-step did, wherever it ran:
    its spill ledger (records per destination part, keyed by write
    step), its counter and maximum deltas, and its buffered direct
    outputs.  A part-step writes no engine state; the driver folds
    these once, after the barrier (:meth:`SyncEngine._fold`).
    """

    __slots__ = (
        "agg_partials",
        "invocations",
        "records_out",
        "compute_seconds",
        "flush_seconds",
        "finished_sum",
        "n_timed",
        "spills",
        "counters",
        "maxima",
        "outputs",
    )

    def __init__(
        self,
        agg_partials: Dict[str, Any],
        invocations: int,
        records_out: int,
        compute_seconds: float = 0.0,
        flush_seconds: float = 0.0,
        finished_sum: float = 0.0,
        n_timed: int = 0,
    ):
        self.agg_partials = agg_partials
        self.invocations = invocations
        self.records_out = records_out
        self.compute_seconds = compute_seconds
        self.flush_seconds = flush_seconds
        self.finished_sum = finished_sum
        self.n_timed = n_timed
        self.spills: Dict[int, Dict[int, int]] = {}
        self.counters: Dict[str, int] = {}
        self.maxima: Dict[str, int] = {}
        self.outputs: List[Tuple[Any, Any]] = []


def _harvest_writer(writer: SpillWriter, write_step: int, result: _PartStepResult) -> None:
    """One writer's spill ledger and transport counters onto *result*."""
    result.records_out = writer.records_written
    if writer.spilled:
        result.spills = {write_step: dict(writer.spilled)}
        result.counters["records_spilled"] = sum(writer.spilled.values())
    result.counters["messages_sent"] = writer.messages_added
    if writer.messages_combined:
        result.counters["messages_combined"] = writer.messages_combined
    if writer.spills_sealed:
        result.counters["spills_written"] = writer.spills_sealed
    if writer.batches_dispatched:
        result.counters["transport_batches"] = writer.batches_dispatched
    result.maxima["spill_in_flight_hwm"] = writer.in_flight_hwm


class _StepConsumer(PartConsumer):
    """Drives one step's part-step tasks through the transport table.

    Module-level (not a closure inside ``_run_step``) so it can pickle:
    under a process runtime the consumer — engine included — ships to
    the part's owner process.  The ``_ripple_shippable_`` instance
    attribute is the store's opt-in marker; it is set only when the
    engine's plan ships part-steps.
    """

    def __init__(self, engine: "SyncEngine", step: int):
        self._engine = engine
        self._step = step
        setattr(self, CONSUMER_SHIP_ATTR, engine._ship_parts)

    def process_part(self, part_index: int, view: Any) -> Any:
        return self._engine._run_part_step(part_index, view, self._step)

    def combine(self, a: Any, b: Any) -> Any:
        engine = self._engine
        merged = {}
        for name, agg in engine._aggs.items():
            merged[name] = agg.merge(a.agg_partials[name], b.agg_partials[name])
        out = _PartStepResult(
            merged,
            a.invocations + b.invocations,
            a.records_out + b.records_out,
            a.compute_seconds + b.compute_seconds,
            a.flush_seconds + b.flush_seconds,
            a.finished_sum + b.finished_sum,
            a.n_timed + b.n_timed,
        )
        for side in (a, b):
            for step, per_part in side.spills.items():
                dest = out.spills.setdefault(step, {})
                for part, count in per_part.items():
                    dest[part] = dest.get(part, 0) + count
            for name, value in side.counters.items():
                out.counters[name] = out.counters.get(name, 0) + value
            for name, value in side.maxima.items():
                out.maxima[name] = max(out.maxima.get(name, 0), value)
            out.outputs.extend(side.outputs)
        return out


class _DiscardSpillsConsumer(PartConsumer):
    """Deletes every spill a failed part-step attempt already shipped.

    Spill keys are ``(dest_part, step, src_part, seq)``; a failed
    attempt's output is exactly the keys with its write step and its
    source part, wherever they landed.  Shippable so the deletes run in
    the parts' owner processes (one task per part, no data movement).
    """

    def __init__(self, write_step: int, src_part: int):
        self._write_step = write_step
        self._src_part = src_part
        setattr(self, CONSUMER_SHIP_ATTR, True)

    def process_part(self, part_index: int, view: Any) -> int:
        doomed = [
            key
            for key, _ in view.items()
            if key[1] == self._write_step and key[2] == self._src_part
        ]
        for key in doomed:
            view.delete(key)
        return len(doomed)

    def combine(self, a: int, b: int) -> int:
        return a + b


def _grouped_creations(
    creates: List[Tuple[Any, int, Any]]
) -> List[Tuple[Any, List[Tuple[int, Any]]]]:
    """``(dest_key, tab_idx, state)`` triples grouped per destination,
    in first-appearance order."""
    merged: Dict[Any, List[Tuple[int, Any]]] = {}
    for dest_key, tab_idx, state in creates:
        merged.setdefault(dest_key, []).append((tab_idx, state))
    return list(merged.items())


def _invoke_each(engine, ctx, writer, part, step, invocations: Iterator[tuple]) -> None:
    """One ``compute`` per ``(key, messages)``; a positive signal
    becomes a continue record (refused when the job declared
    no-continue)."""
    no_continue = engine._plan.properties.no_continue
    compute = engine._compute
    injector = engine._failure_injector
    for key, messages in invocations:
        ctx._bind(key, messages)
        if injector is not None:
            injector.check(part, step)
        try:
            cont = bool(compute.compute(ctx))
        except SimulatedFailure:
            raise
        except Exception as exc:  # surface with key/step context
            raise ComputeError(key, step, exc) from exc
        ctx._finish_invocation()
        if cont:
            if no_continue:
                raise PropertyViolationError(
                    f"job declares no-continue but component {key!r} "
                    f"returned the positive signal in step {step}"
                )
            writer.add((CONT, key))


class _PerKeyShape:
    """Per-key part-step: a value list per destination, one ``compute``
    per enabled component, in key order unless the job declared no-sort."""

    #: consumed spills may be deleted before compute when nothing can retry
    early_delete = True

    @staticmethod
    def collect(engine: "SyncEngine", view: Any, step: int) -> tuple:
        bundles, consumed = collect_step_records(view, step, engine._combiner_for(step))
        creations = [(key, b.created) for key, b in bundles.items() if b.created]
        return bundles, creations, consumed

    @staticmethod
    def drive(engine, ctx, writer, part, step, bundles: Dict[Any, Any]) -> None:
        enabled = [key for key, b in bundles.items() if b.enabled]
        if not engine._plan.no_sort:
            enabled.sort()
        one_msg = engine._plan.properties.one_msg

        def invocations() -> Iterator[Tuple[Any, List[Any]]]:
            for key in enabled:
                # pop: the bundle's messages are garbage as soon as this
                # invocation finishes, which halves the step's peak
                # footprint (incoming bundles shrink while outgoing
                # spills grow)
                bundle = bundles.pop(key)
                if one_msg and len(bundle.messages) > 1:
                    raise PropertyViolationError(
                        f"job declares one-msg but component {key!r} received "
                        f"{len(bundle.messages)} messages in step {step}"
                    )
                yield key, bundle.messages

        _invoke_each(engine, ctx, writer, part, step, invocations())


class _ColumnarShape:
    """The columnar part-step: spills stay columns end to end, grouped
    by one vectorized argsort, and ``compute_batch`` runs over column
    slices.  Collect returns ``None`` when the keys are not mutually
    orderable; the part-step then falls back to the per-key shape."""

    early_delete = True

    @staticmethod
    def collect(engine: "SyncEngine", view: Any, step: int) -> Optional[tuple]:
        cols = collect_step_columns(view, step)
        try:
            grouped = group_step_columns(cols)
        except TypeError:
            return None
        return grouped, _grouped_creations(cols.creates), cols.consumed

    @staticmethod
    def drive(engine, ctx, writer, part, step, grouped: Tuple[Any, MessageBatch]) -> None:
        group_keys, batch = grouped
        bctx = _BatchStepContext(ctx, writer)
        no_continue = engine._plan.properties.no_continue
        n = len(group_keys)
        if engine._plan.properties.one_msg and n:
            over = np.flatnonzero(batch.counts > 1)
            if len(over):
                offender = group_keys[over[0]]
                raise PropertyViolationError(
                    f"job declares one-msg but component {offender!r} received "
                    f"{int(batch.counts[over[0]])} messages in step {step}"
                )
        compute = engine._compute
        injector = engine._failure_injector
        for lo in range(0, n, COMPUTE_BATCH_SIZE):
            hi = min(lo + COMPUTE_BATCH_SIZE, n)
            key_slice = group_keys[lo:hi]
            bctx._bind_batch(key_slice, batch.slice(lo, hi))
            if injector is not None:
                injector.check(part, step)
            try:
                cont = compute.compute_batch(bctx)
            except SimulatedFailure:
                raise
            except Exception as exc:  # surface with batch/step context
                raise ComputeError(f"batch[{lo}:{hi}] of part {part}", step, exc) from exc
            if cont is None or isinstance(cont, (bool, np.bool_)):
                all_continue = bool(cont)
                mask = None
            else:
                mask = np.asarray(cont, dtype=bool)
                if len(mask) != hi - lo:
                    raise ComputeError(
                        f"batch[{lo}:{hi}] of part {part}",
                        step,
                        ValueError(
                            f"compute_batch returned {len(mask)} continue "
                            f"signals for {hi - lo} components"
                        ),
                    )
                all_continue = False
            if all_continue or (mask is not None and mask.any()):
                if no_continue:
                    raise PropertyViolationError(
                        f"job declares no-continue but a batch returned "
                        f"positive signals in step {step}"
                    )
                writer.add_continue_batch(
                    key_slice if all_continue else key_slice[mask]
                )


class _NoCollectShape:
    """The no-collect part-step (§II-A, one-msg ∧ no-continue): no value
    lists; each record drives one compute directly, sorted by key only
    when the job asks for ordering.  Consumed spills are deleted at the
    commit point."""

    early_delete = False

    @staticmethod
    def collect(engine: "SyncEngine", view: Any, step: int) -> tuple:
        deliveries, creates, consumed = scan_step_records_no_collect(view, step)
        return deliveries, _grouped_creations(creates), consumed

    @staticmethod
    def drive(engine, ctx, writer, part, step, deliveries: List[Tuple[Any, Any]]) -> None:
        seen: set = set()
        for dest_key, payload in deliveries:
            if payload is not NO_MESSAGE:
                if dest_key in seen:
                    raise PropertyViolationError(
                        f"job declares one-msg but component {dest_key!r} received "
                        f"multiple messages in step {step}"
                    )
                seen.add(dest_key)
        # a bare enable is redundant for a component that also got a message
        deliveries = [
            d for d in deliveries if not (d[1] is NO_MESSAGE and d[0] in seen)
        ]
        if not engine._plan.no_sort:
            deliveries.sort(key=lambda pair: pair[0])
        _invoke_each(
            engine, ctx, writer, part, step,
            ((key, [] if m is NO_MESSAGE else [m]) for key, m in deliveries),
        )


#: Engine attributes a shipped part-step does without; a worker's copy
#: holds them as ``None``.
_PARENT_ONLY = (
    "_store",
    "_job",
    "_tracer",
    "_metrics",
    "_direct_exporter",
    "_runtime",
    "_runtime_baseline",
    "_stats_baseline",
    "_spilled_per_step",
    "_part_cache",
    "_timeline",
    "_checkpoints",
    "_options",
    "_compute_ref",
)


class SyncEngine(JobFrame):
    """Executes one job, synchronously, over a given store."""

    def __init__(self, store: KVStore, job: Job, options: EngineOptions):
        # pinned: a no-sync-only option is refused here
        options = replace(options, synchronize=True)
        super().__init__(store, job, options)
        # what a shipped part-step reads; the options stay in the parent
        self._spill_batch = options.spill_batch
        self._fault_tolerance = options.fault_tolerance
        self._failure_injector = options.failure_injector
        self._agg_values: Dict[str, Any] = {}
        self._checkpoints = None
        if options.checkpoint_interval or options.resume:
            from repro.ebsp.checkpoint import CheckpointManager

            self._checkpoints = CheckpointManager(
                store, type(job).__name__, directory=options.checkpoint_dir
            )
        self._open()
        self._progress: Optional[ProgressTable] = None
        if options.fault_tolerance:
            self._progress = ProgressTable(
                self._store, f"__ebsp_progress_{self._jid}", self.n_parts
            )
        # records spilled per (step, dest part), folded from part-step
        # results at each barrier; this is what active-part scheduling reads
        self._spilled_per_step: Dict[int, Dict[int, int]] = {}
        self._timeline: list = []
        # the exporter stays in the parent; a shipped copy still needs
        # to know whether to buffer direct outputs
        self._has_direct_exporter = self._direct_exporter is not None
        # what a shipped part-step carries instead of the compute
        self._compute_ref: Optional[Resident] = None
        # the plan picks the part-step shape and whether part-steps ship
        self._plan = plan_for(
            job,
            store,
            options,
            compute=self._compute,
            ship_state_pickles=self._ship_state_pickles(),
        )
        self._shape = {"per-key": _PerKeyShape, "columnar": _ColumnarShape,
                       "no-collect": _NoCollectShape}[self._plan.shape]
        self._ship_parts = self._plan.shipped

    def _ship_state_pickles(self) -> bool:
        """The planner input only a built engine can detect: whether its
        ship state pickles (tried only on a store that ships compute).
        A job that does not (lambdas, closures) runs in the parent.
        The compute is pickled once here, into the reference that ships
        in its place and resolves to each worker's resident copy."""
        if not getattr(self._store, "ships_compute", False):
            return False
        try:
            self._compute_ref = Resident(self._compute)
            pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self._compute_ref = None
            return False
        return True

    def __getstate__(self) -> dict:
        """The engine's *ship state*: what a part-step needs in a worker.

        Parent-only machinery (store handle, job object, exporter,
        runtime baselines, tracer, accumulators) is left out — not even
        its attribute names travel; tables go as child-side references
        that resolve against the worker process's resident parts, and
        the compute as a reference to the worker's resident copy, so
        what it memoizes lasts the job, as on threads.
        """
        state = self.__dict__.copy()
        for name in _PARENT_ONLY:
            state.pop(name, None)
        if self._compute_ref is not None:
            state["_compute"] = self._compute_ref
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(dict.fromkeys(_PARENT_ONLY))
        self.__dict__.update(state)
        # unpickling happens inside the worker's tracer activation, so
        # the child copy's spans land in the lane being replayed
        self._tracer = get_tracer()
        self._part_cache = {}

    # -- setup -----------------------------------------------------------------
    def _resolve_tables(self) -> None:
        super()._resolve_tables()
        self._transport_name = f"__ebsp_xport_{self._jid}"
        self._transport = create_transport_table(
            self._store, self._transport_name, self.n_parts
        )

    def _part_of_many(self, keys: Any) -> Any:
        """Vectorized key→part routing for whole columns."""
        if self._state_tables:
            return self._state_tables[0].part_of_many(keys)
        from repro.util.hashing import part_for_key

        n_parts = self.n_parts
        return np.fromiter(
            (part_for_key(k, n_parts) for k in keys),
            dtype=np.int64,
            count=len(keys),
        )

    def _pending_records(self, step: int) -> int:
        return sum(self._spilled_per_step.get(step, {}).values())

    def _active_parts(self, step: int) -> List[int]:
        """Parts with at least one pending record for *step*."""
        per_part = self._spilled_per_step.get(step, {})
        return sorted(part for part, count in per_part.items() if count > 0)

    def _make_writer(
        self, src_part: int, write_step: int, combine_step: int, hold: bool
    ) -> SpillWriter:
        """A spill writer carrying the engine's transport-pipeline config."""
        return SpillWriter(
            self._transport,
            src_part=src_part,
            step=write_step,
            n_parts=self.n_parts,
            part_of=self._part_of,
            batch_size=self._spill_batch,
            hold=hold,
            combiner=self._combiner_for(combine_step),
            max_in_flight=SPILL_WINDOW,
            spills_per_batch=SPILL_COALESCE,
            compact=True,
            tracer=self._tracer,
            part_of_many=self._part_of_many,
            vector_combiner=self._batch_combiner_for(combine_step),
        )

    # -- combiner plumbing -----------------------------------------------------
    def _combiner_for(self, step: int):
        """A (m1, m2) -> combined|None adapter, or None when the job's
        Compute does not override the default (which always declines)."""
        if type(self._compute).combine_messages is Compute.combine_messages:
            return None
        ctx = _SimpleBaseContext(step)
        compute = self._compute

        def _combine(m1: Any, m2: Any) -> Any:
            # Destination key is not threaded through collect_step_records'
            # bundles; combiners that need it can encode it in the message.
            return compute.combine_messages(ctx, None, m1, m2)

        return _combine

    def _batch_combiner_for(self, step: int):
        """A (dest_keys, payloads) -> (dest_keys, payloads) column
        combiner, or None when the Compute does not override
        ``combine_message_batch`` (detection-by-override, as above)."""
        if (
            type(self._compute).combine_message_batch
            is Compute.combine_message_batch
        ):
            return None
        ctx = _SimpleBaseContext(step)
        compute = self._compute

        def _combine(dest_keys: Any, payloads: Any) -> tuple:
            out = compute.combine_message_batch(ctx, dest_keys, payloads)
            return (dest_keys, payloads) if out is None else out

        return _combine

    # -- main loop -------------------------------------------------------------
    def run(self) -> JobResult:
        started = time.monotonic()
        try:
            # The tracer is activated processwide for the run: spans are
            # emitted from runtime threads this engine does not own, so
            # they fetch the active tracer rather than being handed one.
            with activate(self._tracer):
                with self._tracer.span("job", cat="engine", lane="driver", jid=self._jid):
                    resumed_step = -1
                    if self._options.resume:
                        with self._tracer.span("resume", cat="engine", lane="driver"):
                            resumed_step = self._restore_checkpoint()
                    if resumed_step >= 0:
                        # loaders already ran in the crashed execution;
                        # only the output side needs its lifecycle begun
                        if self._direct_exporter is not None:
                            self._direct_exporter.begin()
                    else:
                        with self._tracer.span("load", cat="engine", lane="driver"):
                            self._initialize()
                    step = resumed_step + 1
                    aborted = False
                    while True:
                        if self._pending_records(step) == 0:
                            # nothing is enabled: execution is over
                            steps_taken = step
                            break
                        max_steps = self._options.max_steps
                        if max_steps is not None and step >= max_steps:
                            steps_taken = step
                            break
                        self._run_step(step)
                        self._metrics.counter("barriers").add()
                        interval = self._options.checkpoint_interval
                        if interval and (step + 1) % interval == 0:
                            self._write_checkpoint(step)
                        if self._job.has_aborter and self._job.aborter(step, dict(self._agg_values)):
                            steps_taken = step + 1
                            aborted = True
                            break
                        step += 1
            result = self._finish_run(
                started,
                steps=steps_taken,
                aggregates=dict(self._agg_values),
                aborted=aborted,
                timeline=list(self._timeline),
            )
            if self._checkpoints is not None:
                # the job reached its natural end; a later resume must
                # not replay it from a stale barrier
                self._checkpoints.clear()
            return result
        finally:
            self._cleanup()

    # -- superstep checkpoints -------------------------------------------------
    def _write_checkpoint(self, step: int) -> None:
        """Capture everything a resume needs to restart after *step*."""
        started = time.perf_counter()
        with self._tracer.span("checkpoint", cat="engine", lane="driver", step=step):
            ledger = {
                s: dict(per_part) for s, per_part in self._spilled_per_step.items()
            }
            # engine counters fold with ``add`` on resume, high-water
            # marks with ``record_max``: split them by instrument kind
            counters: Dict[str, int] = {}
            maxima: Dict[str, int] = {}
            for name, entry in _job_counters(self._metrics.dump()).items():
                split = counters if entry["type"] == "counter" else maxima
                split[name] = entry["value"]
            payload = {
                "job_key": self._checkpoints.job_key,
                "step": step,
                "agg_values": dict(self._agg_values),
                "spill_ledger": ledger,
                "transport": list(self._transport.items()),
                "progress": list(self._progress.table.items()),
                "state_tables": [list(table.items()) for table in self._state_tables],
                "broadcast": dict(self._broadcast),
                "timeline": list(self._timeline),
                "counters": counters,
                "maxima": maxima,
            }
            n_bytes = self._checkpoints.save(step, payload)
        self._metrics.counter("checkpoints_written").add()
        self._metrics.counter("checkpoint_bytes").add(n_bytes)
        self._metrics.counter("engine.checkpoint_seconds", unit="seconds").add(
            time.perf_counter() - started
        )

    def _restore_checkpoint(self) -> int:
        """Restore the newest checkpoint; returns its completed step."""
        payload = self._checkpoints.load()
        if payload is None:
            raise RecoveryError(
                f"resume=True but no checkpoint exists for job key "
                f"{self._checkpoints.job_key!r}"
            )
        step = payload["step"]
        for table, items in zip(self._state_tables, payload["state_tables"]):
            # the store may hold post-checkpoint (or pre-crash) state;
            # the checkpoint's contents replace it wholesale
            stale = [key for key, _ in table.items()]
            if stale:
                table.delete_many(stale)
            if items:
                table.put_many(items)
        if payload["transport"]:
            self._transport.put_many(payload["transport"])
        if payload["progress"]:
            self._progress.table.put_many(payload["progress"])
        self._agg_values = dict(payload["agg_values"])
        self._broadcast = dict(payload["broadcast"])
        self._spilled_per_step = {
            s: dict(per_part) for s, per_part in payload["spill_ledger"].items()
        }
        self._timeline = list(payload["timeline"])
        for name, value in payload["counters"].items():
            self._metrics.counter(name).add(value)
        for name, value in payload["maxima"].items():
            self._metrics.gauge(name).record_max(value)
        # 1-based so "resumed at step 0" is distinguishable from "no resume"
        self._metrics.counter("resumed_from_step").add(step + 1)
        return step

    def _initialize(self) -> None:
        if self._direct_exporter is not None:
            self._direct_exporter.begin()
        ctx = _LoaderCtx(self)
        ctx.load_all(self._job.loaders())
        ctx.writer.flush_all()
        loaded = _PartStepResult({}, 0, 0)
        _harvest_writer(ctx.writer, 0, loaded)
        self._fold(loaded)
        # initial aggregator inputs are readable in step 0
        self._agg_values = {
            name: agg.finish(ctx.agg_partials[name]) for name, agg in self._aggs.items()
        }

    def _run_step(self, step: int) -> None:
        started = time.monotonic()
        # dispatch part-step tasks only where the spill path recorded
        # pending records — superstep cost scales with the frontier, not
        # with n_parts (§II-A selective enablement, part-level)
        active = self._active_parts(step)
        active_set = set(active)
        skipped = [p for p in range(self.n_parts) if p not in active_set]
        if skipped and self._progress is not None:
            # a skipped part has no inputs — record it as trivially
            # complete so recovery never re-drives it for this step
            self._progress.mark_completed_many(skipped, step)
        with self._tracer.span("superstep", cat="engine", lane="driver", step=step) as step_span:
            with self._tracer.span("barrier", cat="engine", lane="driver", step=step):
                result = self._run_part_steps(step, active)
            # ---- the synchronization barrier has happened here ----
            t_barrier = time.perf_counter()
            step_span.annotate(
                invocations=result.invocations, records_out=result.records_out
            )
            with self._tracer.span("aggregate", cat="engine", lane="driver", step=step):
                self._finish_step(result, step, active, skipped)
        # Per-part barrier wait: Σ over timed parts of (t_barrier −
        # finished_at), folded through the pairwise combine above.
        barrier_wait = max(0.0, result.n_timed * t_barrier - result.finished_sum)
        self._metrics.counter("engine.compute_seconds", unit="seconds").add(result.compute_seconds)
        self._metrics.counter("engine.flush_seconds", unit="seconds").add(result.flush_seconds)
        self._metrics.counter("engine.barrier_wait_seconds", unit="seconds").add(barrier_wait)
        from repro.ebsp.results import StepMetrics

        metrics_entry = StepMetrics(
            step=step,
            duration_seconds=time.monotonic() - started,
            invocations=result.invocations,
            records_out=result.records_out,
            parts_run=len(active),
            parts_skipped=len(skipped),
            compute_seconds=result.compute_seconds,
            flush_seconds=result.flush_seconds,
            barrier_wait_seconds=barrier_wait,
        )
        self._timeline.append(metrics_entry)
        # a monitoring callback must never fail a tenant's job
        if self._options.on_step is not None:
            try:
                self._options.on_step(metrics_entry)
            except Exception:
                pass

    def _finish_step(
        self,
        result: "_PartStepResult",
        step: int,
        active: List[int],
        skipped: List[int],
    ) -> None:
        """Post-barrier bookkeeping: counters, aggregation, spill ledger."""
        self._fold(result)
        self._metrics.counter("compute_invocations").add(result.invocations)
        self._metrics.counter("part_steps_run").add(len(active))
        if skipped:
            self._metrics.counter("parts_skipped").add(len(skipped))
            # a skipped part would have contributed the identity partial;
            # synthesize it client-side so aggregation is unchanged
            for name, agg in self._aggs.items():
                partial = result.agg_partials[name]
                for _ in skipped:
                    partial = agg.merge(partial, agg.create())
                result.agg_partials[name] = partial
        self._finish_aggregation(result.agg_partials)
        if self._fault_tolerance and self._ship_parts:
            # retained part-step results have been folded; drop them
            self._progress.clear_partials(active, step)
        self._spilled_per_step.pop(step, None)

    def _fold(self, result: "_PartStepResult") -> None:
        """Fold a barrier's part-step deltas into the job, on the driver:
        the spill ledger, counters, maxima, and direct outputs (exported
        here, in part order — the combine fold's order)."""
        for step, per_part in result.spills.items():
            dest = self._spilled_per_step.setdefault(step, {})
            for part, count in per_part.items():
                dest[part] = dest.get(part, 0) + count
        for name, value in result.counters.items():
            self._metrics.counter(name).add(value)
        for name, value in result.maxima.items():
            self._metrics.gauge(name).record_max(value)
        if self._direct_exporter is not None:
            for key, value in result.outputs:
                self._direct_exporter.export(key, value)

    # -- part-step recovery ----------------------------------------------------
    def _run_part_steps(self, step: int, active: List[int]) -> "_PartStepResult":
        """One step's part-steps as individually re-drivable futures.

        The one driver loop and the one recovery policy for every failed
        part-step: a
        :class:`~repro.ebsp.recovery.SimulatedFailure` raised in the
        part-step and a :class:`~repro.runtime.retry.WorkerLostError`
        (the worker died or was killed for blowing its deadline) fail
        only that part's future.  Recovery follows the paper's §IV-A
        outline: count a retry, consult the progress table — a part that
        committed before its worker died contributes its retained
        partial; a part that did not gets the failed attempt's spills
        deleted and is re-driven alone from its retained input spills,
        on whatever worker now owns the part (the respawned child, or
        the parent after degradation).  Past :data:`MAX_RETRIES` — or
        at once without fault tolerance, which retains nothing to re-drive
        from — the last failure propagates unchanged.  Results fold in
        part order, so recovery never perturbs aggregation order.
        """
        from repro.runtime.api import finished_future
        from repro.runtime.retry import WorkerLostError

        consumer = _StepConsumer(self, step)
        pending = self._transport.submit_part_steps(consumer, parts=active)
        results: Dict[int, _PartStepResult] = {}
        attempts: Dict[int, int] = {}
        budget = MAX_RETRIES if self._fault_tolerance else 0
        while pending:
            failed = []
            for part in sorted(pending):
                try:
                    results[part] = pending.pop(part).result()
                except (SimulatedFailure, WorkerLostError) as exc:
                    self._metrics.counter("part_step_retries").add()
                    attempts[part] = attempts.get(part, 0) + 1
                    if attempts[part] > budget:
                        raise
                    # a retried failure's traceback holds the frames that
                    # dispatched it (and their futures): drop it, or it
                    # keeps this engine in a cycle
                    exc.with_traceback(None)
                    failed.append(part)
            for part in failed:
                try:
                    if self._progress.completed_step(part) >= step:
                        # committed, then died before its result frame
                        # made it back: the retained partial is the fold
                        # input
                        partial = self._progress.recorded_partial(part, step)
                        if partial is not None:
                            results[part] = partial
                            continue
                    self._discard_failed_writes(part, step)
                    pending.update(
                        self._transport.submit_part_steps(consumer, parts=[part])
                    )
                except WorkerLostError as exc:
                    # Recovery itself tripped over a dead worker — the
                    # progress consult, discard, or resubmit landed in
                    # another casualty's mid-respawn window.  Try again on
                    # the next sweep, against the same retry budget, paced
                    # so a slow respawn cannot drain the budget in a spin.
                    time.sleep(min(0.1 * attempts[part], 1.0))
                    pending[part] = finished_future(exception=exc.with_traceback(None))
        combined: Optional[_PartStepResult] = None
        for part in sorted(results):
            combined = (
                results[part]
                if combined is None
                else consumer.combine(combined, results[part])
            )
        return combined

    def _discard_failed_writes(self, part: int, step: int) -> None:
        """Delete the spills a failed part-step attempt already shipped.

        A dying part-step's *local* writes never survive (they ride the
        mutation journal of the frame the worker never sent), but spills
        it pushed to parts on *other* workers did land.  They are
        addressable without any record of the failed attempt: everything
        the part-step wrote carries transport keys
        ``(dest, step+1, src_part=part, seq)``.
        """
        discarded = self._transport.enumerate_parts(
            _DiscardSpillsConsumer(step + 1, part)
        )
        if discarded:
            self._metrics.counter("spills_discarded").add(discarded)

    def _finish_aggregation(self, merged_partials: Dict[str, Any]) -> None:
        """Make aggregation results readable in the following step.

        The barrier already merged the per-part partials (paper §IV-A's
        client-side merge), so each aggregator only finishes its value.
        """
        self._agg_values = {
            name: agg.finish(merged_partials[name]) for name, agg in self._aggs.items()
        }

    # -- one part's slice of one step -----------------------------------------------
    def _run_part_step(self, part: int, view: Any, step: int) -> _PartStepResult:
        """One part's slice of one step.

        The plan's shape (a stateless class, so the engine holds it
        without a cycle) supplies the two halves that differ: ``collect``
        returns ``(work, creations, consumed)`` and ``drive`` runs the
        computes over *work*.  The span, writer and context, created-state
        staging, commit point, and result are shared by all shapes.
        """
        tracer = self._tracer
        shape = self._shape
        t_start = time.perf_counter()
        # Lane resolves from the executing runtime thread (worker-<i>).
        with tracer.span("part-step", cat="engine", part=part, step=step):
            with tracer.span("collect", cat="engine", part=part, step=step):
                collected = shape.collect(self, view, step)
            fell_back = collected is None
            if fell_back:
                # columnar keys not mutually orderable — nothing was
                # deleted or written yet, so the per-key shape re-drives
                # the spills
                shape = _PerKeyShape
                with tracer.span("collect", cat="engine", part=part, step=step):
                    collected = shape.collect(self, view, step)
            work, creations, consumed = collected
            if shape.early_delete and not self._fault_tolerance:
                # no retry possible ⇒ no need to retain the input spills;
                # dropping them now frees the raw records before the
                # computes allocate this step's outgoing messages
                for transport_key in consumed:
                    view.delete(transport_key)
                consumed = []

            writer = self._make_writer(part, step + 1, step, hold=self._fault_tolerance)
            ctx = _StepContext(self, step, writer)
            # stage created-state requests (they do not enable by
            # themselves); like all state writes they commit in batch at
            # the commit point
            base_ctx = _SimpleBaseContext(step)
            for dest_key, created in creations:
                for tab_idx, state in self._merge_creations(base_ctx, dest_key, created):
                    ctx._stage(tab_idx, dest_key, state)
            try:
                shape.drive(self, ctx, writer, part, step, work)
            except SimulatedFailure:
                writer.discard()
                raise

            # ---- commit point ----
            t_commit = time.perf_counter()
            result = _PartStepResult(
                ctx.agg_partials, ctx.invocations, 0, compute_seconds=t_commit - t_start
            )
            if fell_back:
                result.counters["batch_fallbacks"] = 1
            result.outputs = ctx.direct_outputs
            with tracer.span("commit", cat="engine", part=part, step=step):
                self._commit_part_step(ctx, writer, view, consumed, part, step, result)
            t_done = time.perf_counter()
        result.flush_seconds = t_done - t_commit
        result.finished_sum = t_done
        result.n_timed = 1
        return result

    def _commit_part_step(
        self,
        ctx: _StepContext,
        writer: SpillWriter,
        view: Any,
        consumed: List[tuple],
        part: int,
        step: int,
        result: _PartStepResult,
    ) -> None:
        """One part-step's commit point: batch state writes, flush
        transport, drop consumed spills, then mark progress.  The
        writes' counts land on *result*."""
        batches, records = ctx.commit_state()
        if batches:
            result.counters["state_writeback_batches"] = batches
            result.counters["state_writeback_records"] = records
        writer.flush_all()
        _harvest_writer(writer, step + 1, result)
        for transport_key in consumed:
            view.delete(transport_key)
        if self._fault_tolerance:
            if self._ship_parts:
                # Retain the fold input next to the completion mark (same
                # part of the progress table, same worker, same mutation
                # journal): if this worker dies after committing but
                # before its result frame reaches the parent, recovery
                # folds the retained result instead of re-driving inputs
                # this commit just deleted.  Cleared after the step's fold.
                self._progress.record_partial(part, step, result)
            self._progress.mark_completed(part, step)

    def _merge_creations(
        self, ctx: BaseContext, key: Any, created: List[Tuple[int, Any]]
    ) -> List[Tuple[int, Any]]:
        """Merge conflicting created states per (tab_idx, key)."""
        if not created:
            return []
        by_tab: Dict[int, Any] = {}
        for tab_idx, state in created:
            if tab_idx in by_tab:
                by_tab[tab_idx] = self._compute.combine_states(
                    ctx, key, by_tab[tab_idx], state
                )
            else:
                by_tab[tab_idx] = state
        return list(by_tab.items())

    # -- cleanup ------------------------------------------------------------------
    def _cleanup(self) -> None:
        # the compute's residency ends first, so its drops run in the
        # workers while the job's tables are dropped
        dropping = self._drop_resident_compute() if self._compute_ref is not None else []
        for name in (self._transport_name,):
            try:
                self._store.drop_table(name)
            except Exception:
                pass
        if self._progress is not None:
            try:
                self._store.drop_table(self._progress.table.name)
            except Exception:
                pass
        for future in dropping:
            try:
                future.result(timeout=5)
            except Exception:
                pass

    def _drop_resident_compute(self) -> List[Any]:
        """Start ending the compute's residency in every started worker;
        returns the drops' futures.  Best-effort, like a table drop: a
        dying worker takes its copy with it, and a respawned one holds
        none until a task carrying the reference arrives.  (The parent
        holds no copy: parent-side part-steps run on the engine itself.)"""
        runtime = self._runtime
        token = self._compute_ref.token
        futures = []
        for worker in runtime.started_workers():
            try:
                futures.append(runtime.submit_to_worker(worker, drop_resident, token))
            except Exception:
                pass
        return futures
