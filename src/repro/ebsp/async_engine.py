"""The no-synchronization EBSP engine (paper Sections II-A and IV-A).

    "When synchronization is not needed, the job is instead executed
    in one dispatch of EBSP implementation code to a queue set, where
    its instances invoke components and exchange messages until there
    is no more work to do."

Eligibility is the paper's ``no-sync`` rule:
``(no-collect ∧ no-ss-order ∨ incremental) ∧ no-agg ∧ no-client-sync``.
The essential guarantee the engine preserves is per-(sender, receiver)
message ordering — one FIFO queue per part, with each worker draining
its own queue — which is exactly what pipelined computations such as
SUMMA rely on.  Distributed termination is detected by Huang's
weight-throwing algorithm (:mod:`repro.ebsp.termination`).

When the job additionally has the ``run-anywhere`` optimization
(``no-collect ∧ rare-state``) *and* declares ``no_ss_order``, idle
workers steal queued work from the most loaded peer.

Without work stealing, a worker whose queue runs dry *parks* on an
activation event instead of spin-polling: senders raise the
destination part's event after enqueueing, so a frontier touching 3 of
64 parts costs 3 busy workers, not 64 pollers — the no-sync analog of
the synchronous engine's active-part scheduling.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    AggregatorError,
    ComputeError,
    JobSpecError,
    PropertyViolationError,
)
from repro.ebsp.job import ComputeContext, Job
from repro.ebsp.loaders import StagedLoaderContext
from repro.ebsp.properties import ExecutionPlan
from repro.ebsp.results import Counters, JobResult
from repro.ebsp.termination import WeightController, WeightPurse
from repro.obs.trace import Tracer, activate, resolve_tracer
from repro.kvstore.api import FnPairConsumer, KVStore, Table, TableSpec
from repro.messaging.api import MessageQueuing, QueueWorkerContext
from repro.messaging.local_queue import LocalMessageQueuing, LocalQueueSet

_job_ids = itertools.count()

_MSG = "m"
_ENABLE = "e"


class _AsyncContext(ComputeContext):
    """Compute context for the no-sync engine; rebound per invocation.

    There are no steps, so ``step_num`` reports the worker-local
    invocation sequence number — jobs eligible for no-sync execution
    must not depend on it for correctness (``no_ss_order`` or
    ``incremental`` says exactly that).
    """

    _ABSENT = object()

    def __init__(self, engine: "AsyncEngine", qctx: QueueWorkerContext, purse: WeightPurse):
        self._engine = engine
        self._qctx = qctx
        self._purse = purse
        self._key: Any = None
        self._messages: List[Any] = []
        self._state_buffer: Dict[int, Any] = {}
        self._dirty: set = set()
        self.invocations = 0
        self.messages_sent = 0

    def _bind(self, key: Any, messages: List[Any]) -> None:
        self._key = key
        self._messages = messages
        self._state_buffer = {}
        self._dirty = set()
        self.invocations += 1

    def _finish_invocation(self) -> None:
        for tab_idx in self._dirty:
            value = self._state_buffer[tab_idx]
            table = self._engine._state_tables[tab_idx]
            if value is _AsyncContext._ABSENT:
                table.delete(self._key)
            else:
                table.put(self._key, value)

    # -- ComputeContext API --------------------------------------------------
    @property
    def step_num(self) -> int:
        return self.invocations

    @property
    def key(self) -> Any:
        return self._key

    def _check_tab(self, tab_idx: int) -> None:
        if not 0 <= tab_idx < len(self._engine._state_tables):
            raise IndexError(
                f"state table index {tab_idx} out of range "
                f"(job has {len(self._engine._state_tables)} state tables)"
            )

    def read_state(self, tab_idx: int) -> Any:
        self._check_tab(tab_idx)
        if tab_idx in self._state_buffer:
            value = self._state_buffer[tab_idx]
            return None if value is _AsyncContext._ABSENT else value
        return self._engine._state_tables[tab_idx].get(self._key)

    def write_state(self, tab_idx: int, state: Any) -> None:
        self._check_tab(tab_idx)
        if state is None:
            raise ValueError("None is not a storable state; use delete_state()")
        self._state_buffer[tab_idx] = state
        self._dirty.add(tab_idx)

    def read_write_state(self, tab_idx: int) -> Any:
        state = self.read_state(tab_idx)
        if state is not None:
            self._state_buffer[tab_idx] = state
            self._dirty.add(tab_idx)
        return state

    def delete_state(self, tab_idx: int) -> None:
        self._check_tab(tab_idx)
        self._state_buffer[tab_idx] = _AsyncContext._ABSENT
        self._dirty.add(tab_idx)

    def create_state(self, tab_idx: int, key: Any, state: Any) -> None:
        self._check_tab(tab_idx)
        if state is None:
            raise ValueError("None is not a creatable state")
        # Without barriers the creation applies immediately.
        self._engine._state_tables[tab_idx].put(key, state)

    def input_messages(self) -> Iterator[Any]:
        return iter(self._messages)

    def output_message(self, key: Any, message: Any) -> None:
        if message is None:
            raise ValueError("None is not a sendable message")
        weight = self._purse.take_for_message()
        dest_part = self._engine._part_of(key)
        self._qctx.put(dest_part, (_MSG, key, message, weight))
        self._engine._activate(dest_part)
        self.messages_sent += 1

    def aggregate_value(self, name: str, value: Any) -> None:
        raise AggregatorError("a no-sync job cannot have aggregators (no-agg is required)")

    def get_aggregate_value(self, name: str) -> Any:
        raise AggregatorError("a no-sync job cannot have aggregators (no-agg is required)")

    def get_broadcast_datum(self, key: Any) -> Any:
        return self._engine._broadcast.get(key)

    def direct_job_output(self, key: Any, value: Any) -> None:
        exporter = self._engine._direct_exporter
        if exporter is not None:
            exporter.export(key, value)


class _AsyncLoaderCtx(StagedLoaderContext):
    """Loader context: seed messages take their weight from the controller."""

    def __init__(self, engine: "AsyncEngine"):
        super().__init__(engine._state_tables)
        self._engine = engine
        self.seeds: List[Tuple[int, tuple]] = []

    def send_message(self, key: Any, message: Any) -> None:
        weight = self._engine._controller.grant_for_message()
        self.seeds.append((self._engine._part_of(key), (_MSG, key, message, weight)))

    def enable(self, key: Any) -> None:
        weight = self._engine._controller.grant_for_message()
        self.seeds.append((self._engine._part_of(key), (_ENABLE, key, None, weight)))

    def aggregate_value(self, name: str, value: Any) -> None:
        raise AggregatorError("a no-sync job cannot have aggregators (no-agg is required)")


class AsyncEngine:
    """Executes a no-sync-eligible job without synchronization barriers."""

    def __init__(
        self,
        store: KVStore,
        job: Job,
        *,
        queuing: Optional[MessageQueuing] = None,
        poll_timeout: float = 0.02,
        batch_limit: int = 64,
        work_stealing: Optional[bool] = None,
        require_no_sync: bool = True,
        trace: Any = None,
        on_step: Optional[Any] = None,
    ):
        # ``on_step`` is accepted for signature parity with SyncEngine
        # (run_job forwards engine kwargs to whichever engine the plan
        # picks) but never fires: a no-sync run has no barriers, hence
        # no per-step timeline to report.
        del on_step
        self._store = store
        self._job = job
        # None defers to RIPPLE_TRACE; True/False/Tracer are explicit.
        self._tracer: Tracer = resolve_tracer(trace)
        self._compute = job.get_compute()
        aggs = job.aggregators()
        self._plan = ExecutionPlan.derive(job.properties(), bool(aggs), job.has_aborter)
        if require_no_sync and not self._plan.no_sync:
            raise JobSpecError(
                "job is not eligible for no-sync execution: requires "
                "(one-msg ∧ no-continue ∧ no-ss-order ∨ incremental) "
                "∧ no aggregators ∧ no aborter"
            )
        self._queuing = (
            queuing
            if queuing is not None
            else LocalMessageQueuing(runtime=getattr(store, "runtime", None))
        )
        self._poll_timeout = poll_timeout
        self._batch_limit = max(1, batch_limit)
        props = self._plan.properties
        if work_stealing is None:
            work_stealing = self._plan.run_anywhere and props.no_ss_order
        elif work_stealing and not (self._plan.run_anywhere and props.no_ss_order):
            raise JobSpecError(
                "work stealing requires the run-anywhere optimization "
                "(one-msg ∧ no-continue ∧ rare-state) plus no-ss-order"
            )
        self._work_stealing = work_stealing
        self._counters = Counters()
        # The store's worker runtime (when it has one) carries the gang
        # dispatch for the queue-set workers and the per-worker counters.
        self._runtime = getattr(store, "runtime", None)
        self._runtime_baseline = self._runtime.stats() if self._runtime is not None else None
        self._direct_exporter = job.direct_output_exporter()
        self._controller = WeightController()
        # set when any worker dies: peers must stop waiting for weight
        # that crashed with it
        self._abort = threading.Event()
        # per-part activation events (parking); created in run() when
        # work stealing is off — a stealing worker must stay awake to steal
        self._activation: Optional[List[threading.Event]] = None
        # key -> part memo for the engine-side routing lookup
        self._part_cache: Dict[Any, int] = {}
        self._jid = next(_job_ids)
        self._resolve_tables()
        self._broadcast = self._snapshot_broadcast()

    # -- setup (mirrors SyncEngine) ------------------------------------------------
    def _resolve_tables(self) -> None:
        names = self._job.state_table_names()
        if len(set(names)) != len(names):
            raise JobSpecError(f"duplicate state table names: {names}")
        reference_name = self._job.reference_table()
        n_parts: Optional[int] = None
        if reference_name is not None:
            n_parts = self._store.get_table(reference_name).n_parts
        else:
            for name in names:
                if self._store.has_table(name):
                    n_parts = self._store.get_table(name).n_parts
                    break
        if n_parts is None:
            n_parts = self._store.default_n_parts
        self.n_parts = n_parts
        self._state_tables: List[Table] = []
        for name in names:
            if self._store.has_table(name):
                table = self._store.get_table(name)
                if table.n_parts != n_parts:
                    raise JobSpecError(
                        f"state table {name!r} has {table.n_parts} parts; "
                        f"the job is partitioned into {n_parts}"
                    )
            else:
                table = self._store.create_table(TableSpec(name=name, n_parts=n_parts))
            self._state_tables.append(table)

    def _snapshot_broadcast(self) -> Dict[Any, Any]:
        name = self._job.broadcast_table()
        if name is None:
            return {}
        return dict(self._store.get_table(name).items())

    def _part_of(self, key: Any) -> int:
        try:
            return self._part_cache[key]
        except KeyError:
            pass
        except TypeError:  # unhashable key: route without caching
            return self._compute_part_of(key)
        part = self._compute_part_of(key)
        self._part_cache[key] = part
        return part

    def _compute_part_of(self, key: Any) -> int:
        if self._state_tables:
            return self._state_tables[0].part_of(key)
        from repro.util.hashing import part_for_key

        return part_for_key(key, self.n_parts)

    # -- parking --------------------------------------------------------------------
    def _activate(self, part: int) -> None:
        """Wake the worker owning *part* (no-op when parking is off).

        Senders call this *after* enqueueing, and a parking worker
        re-checks its queue after clearing its event, so a wakeup can
        never be lost between the two.
        """
        if self._activation is not None:
            self._activation[part].set()

    def _wake_all(self) -> None:
        if self._activation is not None:
            for event in self._activation:
                event.set()

    # -- execution -----------------------------------------------------------------
    def run(self) -> JobResult:
        started = time.monotonic()
        # Activated processwide: the queue-set workers run on gang
        # threads this engine does not own (see repro.obs.trace).
        with activate(self._tracer):
            with self._tracer.span("job", cat="engine", lane="driver", jid=self._jid):
                if self._direct_exporter is not None:
                    self._direct_exporter.begin()
                with self._tracer.span("load", cat="engine", lane="driver"):
                    loader_ctx = _AsyncLoaderCtx(self)
                    loader_ctx.load_all(self._job.loaders())

                queue_set = self._queuing.create_queue_set(
                    f"__ebsp_async_{self._jid}", self.n_parts
                )
                if not self._work_stealing:
                    # parking: a worker with no seed starts parked; its event is
                    # raised by the first message routed to it
                    self._activation = [threading.Event() for _ in range(self.n_parts)]
                try:
                    for part, record in loader_ctx.seeds:
                        queue_set.put(part, record)
                        self._activate(part)
                    if not loader_ctx.seeds:
                        # nothing to do: the controller still holds weight 1
                        invocations = [0] * self.n_parts
                    else:
                        invocations = queue_set.run_workers(self._worker)
                finally:
                    self._queuing.delete_queue_set(queue_set.name)

        total_invocations = sum(invocations)
        self._counters.add("compute_invocations", total_invocations)
        worker_stats: Dict[str, Any] = {}
        if self._runtime is not None and self._runtime_baseline is not None:
            from repro.runtime import stats_delta

            worker_stats = stats_delta(self._runtime_baseline, self._runtime.stats())
            registry = self._counters.registry
            registry.gauge("runtime.tasks").set(worker_stats.get("tasks", 0))
            registry.gauge("runtime.busy_seconds", unit="seconds").set(
                worker_stats.get("busy_seconds", 0.0)
            )
            registry.gauge("runtime.steals").set(worker_stats.get("steals", 0))
            registry.gauge("runtime.gang_tasks").set(worker_stats.get("gang_tasks", 0))
        result = JobResult(
            steps=0,
            aggregates={},
            aborted=False,
            counters=self._counters.snapshot(),
            elapsed_seconds=time.monotonic() - started,
            synchronized=False,
            worker_stats=worker_stats,
            metrics=self._counters.registry.dump(),
        )
        if self._tracer.enabled:
            from repro.obs.export import export_tracer

            result.trace = export_tracer(
                self._tracer, extra_metadata={"engine": "async"}
            )
        from repro.ebsp.results import record_job_stats, record_job_trace

        job_seq = record_job_stats(self._store, result)
        record_job_trace(self._store, job_seq, result)
        self._export_outputs()
        self._job.on_complete(result)
        return result

    def _worker(self, qctx: QueueWorkerContext) -> int:
        try:
            result = self._worker_loop(qctx)
        except BaseException:
            self._abort.set()
            self._wake_all()
            raise
        # a worker that saw termination wakes every parked peer so they
        # can observe it too
        self._wake_all()
        return result

    def _worker_loop(self, qctx: QueueWorkerContext) -> int:
        purse = WeightPurse()
        ctx = _AsyncContext(self._engine_self(), qctx, purse)
        no_continue = self._plan.properties.no_continue
        can_steal = self._work_stealing and isinstance(
            getattr(qctx, "_queue_set", None), LocalQueueSet
        )
        event = (
            self._activation[qctx.part_index] if self._activation is not None else None
        )
        tracer = self._tracer
        # Phase attribution: time blocked on the queue (polls, parks) vs
        # time invoking components, folded into the registry at loop end.
        queue_wait = 0.0
        compute_seconds = 0.0
        while not self._controller.is_done() and not self._abort.is_set():
            t_poll = time.perf_counter()
            record = qctx.read(timeout=self._poll_timeout)
            queue_wait += time.perf_counter() - t_poll
            if record is None and can_steal:
                record = self._try_steal(qctx)
                if record is not None:
                    self._counters.add("messages_stolen")
                    if self._runtime is not None:
                        self._runtime.record_steal(qctx.part_index)
            if record is None:
                if not purse.empty:
                    self._controller.return_weight(purse.drain())
                if event is not None:
                    # park until a sender raises our event; clearing first
                    # and re-checking the queue closes the put/set race
                    event.clear()
                    record = qctx.read(timeout=0)
                    if record is None:
                        if self._controller.is_done() or self._abort.is_set():
                            break
                        self._counters.add("worker_parks")
                        with tracer.span("park", cat="engine", part=qctx.part_index):
                            t_park = time.perf_counter()
                            event.wait()
                            queue_wait += time.perf_counter() - t_park
                        continue
                else:
                    continue
            batch = [record]
            while len(batch) < self._batch_limit:
                extra = qctx.read(timeout=0)
                if extra is None:
                    break
                batch.append(extra)
            for rec in batch:
                purse.receive(rec[3])
            # group per destination key, preserving arrival order
            groups: Dict[Any, List[Any]] = {}
            order: List[Any] = []
            for rec in batch:
                key = rec[1]
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                if rec[0] == _MSG:
                    groups[key].append(rec[2])
            t_invoke = time.perf_counter()
            with tracer.span(
                "invoke-batch", cat="engine", part=qctx.part_index, records=len(batch)
            ):
                for key in order:
                    ctx._bind(key, groups[key])
                    try:
                        cont = bool(self._compute.compute(ctx))
                    except Exception as exc:
                        raise ComputeError(key, ctx.invocations, exc) from exc
                    ctx._finish_invocation()
                    if cont:
                        if no_continue:
                            raise PropertyViolationError(
                                f"job declares no-continue but component {key!r} "
                                "returned the positive signal"
                            )
                        weight = purse.take_for_message()
                        dest_part = self._part_of(key)
                        qctx.put(dest_part, (_ENABLE, key, None, weight))
                        self._activate(dest_part)
            compute_seconds += time.perf_counter() - t_invoke
            if not purse.empty:
                self._controller.return_weight(purse.drain())
        self._counters.add("messages_sent", ctx.messages_sent)
        registry = self._counters.registry
        registry.counter("engine.compute_seconds", unit="seconds").add(compute_seconds)
        registry.counter("engine.queue_wait_seconds", unit="seconds").add(queue_wait)
        return ctx.invocations

    def _engine_self(self) -> "AsyncEngine":
        return self

    def _try_steal(self, qctx: QueueWorkerContext) -> Optional[tuple]:
        queue_set: LocalQueueSet = qctx._queue_set  # type: ignore[attr-defined]
        return queue_set.steal(exclude=qctx.part_index)

    # -- outputs --------------------------------------------------------------------
    def _export_outputs(self) -> None:
        exporters = self._job.state_exporters()
        for table_name, exporter in exporters.items():
            if table_name not in self._job.state_table_names():
                raise JobSpecError(
                    f"state exporter for {table_name!r}, which is not a state table"
                )
            table = self._store.get_table(table_name)
            exporter.begin()
            table.enumerate_pairs(
                FnPairConsumer(lambda key, value: exporter.export(key, value))
            )
            exporter.end()
        if self._direct_exporter is not None:
            self._direct_exporter.end()
