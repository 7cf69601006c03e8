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

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    AggregatorError,
    ComputeError,
    JobSpecError,
    PropertyViolationError,
)
from repro.ebsp.frame import FrameContext, JobFrame
from repro.ebsp.job import Job
from repro.ebsp.loaders import StagedLoaderContext
from repro.ebsp.results import JobResult
from repro.ebsp.termination import WeightController, WeightPurse
from repro.obs.trace import activate
from repro.kvstore.api import KVStore
from repro.messaging.api import MessageQueuing, QueueWorkerContext
from repro.messaging.local_queue import LocalMessageQueuing, LocalQueueSet

_MSG = "m"
_ENABLE = "e"

#: Records a worker drains from its queue per batch.
BATCH_LIMIT = 64


class _AsyncContext(FrameContext):
    """Compute context for the no-sync engine; rebound per invocation.

    There are no steps, so ``step_num`` reports the worker-local
    invocation sequence number — jobs eligible for no-sync execution
    must not depend on it for correctness (``no_ss_order`` or
    ``incremental`` says exactly that).
    """

    def __init__(self, engine: "AsyncEngine", qctx: QueueWorkerContext, purse: WeightPurse):
        super().__init__(engine)
        self._qctx = qctx
        self._purse = purse
        self.messages_sent = 0

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

    def read_state(self, tab_idx: int) -> Any:
        self._check_tab(tab_idx)
        if tab_idx in self._state_buffer:
            value = self._state_buffer[tab_idx]
            return None if value is _AsyncContext._ABSENT else value
        return self._engine._state_tables[tab_idx].get(self._key)

    def create_state(self, tab_idx: int, key: Any, state: Any) -> None:
        self._check_tab(tab_idx)
        if state is None:
            raise ValueError("None is not a creatable state")
        # Without barriers the creation applies immediately.
        self._engine._state_tables[tab_idx].put(key, state)

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


class AsyncEngine(JobFrame):
    """Executes a no-sync-eligible job without synchronization barriers."""

    def __init__(
        self,
        store: KVStore,
        job: Job,
        *,
        queuing: Optional[MessageQueuing] = None,
        poll_timeout: float = 0.02,
        work_stealing: Optional[bool] = None,
        trace: Any = None,
        on_step: Optional[Any] = None,
    ):
        # ``on_step`` is accepted for signature parity with SyncEngine
        # (run_job forwards engine kwargs to whichever engine the plan
        # picks) but never fires: a no-sync run has no barriers, hence
        # no per-step timeline to report.
        del on_step
        super().__init__(store, job, trace)
        if not self._plan.no_sync:
            raise JobSpecError(
                "job is not eligible for no-sync execution: requires "
                "(one-msg ∧ no-continue ∧ no-ss-order ∨ incremental) "
                "∧ no aggregators ∧ no aborter"
            )
        self._queuing = (
            queuing
            if queuing is not None
            else LocalMessageQueuing(runtime=self._runtime)
        )
        self._poll_timeout = poll_timeout
        props = self._plan.properties
        if work_stealing is None:
            work_stealing = self._plan.run_anywhere and props.no_ss_order
        elif work_stealing and not (self._plan.run_anywhere and props.no_ss_order):
            raise JobSpecError(
                "work stealing requires the run-anywhere optimization "
                "(one-msg ∧ no-continue ∧ rare-state) plus no-ss-order"
            )
        self._work_stealing = work_stealing
        self._controller = WeightController()
        # set when any worker dies: peers must stop waiting for weight
        # that crashed with it
        self._abort = threading.Event()
        # per-part activation events (parking); created in run() when
        # work stealing is off — a stealing worker must stay awake to steal
        self._activation: Optional[List[threading.Event]] = None
        self._open()

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

        self._metrics.counter("compute_invocations").add(sum(invocations))
        return self._finish_run(started, {"engine": "async"}, steps=0, synchronized=False)

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
        ctx = _AsyncContext(self, qctx, purse)
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
                    self._metrics.counter("messages_stolen").add()
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
                        self._metrics.counter("worker_parks").add()
                        with tracer.span("park", cat="engine", part=qctx.part_index):
                            t_park = time.perf_counter()
                            event.wait()
                            queue_wait += time.perf_counter() - t_park
                        continue
                else:
                    continue
            batch = [record]
            while len(batch) < BATCH_LIMIT:
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
        self._metrics.counter("messages_sent").add(ctx.messages_sent)
        self._metrics.counter("engine.compute_seconds", unit="seconds").add(compute_seconds)
        self._metrics.counter("engine.queue_wait_seconds", unit="seconds").add(queue_wait)
        return ctx.invocations

    def _try_steal(self, qctx: QueueWorkerContext) -> Optional[tuple]:
        queue_set: LocalQueueSet = qctx._queue_set  # type: ignore[attr-defined]
        return queue_set.steal(exclude=qctx.part_index)
