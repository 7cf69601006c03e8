"""The no-synchronization EBSP engine (paper Sections II-A and IV-A).

    "When synchronization is not needed, the job is instead executed
    in one dispatch of EBSP implementation code to a queue set, where
    its instances invoke components and exchange messages until there
    is no more work to do."

Eligibility is the paper's ``no-sync`` rule:
``(no-collect ∧ no-ss-order ∨ incremental) ∧ no-agg ∧ no-client-sync``.

The implementation code is a *drain*: one task that takes up to
:data:`BATCH_LIMIT` records from one part's queue, invokes compute per
destination key in arrival order through the frame's write-back cache,
and commits each dirtied state table in one batch.  A message is posted
as it is sent, so a pipelined computation's next stage starts while
the sender computes on.  A post that gives a part work puts the part on
a ready deque; the driver loop in :meth:`AsyncEngine.run` submits a
ready part's drain to that part's long lane, at most one drain per
part at a time, and a drain that ends with records still queued
re-queues its part.  Queues are FIFO, one drain serves a part at a
time, and a drain posts in send order, so per-(sender, receiver)
ordering holds — exactly what pipelined computations such as SUMMA
rely on.  Distributed termination is detected by Huang's
weight-throwing algorithm (:mod:`repro.ebsp.termination`).

The same loop serves every runtime.  On the inline one each drain runs
to completion inside its submit, so a run is single-threaded and its
drain order deterministic.

When the plan steals — the job has the ``run-anywhere`` optimization
(``no-collect ∧ rare-state``) *and* declares ``no_ss_order`` — idle
workers steal: a part may have one drain in flight per worker, the
extra ones on the lanes of workers that have none.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    AggregatorError,
    ComputeError,
    PropertyViolationError,
    TerminationError,
)
from repro.ebsp.frame import FrameContext, JobFrame
from repro.ebsp.job import Job
from repro.ebsp.loaders import StagedLoaderContext
from repro.ebsp.properties import plan_for
from repro.ebsp.results import JobResult
from repro.ebsp.termination import WeightController, WeightPurse
from repro.obs.trace import activate
from repro.kvstore.api import KVStore
from repro.messaging.api import MessageQueuing, QueueSet
from repro.messaging.local_queue import LocalMessageQueuing

_MSG = "m"
_ENABLE = "e"

#: Records one drain takes from its part's queue.
BATCH_LIMIT = 64


class _AsyncContext(FrameContext):
    """One drain's compute context; rebound per component.

    What differs from the synchronous step context: a send is posted at
    once, carrying Huang weight from the drain's purse; a created state
    is written at once, before anything sent after it can arrive; direct
    outputs wait for the drain's commit; and, there being no steps,
    ``step_num`` is the drain-local invocation number — jobs eligible
    for no-sync execution must not depend on it (``no_ss_order`` or
    ``incremental`` says exactly that).
    """

    def __init__(self, engine: "AsyncEngine", purse: WeightPurse):
        super().__init__(engine)
        self._purse = purse
        self.direct_outputs: List[Tuple[Any, Any]] = []
        self.messages_sent = 0

    def _send(self, kind: str, key: Any, message: Any) -> None:
        record = (kind, key, message, self._purse.take_for_message())
        self._engine._post(self._engine._part_of(key), record)

    # -- ComputeContext API --------------------------------------------------
    @property
    def step_num(self) -> int:
        return self.invocations

    def create_state(self, tab_idx: int, key: Any, state: Any) -> None:
        self._check_tab(tab_idx)
        if state is None:
            raise ValueError("None is not a creatable state")
        self._engine._state_tables[tab_idx].put(key, state)
        # the creation supersedes what this drain read or staged for key
        self._cache.pop((tab_idx, key), None)
        self._dirty_tabs.get(tab_idx, {}).pop(key, None)

    def output_message(self, key: Any, message: Any) -> None:
        if message is None:
            raise ValueError("None is not a sendable message")
        self._send(_MSG, key, message)
        self.messages_sent += 1

    def aggregate_value(self, name: str, value: Any) -> None:
        raise AggregatorError("a no-sync job cannot have aggregators (no-agg is required)")

    def get_aggregate_value(self, name: str) -> Any:
        raise AggregatorError("a no-sync job cannot have aggregators (no-agg is required)")

    def direct_job_output(self, key: Any, value: Any) -> None:
        if self._engine._direct_exporter is not None:
            self.direct_outputs.append((key, value))


class _AsyncLoaderCtx(StagedLoaderContext):
    """Loader context: seed messages take their weight from the controller."""

    def __init__(self, engine: "AsyncEngine"):
        super().__init__(engine._state_tables)
        self._engine = engine

    def _seed(self, kind: str, key: Any, message: Any) -> None:
        engine = self._engine
        record = (kind, key, message, engine._controller.grant_for_message())
        engine._post(engine._part_of(key), record)

    def send_message(self, key: Any, message: Any) -> None:
        self._seed(_MSG, key, message)

    def enable(self, key: Any) -> None:
        self._seed(_ENABLE, key, None)

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
        trace: Any = None,
        on_step: Optional[Any] = None,
    ):
        # ``on_step`` is accepted for signature parity with SyncEngine
        # (run_job forwards engine kwargs to whichever engine the plan
        # picks) but never fires: a no-sync run has no barriers, hence
        # no per-step timeline to report.
        del on_step
        super().__init__(store, job, trace)
        # refuses an ineligible job; decides work stealing
        self._plan = plan_for(job, store, compute=self._compute, synchronize=False)
        self._work_stealing = self._plan.work_stealing
        self._queuing = queuing if queuing is not None else LocalMessageQueuing()
        self._controller = WeightController()
        self._open()
        # The schedule, shared by the driver and the drains under one
        # condition: the ready deque (and which parts are on it), the
        # drains in flight per part, per worker and in all, and the
        # first drain failure.
        self._cond = threading.Condition(threading.Lock())
        self._ready: Deque[int] = deque()
        self._queued = [False] * self.n_parts
        self._in_flight = [0] * self.n_parts
        self._busy = [0] * self._runtime.n_workers
        self._drains = 0
        self._failure: Optional[BaseException] = None
        self._queue_set: Optional[QueueSet] = None

    # -- execution -----------------------------------------------------------------
    def run(self) -> JobResult:
        started = time.monotonic()
        # Activated processwide: drains run on runtime threads this
        # engine does not own (see repro.obs.trace).
        with activate(self._tracer):
            with self._tracer.span("job", cat="engine", lane="driver", jid=self._jid):
                if self._direct_exporter is not None:
                    self._direct_exporter.begin()
                self._queue_set = self._queuing.create_queue_set(
                    f"__ebsp_async_{self._jid}", self.n_parts
                )
                try:
                    with self._tracer.span("load", cat="engine", lane="driver"):
                        _AsyncLoaderCtx(self).load_all(self._job.loaders())
                    if self._ready:
                        self._drive()
                finally:
                    self._queuing.delete_queue_set(self._queue_set.name)
                    self._queue_set = None
        self._metrics.counter("compute_invocations")
        return self._finish_run(started, {"engine": "async"}, steps=0)

    def _drive(self) -> None:
        """Submit ready parts' drains until none is ready or in flight."""
        runtime = self._runtime
        cond = self._cond
        while True:
            with cond:
                while not self._ready and self._drains and self._failure is None:
                    cond.wait()
                if not self._ready or self._failure is not None:
                    break
                part = self._ready.popleft()
                self._queued[part] = False
                lanes = self._lanes_for(part)
                for lane in lanes:
                    self._in_flight[part] += 1
                    self._busy[runtime.worker_of(lane)] += 1
                    self._drains += 1
            for lane in lanes:
                try:
                    runtime.submit_long(lane, AsyncEngine._drain, self, part, lane)
                except BaseException as exc:
                    self._end_drain(part, lane, exc)
        with cond:
            while self._drains:
                cond.wait()
            failure, self._failure = self._failure, None
        if failure is not None:
            try:
                raise failure
            finally:
                # the raised traceback holds this frame: drop the local
                # so exception and engine form no cycle
                failure = None
        if not self._controller.is_done():
            raise TerminationError(
                f"no drain is left, but the controller holds {self._controller.held}"
            )

    def _lanes_for(self, part: int) -> List[int]:
        """The lanes to drain *part* on (caller holds the condition):
        its own, plus — when stealing — one per idle worker, while the
        queue holds more than the drains in flight take."""
        runtime = self._runtime
        n_workers = runtime.n_workers
        if self._in_flight[part] >= (n_workers if self._work_stealing else 1):
            return []  # a drain in flight re-queues the part when it ends
        lanes = [part]
        if self._work_stealing:
            wanted = -(-self._queue_set.pending(part) // BATCH_LIMIT)
            home = runtime.worker_of(part)
            for worker in range(n_workers):
                if self._in_flight[part] + len(lanes) >= min(wanted, n_workers):
                    break
                if worker != home and not self._busy[worker]:
                    lanes.append(worker)
        return lanes

    def _post(self, part: int, record: tuple) -> None:
        """Enqueue *record* for *part*, then mark the part ready unless
        it is queued or being drained."""
        self._queue_set.put(part, record)
        with self._cond:
            if not self._queued[part] and not self._in_flight[part]:
                self._queued[part] = True
                self._ready.append(part)
                self._cond.notify()

    def _end_drain(self, part: int, lane: int, failure: Optional[BaseException] = None) -> None:
        """Hand *part*'s drain slot back, re-queueing the part if records
        wait — under the condition posts use, so no wakeup is lost."""
        with self._cond:
            self._in_flight[part] -= 1
            self._busy[self._runtime.worker_of(lane)] -= 1
            self._drains -= 1
            if failure is not None and self._failure is None:
                self._failure = failure
            if not self._queued[part] and self._queue_set.pending(part):
                self._queued[part] = True
                self._ready.append(part)
            self._cond.notify()

    def _drain(self, part: int, lane: int) -> None:
        # Runs on *lane*'s long slot.  A failure goes to the driver, not
        # into the runtime's future: the runtime keeps its last long
        # future per worker, and with it whatever the future holds.
        try:
            if self._failure is None:
                self._drain_part(part, lane)
        except BaseException as exc:
            self._end_drain(part, lane, exc)
        else:
            self._end_drain(part, lane)

    def _drain_part(self, part: int, lane: int) -> None:
        records = self._queue_set.take(part, BATCH_LIMIT)
        if not records:
            return
        runtime = self._runtime
        if runtime.worker_of(lane) != runtime.worker_of(part):
            self._metrics.counter("messages_stolen").add(len(records))
            for _ in records:
                runtime.record_steal(lane)
        purse = WeightPurse()
        # group per destination key, preserving arrival order
        groups: Dict[Any, List[Any]] = {}
        for kind, key, message, weight in records:
            purse.receive(weight)
            messages = groups.setdefault(key, [])
            if kind == _MSG:
                messages.append(message)
        ctx = _AsyncContext(self, purse)
        compute = self._compute
        no_continue = self._plan.properties.no_continue
        t_start = time.perf_counter()
        with self._tracer.span("drain", cat="engine", part=part, records=len(records)):
            for key, messages in groups.items():
                ctx._bind(key, messages)
                try:
                    cont = compute.compute(ctx)
                except Exception as exc:
                    raise ComputeError(key, ctx.invocations, exc) from exc
                ctx._finish_invocation()
                if cont:
                    if no_continue:
                        raise PropertyViolationError(
                            f"job declares no-continue but component {key!r} "
                            "returned the positive signal"
                        )
                    ctx._send(_ENABLE, key, None)
            ctx.commit_state()
        self._metrics.counter("engine.compute_seconds", unit="seconds").add(
            time.perf_counter() - t_start
        )
        self._metrics.counter("compute_invocations").add(ctx.invocations)
        self._metrics.counter("messages_sent").add(ctx.messages_sent)
        if ctx.direct_outputs:
            # exported under the condition: exporter calls never overlap
            with self._cond:
                for key, value in ctx.direct_outputs:
                    self._direct_exporter.export(key, value)
        if not purse.empty:
            self._controller.return_weight(purse.drain())
