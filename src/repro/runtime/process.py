"""The multi-core runtime: one OS process per worker, pipes in between.

Every other runtime executes workers as threads in one interpreter, so
compute-bound part-steps serialize on the GIL and "as fast as the
hardware allows" tops out at one core.  :class:`ProcessRuntime` keeps
the whole :class:`~repro.runtime.api.WorkerRuntime` SPI — placement,
FIFO short lanes, one-at-a-time long ops, drain-then-stop
idempotent close, per-worker stats — but serves each worker from a
dedicated child process.

Shipping is opt-in
------------------

Only functions marked with :func:`~repro.runtime.shipping.shippable`
execute in a worker process; everything else (closures over shared
memory, bound methods, test lambdas) runs on the inherited
:class:`~repro.runtime.threaded.ThreadedRuntime` machinery in the
parent, against whatever proxies the caller handed it.  This is what
lets every existing store, queue set, engine, and the scheduler run
unmodified on ``runtime="process"``: their un-marked callables keep
shared-memory semantics, while the partitioned store's module-level
part operations (and the sync engine's shipped part-steps) opt in and
escape the GIL.

Transport
---------

One duplex pipe per worker.  A task travels as **one** pickle — the
``(fn, args)`` payload is marshalled once in the parent and the bytes
pass through :meth:`Connection.send` untouched, so routing a sealed
compact-codec spill batch to its owner process costs one object-graph
pickle, not two.  Results, exceptions, and recorded trace spans travel
back the same way; a per-child parent listener thread resolves
futures, folds per-worker busy time into the shared counters, and
replays child spans (clock-rebased — ``perf_counter`` is
CLOCK_MONOTONIC processwide on Linux) into the active tracer so a
traced run exports one merged Perfetto timeline.

A task running in worker *A* that needs part state owned by worker *B*
sends an *upcall*: the already-pickled operation payload goes to the
parent, which forwards the bytes verbatim to *B* and routes the reply
back — the parent never unpickles what it merely routes.

Crash tolerance
---------------

A worker death is detected two ways: the listener thread sees pipe
EOF, and a per-child sentinel watcher joins the process (under
``fork`` a later child inherits the parent ends of earlier children's
pipes, so EOF alone cannot detect a SIGKILLed child — the sentinel
watch is what makes detection reliable).  Both paths funnel into one
idempotent exit handler that fails the worker's in-flight futures with
:class:`~repro.runtime.retry.WorkerLostError` (naming the dead pid and
what happens next) and, when a :class:`~repro.runtime.retry.RetryPolicy`
is attached, respawns the child with exponential backoff up to the
policy's bounded attempt budget.  After a respawn, registered *rebuild
hooks* (the partitioned store's part-residency reload) repopulate the
fresh child; once the budget is exhausted the worker *degrades* —
registered degrade hooks move its state parent-side and every
subsequent shippable task for that worker runs on the inherited
threaded fallback instead of failing the job.  A policy with a
``task_deadline`` additionally arms a monitor that SIGKILLs a worker
whose task has run past the deadline, surfacing the overdue task as
:class:`~repro.runtime.retry.TaskTimeoutError`.

Workers with an attached *journal sink* ship a per-task mutation
journal back on every ``done``/``xdone`` frame; the partitioned store
uses it to mirror each child's part contents parent-side so a respawn
can rebuild them.  The journal is applied before the task's future
resolves, so callers always observe a mirror at least as new as any
result they hold.

Lifecycle
---------

Children start lazily (a store that never ships a task spawns zero
processes) and are daemons with a parent-pid watchdog: under ``fork``
a later child inherits the parent ends of earlier children's pipes,
so pipe EOF alone cannot signal "parent is gone" — the watchdog makes
orphaned children exit within a second of the parent dying uncleanly.
``close()`` drains the parent-side fallback first, waits for every
in-flight remote future, then sends each child a stop frame (children
drain their queues before exiting) and joins processes, listeners,
and sentinel watchers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
import warnings
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.trace import RecordingTracer, activate, get_tracer
from repro.runtime.api import RuntimeClosedError
from repro.runtime.retry import RetryPolicy, TaskTimeoutError, WorkerLostError
from repro.runtime.shipping import ShippingError, is_shippable
from repro.runtime.threaded import ThreadedRuntime

_PROTO = pickle.HIGHEST_PROTOCOL

#: Seconds between parent-liveness polls in a worker's watchdog thread.
_WATCHDOG_INTERVAL = 1.0

#: Upper bound on how long a submission waits for an in-progress respawn.
_RESPAWN_WAIT_LIMIT = 120.0


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=_PROTO)


class _ChildHandle:
    """Parent-side record of one started worker process."""

    __slots__ = ("process", "conn", "send_lock", "listener", "clean_exit")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.listener: Optional[threading.Thread] = None
        self.clean_exit = False

    def send(self, frame: tuple) -> None:
        with self.send_lock:
            self.conn.send(frame)


class ProcessRuntime(ThreadedRuntime):
    """N worker processes behind the WorkerRuntime SPI.

    Parameters mirror :class:`ThreadedRuntime`; *start_method* (or the
    ``RIPPLE_MP_START`` environment variable) picks the
    ``multiprocessing`` start method, defaulting to ``fork`` where
    available (``spawn`` elsewhere).  *retry_policy* opts the runtime
    into crash tolerance: without one, a dead worker stays down and its
    tasks fail with :class:`WorkerLostError`.
    """

    kind = "process"
    shares_memory = False

    def __init__(
        self,
        n_workers: int,
        name: str = "worker",
        long_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        super().__init__(n_workers, name=name, long_workers=long_workers)
        method = start_method or os.environ.get("RIPPLE_MP_START")
        if method is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._mp = multiprocessing.get_context(method)
        self._children: List[Optional[_ChildHandle]] = [None] * n_workers
        self._spawn_lock = threading.Lock()
        self._pending: Dict[int, Tuple[Future, int, Optional[float], Optional[int]]] = {}
        self._pending_lock = threading.Lock()
        self._pending_per_worker = [0] * n_workers
        self._task_seq = 0
        self._serde_stats: Any = None
        self._proc_closed = False
        self._proc_close_lock = threading.Lock()
        # -- crash tolerance ------------------------------------------------
        self._policy = retry_policy
        self._respawns = 0
        self._timeouts = 0
        self._degraded = [False] * n_workers
        self._dead = [False] * n_workers
        self._respawning = [False] * n_workers
        self._respawn_attempts = [0] * n_workers
        self._worker_gates = [threading.Event() for _ in range(n_workers)]
        for gate in self._worker_gates:
            gate.set()
        self._gate_tls = threading.local()
        self._last_pids: Dict[int, int] = {}
        self._rebuild_hooks: List[Callable[[int], None]] = []
        self._degrade_hooks: List[Callable[[int], None]] = []
        self._journal_sink: Optional[Callable[[list], None]] = None
        # in-flight upcalls, keyed (source worker, uid): the child that
        # sent each, and the child it was forwarded to
        self._upcall_sources: Dict[Tuple[int, int], _ChildHandle] = {}
        self._upcall_dests: Dict[Tuple[int, int], _ChildHandle] = {}
        self._upcall_src_lock = threading.Lock()
        self._timed_out_tids: Set[int] = set()
        self._deadline_thread: Optional[threading.Thread] = None

    # -- serde accounting ----------------------------------------------------
    def attach_serde_stats(self, stats: Any) -> None:
        """Count shipped payload bytes against a store's ``SerdeStats``."""
        self._serde_stats = stats

    # -- crash-tolerance wiring ----------------------------------------------
    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        return self._policy

    def attach_journal_sink(self, sink: Callable[[list], None]) -> None:
        """Receive each task's mutation journal (before its future resolves).

        Must be attached before any worker process starts: journaling is
        decided at spawn time, and a child started earlier would ship no
        journal for its writes.
        """
        if any(child is not None for child in self._children):
            raise ShippingError(
                "attach_journal_sink must be called before any worker process starts"
            )
        self._journal_sink = sink

    def add_rebuild_hook(self, hook: Callable[[int], None]) -> None:
        """Run *hook(worker)* after a respawn, before the worker reopens."""
        self._rebuild_hooks.append(hook)

    def add_degrade_hook(self, hook: Callable[[int], None]) -> None:
        """Run *hook(worker)* when a worker's respawn budget is exhausted."""
        self._degrade_hooks.append(hook)

    def is_degraded(self, lane: int) -> bool:
        """True if *lane*'s worker fell back to parent-side execution."""
        return self._degraded[self.worker_of(lane)]

    def degraded_workers(self) -> List[int]:
        return [i for i, flag in enumerate(self._degraded) if flag]

    # -- submission ----------------------------------------------------------
    def submit(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        if not is_shippable(fn) or self._fallback_to_parent(self.worker_of(lane)):
            return super().submit(lane, fn, *args)
        return self._submit_remote(self.worker_of(lane), fn, args, is_long=False)

    def submit_long(self, lane: int, fn: Callable[..., Any], *args: Any) -> Future:
        if not is_shippable(fn) or self._fallback_to_parent(self.worker_of(lane)):
            return super().submit_long(lane, fn, *args)
        return self._submit_remote(self.worker_of(lane), fn, args, is_long=True)

    def submit_to_worker(self, worker: int, fn: Callable[..., Any], *args: Any) -> Future:
        if not is_shippable(fn) or self._fallback_to_parent(worker):
            return super().submit_to_worker(worker, fn, *args)
        return self._submit_remote(worker, fn, args, is_long=False)

    def _fallback_to_parent(self, worker: int) -> bool:
        """Wait out an in-progress respawn; True → run on the parent fallback."""
        gate = self._worker_gates[worker]
        if not gate.is_set() and not getattr(self._gate_tls, "bypass", False):
            if not gate.wait(timeout=_RESPAWN_WAIT_LIMIT):
                raise ShippingError(
                    f"worker {worker} of runtime {self.name!r} did not come back "
                    f"within {_RESPAWN_WAIT_LIMIT:.0f}s of its respawn starting"
                )
        if self._dead[worker]:
            raise WorkerLostError(
                f"worker process {worker} (pid {self._last_pids.get(worker)}) of "
                f"runtime {self.name!r} died and no retry policy is set"
            )
        return self._degraded[worker]

    def _ship_payload(self, fn: Callable[..., Any], args: tuple) -> bytes:
        """One pickle for the whole task; diagnose the culprit on failure."""
        try:
            payload = _dumps((fn, args))
        except Exception as exc:
            name = getattr(fn, "__qualname__", None) or repr(fn)
            culprit = f"task {name!r}"
            for index, arg in enumerate(args):
                try:
                    _dumps(arg)
                except Exception:
                    culprit = (
                        f"argument {index} of task {name!r} "
                        f"({type(arg).__name__} instance)"
                    )
                    break
            raise ShippingError(
                f"cannot ship {culprit} to a worker process: it failed to "
                f"pickle ({exc}).  Only picklable module-level functions and "
                "arguments may run in a process runtime's workers; run "
                "closures and shared-memory objects in the parent instead "
                "(unmarked callables do so automatically)."
            ) from exc
        if self._serde_stats is not None:
            self._serde_stats.record_marshal(len(payload))
        return payload

    def _submit_remote(self, worker: int, fn: Callable[..., Any], args: tuple, is_long: bool) -> Future:
        # Gate on the *process*-side close flag, not ``_closed``: while
        # ``close()`` drains the parent fallback, draining tasks may
        # still proxy operations through the worker processes.
        if self._proc_closed:
            raise RuntimeClosedError(f"runtime {self.name!r} is closed")
        payload = self._ship_payload(fn, args)
        child = self._ensure_child(worker)
        deadline: Optional[float] = None
        if self._policy is not None and self._policy.task_deadline is not None:
            deadline = time.monotonic() + self._policy.task_deadline
            self._ensure_deadline_monitor()
        future: Future = Future()
        with self._pending_lock:
            tid = self._task_seq
            self._task_seq += 1
            self._pending[tid] = (future, worker, deadline, child.process.pid)
            self._pending_per_worker[worker] += 1
            depth = self._pending_per_worker[worker]
        counters = self._counters[worker]
        counters.note_queue_depth(depth)
        try:
            child.send(("task", tid, is_long, get_tracer().enabled, payload))
        except (OSError, ValueError) as exc:
            self._forget_pending(tid)
            raise WorkerLostError(
                f"worker process {worker} (pid {child.process.pid}) of runtime "
                f"{self.name!r} is gone: {exc}; {self._respawn_status(worker)}"
            ) from exc
        return future

    def _forget_pending(self, tid: int) -> Optional[Tuple[Future, int, Optional[float], Optional[int]]]:
        with self._pending_lock:
            entry = self._pending.pop(tid, None)
            if entry is not None:
                self._pending_per_worker[entry[1]] -= 1
            self._timed_out_tids.discard(tid)
        return entry

    # -- deadline monitoring -------------------------------------------------
    def _ensure_deadline_monitor(self) -> None:
        if self._deadline_thread is not None:
            return
        with self._spawn_lock:
            if self._deadline_thread is not None:
                return
            thread = threading.Thread(
                target=self._deadline_loop,
                name=f"{self.name}-deadline-monitor",
                daemon=True,
            )
            self._deadline_thread = thread
            thread.start()

    def _deadline_loop(self) -> None:
        period = min(0.25, (self._policy.task_deadline or 1.0) / 4)
        while not self._proc_closed:
            time.sleep(period)
            now = time.monotonic()
            victims: set = set()
            overdue = 0
            with self._pending_lock:
                for tid, (_, _, deadline, pid) in self._pending.items():
                    if deadline is None or now <= deadline:
                        continue
                    if tid in self._timed_out_tids:
                        continue
                    self._timed_out_tids.add(tid)
                    overdue += 1
                    victims.add(pid)
            self._timeouts += overdue
            # Kill the process recorded at submit time, not the worker's
            # *current* child: an exit handler may already have respawned the
            # worker, and the fresh child must not pay for its predecessor's
            # hang with a SIGKILL of its own.
            for pid in victims:
                if pid is None:
                    continue
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass

    # -- child management ----------------------------------------------------
    def _ensure_child(self, worker: int) -> _ChildHandle:
        child = self._children[worker]
        if child is not None:
            return child
        with self._spawn_lock:
            child = self._children[worker]
            if child is not None:
                return child
            if self._proc_closed:
                raise RuntimeClosedError(f"runtime {self.name!r} is closed")
            if self._respawning[worker] or self._dead[worker] or self._degraded[worker]:
                # A concurrent exit handler owns this worker; never spawn a
                # fresh (empty) child behind its back.
                raise WorkerLostError(
                    f"worker process {worker} (pid {self._last_pids.get(worker)}) "
                    f"of runtime {self.name!r} is unavailable; "
                    f"{self._respawn_status(worker)}"
                )
            return self._spawn_child_locked(worker)

    def _spawn_child_locked(self, worker: int) -> _ChildHandle:
        """Fork one worker process; caller holds ``_spawn_lock``."""
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_child_main,
            args=(
                worker,
                self._n_workers,
                child_conn,
                os.getpid(),
                self.name,
                self._journal_sink is not None,
            ),
            name=f"{self.name}-proc-{worker}",
            daemon=True,
        )
        with warnings.catch_warnings():
            # Python 3.12 warns on fork-in-multithreaded-process; our
            # children only touch their own pipe and fresh threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            process.start()
        child_conn.close()
        child = _ChildHandle(process, parent_conn)
        child.listener = threading.Thread(
            target=self._listen,
            args=(worker, child),
            name=f"{self.name}-proc-{worker}-listener",
            daemon=True,
        )
        self._children[worker] = child
        if process.pid is not None:
            self._last_pids[worker] = process.pid
        child.listener.start()
        return child

    # -- death handling ------------------------------------------------------
    def _handle_worker_exit(self, worker: int, handle: _ChildHandle) -> None:
        """Idempotent funnel for listener-EOF and sentinel-watch death signals."""
        if handle.clean_exit:
            return
        with self._spawn_lock:
            if self._children[worker] is not handle:
                return  # the other detection path got here first
            self._worker_gates[worker].clear()
            self._children[worker] = None
            already = self._respawning[worker]
            closing = self._proc_closed
            if not already and not closing:
                self._respawning[worker] = True
        pid = handle.process.pid
        handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        with self._upcall_src_lock:
            stale = [key for key, value in self._upcall_sources.items() if value is handle]
            for key in stale:
                del self._upcall_sources[key]
                self._upcall_dests.pop(key, None)
            orphaned = [key for key, value in self._upcall_dests.items() if value is handle]
        # the dead pipe is drained: upcalls forwarded here get no xdone
        for src_worker, uid in orphaned:
            self._ack_upcall_error(
                uid, src_worker, worker, ChildProcessError("exited with the upcall in flight")
            )
        self._fail_worker_pending(worker, pid, self._respawn_status(worker))
        if already:
            return  # the in-progress respawn loop owns recovery
        if closing:
            self._worker_gates[worker].set()
            return
        self._respawn_worker(worker)

    def _respawn_status(self, worker: int) -> str:
        """Prospective one-line account of what happens to *worker* next."""
        if self._degraded[worker]:
            return "worker degraded to parent-side execution"
        if self._policy is None:
            return "no retry policy: worker stays down"
        attempts = self._respawn_attempts[worker]
        if attempts >= self._policy.max_respawns:
            return "respawn budget exhausted; degrading to parent-side execution"
        return f"respawning (attempt {attempts + 1}/{self._policy.max_respawns})"

    def _fail_worker_pending(self, worker: int, pid: Optional[int], status: str) -> None:
        with self._pending_lock:
            dead = [tid for tid, entry in self._pending.items() if entry[1] == worker]
            entries = []
            for tid in dead:
                entry = self._pending.pop(tid)
                timed_out = tid in self._timed_out_tids
                self._timed_out_tids.discard(tid)
                entries.append((entry[0], timed_out))
            self._pending_per_worker[worker] -= len(dead)
        deadline = self._policy.task_deadline if self._policy is not None else None
        for future, timed_out in entries:
            if not future.set_running_or_notify_cancel():
                continue
            if timed_out:
                future.set_exception(
                    TaskTimeoutError(
                        f"task on worker {worker} (pid {pid}) of runtime "
                        f"{self.name!r} exceeded its {deadline}s deadline and the "
                        f"worker was killed; {status}"
                    )
                )
            else:
                future.set_exception(
                    WorkerLostError(
                        f"worker process {worker} (pid {pid}) of runtime "
                        f"{self.name!r} exited with tasks in flight; {status}"
                    )
                )

    def _respawn_worker(self, worker: int) -> None:
        """Respawn with backoff until the budget runs out, then degrade."""
        gate = self._worker_gates[worker]
        try:
            if self._policy is None:
                with self._spawn_lock:
                    self._dead[worker] = True
                return
            while self._respawn_attempts[worker] < self._policy.max_respawns:
                attempt = self._respawn_attempts[worker]
                self._respawn_attempts[worker] += 1
                delay = self._policy.backoff_delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                if self._proc_closed:
                    return
                try:
                    with self._spawn_lock:
                        if self._proc_closed:
                            return
                        self._spawn_child_locked(worker)
                    self._respawns += 1
                    self._run_hooks(self._rebuild_hooks, worker)
                    return
                except Exception:
                    # The fresh child died during rebuild (its own exit
                    # handler already failed the hook futures) or a hook
                    # raised: retire whatever is installed and try again.
                    with self._spawn_lock:
                        current = self._children[worker]
                        self._children[worker] = None
                    if current is not None:
                        current.clean_exit = True  # we own this teardown
                        self._kill_handle(current)
            with self._spawn_lock:
                self._degraded[worker] = True
            self._run_hooks(self._degrade_hooks, worker)
        finally:
            with self._spawn_lock:
                self._respawning[worker] = False
            gate.set()

    def _run_hooks(self, hooks: List[Callable[[int], None]], worker: int) -> None:
        # Hooks ship rebuild data through submit(); bypass the (cleared)
        # availability gate so they cannot deadlock on themselves.
        self._gate_tls.bypass = True
        try:
            for hook in hooks:
                hook(worker)
        finally:
            self._gate_tls.bypass = False

    def _kill_handle(self, handle: _ChildHandle) -> None:
        try:
            if handle.process.is_alive():
                handle.process.kill()
        except (OSError, ValueError):
            pass
        handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    # -- parent listener -----------------------------------------------------
    def _listen(self, worker: int, child: _ChildHandle) -> None:
        """Receive frames until the child stops — by any means.

        Watches the pipe *and* the process sentinel: under ``fork`` a
        sibling child inherits this child's pipe ends, so a SIGKILL here
        never EOFs the pipe — the sentinel is the reliable death signal.
        After a death the pipe's buffered frames are still drained: the
        last committed part-steps' results and journals must reach the
        parent, or recovery would rebuild from a mirror missing them.
        """
        conn = child.conn
        sentinel = child.process.sentinel
        process_alive = True
        while True:
            if process_alive:
                ready = connection_wait([conn, sentinel])
                if conn not in ready:
                    process_alive = False
                    continue
            elif not conn.poll(0):
                break  # dead and drained
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                break
            kind = frame[0]
            if kind == "done":
                self._on_done(frame)
            elif kind == "upcall":
                self._on_upcall(frame)
            elif kind == "xdone":
                self._on_xdone(frame)
            elif kind == "bye":
                child.clean_exit = True
                break
        self._handle_worker_exit(worker, child)

    def _load_result(self, ok: bool, payload: Optional[bytes]) -> Tuple[bool, Any]:
        if payload is None:
            return ok, None
        if self._serde_stats is not None:
            self._serde_stats.record_unmarshal()
        try:
            return ok, pickle.loads(payload)
        except Exception as exc:  # a result that unpickles only child-side
            return False, ShippingError(f"could not unpickle worker result: {exc}")

    def _replay_spans(self, spans: Optional[list]) -> None:
        tracer = get_tracer()
        if not spans or not isinstance(tracer, RecordingTracer):
            return
        for name, cat, lane, abs_start, duration, args in spans:
            tracer.record_event(name, cat, lane, abs_start - tracer.epoch, duration, args)

    def _apply_journal(self, journal: Optional[list]) -> None:
        if not journal or self._journal_sink is None:
            return
        try:
            self._journal_sink(journal)
        except Exception:
            pass  # a sink bug must not take the listener thread down

    def _on_done(self, frame: tuple) -> None:
        _, tid, ok, payload, seconds, is_long, spans, journal = frame
        # Mirror before resolve: a caller holding the result must never
        # observe a mirror older than the writes that produced it.  The
        # journal applies even when the future already failed (a deadline
        # kill racing completion): those writes really happened, and the
        # progress/mirror state must reflect them for recovery to work.
        self._apply_journal(journal)
        entry = self._forget_pending(tid)
        if entry is None:
            return
        future, worker = entry[0], entry[1]
        counters = self._counters[worker]
        if is_long:
            counters.record_long_task(seconds)
        else:
            counters.record_task(seconds)
        self._replay_spans(spans)
        ok, value = self._load_result(ok, payload)
        if not future.set_running_or_notify_cancel():
            return
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value if isinstance(value, BaseException) else ShippingError(repr(value)))

    def _on_upcall(self, frame: tuple) -> None:
        _, uid, src_worker, lane, is_long, payload = frame
        dest = self.worker_of(lane)
        source = self._children[src_worker]
        if source is not None:
            with self._upcall_src_lock:
                self._upcall_sources[(src_worker, uid)] = source
        try:
            # _fallback_to_parent waits out an in-progress respawn or
            # degrade, so a mid-transition upcall can never race the
            # rebuild and land on a half-populated destination.
            degraded = self._fallback_to_parent(dest)
            if degraded and self._degrade_hooks:
                self._upcall_parent_side(uid, src_worker, lane, is_long, payload)
                return
            if degraded:
                raise WorkerLostError(
                    "destination degraded with no parent-side state installed"
                )
            child = self._ensure_child(dest)
            with self._upcall_src_lock:
                self._upcall_dests[(src_worker, uid)] = child
            child.send(("xtask", uid, src_worker, is_long, get_tracer().enabled, payload))
        except (OSError, ValueError, ShippingError, RuntimeClosedError) as exc:
            self._ack_upcall_error(uid, src_worker, dest, exc)

    def _upcall_parent_side(self, uid: int, src_worker: int, lane: int, is_long: bool, payload: bytes) -> None:
        """Serve an upcall whose destination degraded to the parent."""
        fn, args = pickle.loads(payload)
        submit = ThreadedRuntime.submit_long if is_long else ThreadedRuntime.submit
        future = submit(self, lane, fn, *args)

        def _ack(fut: Future) -> None:
            try:
                ok, blob = _pickle_or_describe(fut.result())
            except BaseException as exc:
                ok, blob = False, _pickle_or_describe(exc)[1]
            self._send_upcall_ack(uid, src_worker, ok, blob)

        future.add_done_callback(_ack)

    def _send_upcall_ack(self, uid: int, src_worker: int, ok: bool, payload: bytes) -> None:
        with self._upcall_src_lock:
            recorded = self._upcall_sources.pop((src_worker, uid), None)
            self._upcall_dests.pop((src_worker, uid), None)
        source = self._children[src_worker]
        if source is None or (recorded is not None and source is not recorded):
            # The source died (or was respawned — its upcall uids restart
            # at zero) while this upcall was in flight; delivering the ack
            # to the replacement child would resolve the wrong future.
            return
        try:
            source.send(("ack", uid, ok, payload))
        except (OSError, ValueError):
            pass

    def _ack_upcall_error(self, uid: int, src_worker: int, dest: int, exc: BaseException) -> None:
        pid = self._last_pids.get(dest)
        error = _dumps(
            WorkerLostError(
                f"upcall destination worker {dest} (pid {pid}) of runtime "
                f"{self.name!r} is gone: {exc}; {self._respawn_status(dest)}"
            )
        )
        self._send_upcall_ack(uid, src_worker, False, error)

    def _on_xdone(self, frame: tuple) -> None:
        _, uid, src_worker, dest_worker, ok, payload, seconds, is_long, spans, journal = frame
        self._apply_journal(journal)
        counters = self._counters[dest_worker]
        if is_long:
            counters.record_long_task(seconds)
        else:
            counters.record_task(seconds)
        self._replay_spans(spans)
        self._send_upcall_ack(uid, src_worker, ok, payload)

    def started_workers(self) -> List[int]:
        """Indices of workers whose process has been spawned (lazily)."""
        return [i for i, child in enumerate(self._children) if child is not None]

    # -- instrumentation -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        doc = super().stats()
        pids: Dict[int, int] = {}
        for index, child in enumerate(self._children):
            if child is not None and child.process.pid is not None:
                pids[index] = child.process.pid
        for entry in doc["workers"]:
            pid = pids.get(entry["worker"])
            if pid is not None:
                entry["pid"] = pid
        doc["pids"] = pids
        doc["respawns"] = self._respawns
        doc["worker_timeouts"] = self._timeouts
        doc["degraded"] = self.degraded_workers()
        return doc

    # -- lifecycle -----------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        super().close(wait=wait)  # parent-side fallback: drain-then-stop
        with self._proc_close_lock:
            if self._proc_closed:
                return
            self._proc_closed = True
        if wait:
            while True:
                with self._pending_lock:
                    outstanding = [entry[0] for entry in self._pending.values()]
                if not outstanding:
                    break
                wait_futures(outstanding, timeout=1.0)
        handles = [child for child in self._children if child is not None]
        for child in handles:
            child.clean_exit = True  # suppress the death-recovery path
            try:
                child.send(("stop",))
            except (OSError, ValueError):
                pass
        if not wait:
            return
        for child in handles:
            child.process.join(timeout=10.0)
            if child.process.is_alive():
                child.process.terminate()
                child.process.join(timeout=5.0)
            if child.listener is not None:
                child.listener.join(timeout=5.0)
            try:
                child.conn.close()
            except OSError:
                pass
        for gate in self._worker_gates:
            gate.set()  # unblock any straggler waiting out a respawn


# ---------------------------------------------------------------------------
# Worker-process side.  Everything below runs in a child; module-level so
# the ``spawn`` start method can import it.
# ---------------------------------------------------------------------------


class _ChildContext:
    """Process-global state of one worker process."""

    __slots__ = (
        "worker",
        "n_workers",
        "conn",
        "send_lock",
        "upcalls",
        "upcall_lock",
        "upcall_seq",
        "journal",
    )

    def __init__(self, worker: int, n_workers: int, conn: Any, journal: bool = False):
        self.worker = worker
        self.n_workers = n_workers
        self.conn = conn
        self.send_lock = threading.Lock()
        self.upcalls: Dict[int, Future] = {}
        self.upcall_lock = threading.Lock()
        self.upcall_seq = 0
        self.journal = journal

    def send(self, frame: tuple) -> None:
        with self.send_lock:
            self.conn.send(frame)


_CHILD: Optional[_ChildContext] = None

_JOURNAL = threading.local()


def current_child_context() -> Optional[_ChildContext]:
    """This process's worker context, or ``None`` in the parent."""
    return _CHILD


def journal_enabled() -> bool:
    """True in a worker process whose runtime has a journal sink attached."""
    ctx = _CHILD
    return ctx is not None and ctx.journal


def journal_append(entry: tuple) -> None:
    """Record one mutation into the current task's journal, if capturing."""
    buf = getattr(_JOURNAL, "buf", None)
    if buf is not None:
        buf.append(entry)


def child_upcall_async(lane: int, is_long: bool, payload: bytes) -> Future:
    """Route an already-pickled operation to *lane*'s owner via the parent.

    The payload bytes pass through the parent verbatim; the future
    resolves with the (unpickled) result when the owning worker acks.
    """
    ctx = _CHILD
    if ctx is None:
        raise ShippingError("child_upcall_async called outside a worker process")
    future: Future = Future()
    with ctx.upcall_lock:
        uid = ctx.upcall_seq
        ctx.upcall_seq += 1
        ctx.upcalls[uid] = future
    ctx.send(("upcall", uid, ctx.worker, lane, is_long, payload))
    return future


def _watch_parent(parent_pid: int) -> None:
    """Exit when the parent dies: fork children inherit the parent ends
    of *earlier* children's pipes, so EOF alone cannot detect an
    uncleanly-exiting parent."""
    while True:
        time.sleep(_WATCHDOG_INTERVAL)
        try:
            alive = os.getppid() == parent_pid
        except OSError:
            alive = False
        if not alive:
            os._exit(2)


def _pickle_or_describe(value: Any) -> Tuple[bool, bytes]:
    """Pickle *value*, degrading to a picklable description on failure."""
    try:
        return True, _dumps(value)
    except Exception as exc:
        if isinstance(value, BaseException):
            replacement: Any = ShippingError(
                f"worker task raised {type(value).__name__}: {value} "
                f"(original exception did not pickle: {exc})"
            )
        else:
            replacement = ShippingError(
                f"worker task result of type {type(value).__name__} did not "
                f"pickle: {exc}"
            )
        return False, _dumps(replacement)


def _child_execute(
    payload: bytes, traced: bool, lane: str, journal: bool
) -> Tuple[bool, bytes, float, Optional[list], Optional[list]]:
    """Run one shipped task; returns (ok, result payload, seconds, spans, journal)."""
    started = time.perf_counter()
    spans: Optional[list] = None
    entries: Optional[list] = None
    if journal:
        _JOURNAL.buf = []
    try:
        if traced:
            tracer = RecordingTracer()
            tracer.push_lane(lane)
            with activate(tracer):
                # Unpickle *inside* the activation so __setstate__ hooks
                # (the shipped engine re-binding its tracer) see it.
                fn, args = pickle.loads(payload)
                with tracer.span(getattr(fn, "__name__", "task"), cat="runtime.remote", lane=lane):
                    result = fn(*args)
            spans = [
                (e.name, e.cat, e.lane, tracer.epoch + e.start, e.duration, e.args)
                for e in tracer.events()
            ]
        else:
            fn, args = pickle.loads(payload)
            result = fn(*args)
    except BaseException as exc:
        # The journal still ships: writes a failing task already applied
        # must reach the parent mirror, or a later rebuild would lose them.
        if journal:
            entries = _JOURNAL.buf
            _JOURNAL.buf = None
        _, blob = _pickle_or_describe(exc)
        return False, blob, time.perf_counter() - started, spans, entries
    seconds = time.perf_counter() - started
    if journal:
        entries = _JOURNAL.buf
        _JOURNAL.buf = None
    ok, blob = _pickle_or_describe(result)
    return ok, blob, seconds, spans, entries


def _child_exec_loop(ctx: _ChildContext, tasks: "queue.SimpleQueue", lane: str, is_long: bool) -> None:
    while True:
        item = tasks.get()
        if item is None:
            return
        kind, uid, src_worker, traced, payload = item
        ok, blob, seconds, spans, entries = _child_execute(payload, traced, lane, ctx.journal)
        if kind == "task":
            frame = ("done", uid, ok, blob, seconds, is_long, spans, entries)
        else:
            frame = ("xdone", uid, src_worker, ctx.worker, ok, blob, seconds, is_long, spans, entries)
        try:
            ctx.send(frame)
        except (OSError, ValueError):
            os._exit(1)


def _child_main(
    worker: int, n_workers: int, conn: Any, parent_pid: int, name: str, journal: bool = False
) -> None:
    global _CHILD
    ctx = _ChildContext(worker, n_workers, conn, journal)
    _CHILD = ctx
    threading.Thread(target=_watch_parent, args=(parent_pid,), daemon=True).start()
    short_tasks: "queue.SimpleQueue" = queue.SimpleQueue()
    long_tasks: "queue.SimpleQueue" = queue.SimpleQueue()
    executors = [
        threading.Thread(
            target=_child_exec_loop,
            args=(ctx, short_tasks, f"rpc-{worker}", False),
            name=f"{name}{worker}-short",
            daemon=True,
        ),
        threading.Thread(
            # One thread == the SPI's one-at-a-time long-op discipline.
            target=_child_exec_loop,
            args=(ctx, long_tasks, f"worker-{worker}", True),
            name=f"{name}{worker}-long",
            daemon=True,
        ),
    ]
    for thread in executors:
        thread.start()
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        kind = frame[0]
        if kind == "task":
            _, tid, is_long, traced, payload = frame
            (long_tasks if is_long else short_tasks).put(("task", tid, None, traced, payload))
        elif kind == "xtask":
            _, uid, src_worker, is_long, traced, payload = frame
            (long_tasks if is_long else short_tasks).put(("xtask", uid, src_worker, traced, payload))
        elif kind == "ack":
            _, uid, ok, payload = frame
            with ctx.upcall_lock:
                future = ctx.upcalls.pop(uid, None)
            if future is not None:
                value = pickle.loads(payload) if payload is not None else None
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(
                        value if isinstance(value, BaseException) else ShippingError(repr(value))
                    )
        elif kind == "stop":
            break
    # Drain-then-stop: the sentinels queue behind everything accepted.
    short_tasks.put(None)
    long_tasks.put(None)
    for thread in executors:
        thread.join()
    try:
        ctx.send(("bye",))
        conn.close()
    except (OSError, ValueError):
        pass
