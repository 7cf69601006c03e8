"""The parallel debugging store (paper Section V-A).

    "This store approximates a distributed key-value store, all in
    threads: one to handle short request-response table operations
    (get, put), while the other handles (one at a time) long-running
    requests (i.e., enumerations).  Communication between emulated
    partitions involves marshalling and un-marshalling, while local
    operations do not."

Each emulated partition owns the data of its parts; execution is
delegated to the store's :class:`~repro.runtime.WorkerRuntime`, one
runtime worker per partition:

- the worker's serialized *short lane* services get/put/delete
  requests in FIFO submission order, and
- the runtime's shared long pool services (one at a time per
  partition) enumerations and collocated mobile code.

A request from outside the partition is marshalled (pickled) on the way
in and its result marshalled on the way out, exactly like a remote
call.  Code already running inside the partition — i.e., mobile code or
an enumeration callback — touches its local part without marshalling.

Parts of a table are assigned round-robin to partitions — the
runtime's placement map (``worker_of(part) = part % n_partitions``) —
so tables with equal part counts are automatically collocated
part-by-part, which is what the EBSP layer's co-partitioning relies on.

Pass ``runtime="inline"`` for single-threaded deterministic execution
with the marshalling semantics intact.

All of this is the store's part back-end: the table front in
:mod:`repro.kvstore.api` decides *what* reaches a part, and
:class:`PartitionedTable` decides how — over which lane, with which
marshalling, counted how.

Process mode (paper §III: the same SPI on real cores)
-----------------------------------------------------

With ``runtime="process"`` each emulated partition becomes a real OS
process and the emulation stops being an emulation: each part's
backing table lives *resident in its owner process* (created there on
first touch, keyed by a per-table uid in the process-global
``_PART_REGISTRY``), so state never bounces between address spaces.
The parent keeps :class:`_PartHandle` proxies in ``_views``; a handle
ships the same module-level ``_op_*`` bodies through the runtime and
pickles *as* its resident part, which is what lets shipped operations,
enumeration consumers, and whole tables (via :class:`_ChildTable`)
cross the boundary with one pickle.  A worker process reaching a part
owned by a sibling routes the already-pickled operation through the
parent (an *upcall*), preserving the per-(src, dest) FIFO the spill
transport needs.
"""

from __future__ import annotations

import pickle
import threading
import uuid
from concurrent.futures import Future
from typing import Any, Callable, Iterator, Optional

from repro.kvstore.api import (
    KVStore,
    PairConsumer,
    PartConsumer,
    PartOps,
    PartView,
    Table,
    TableSpec,
    consume_items,
    run_to_future,
)
from repro.kvstore.memory_table import make_part
from repro.runtime import RuntimeSpec, resolve_runtime, shippable
from repro.runtime.process import (
    child_upcall_async,
    current_child_context,
    journal_append,
    journal_enabled,
)
from repro.runtime.shipping import ShippingError, is_shippable
from repro.serde import Codec, SerdeStats


# Shippable twins of the table front's part operations (:class:`PartOps`).
# Module-level so a process runtime can execute them in the part's owner
# process: a shipped task carries a by-name reference to one of these,
# never code.
@shippable
def _op_get(view: PartView, key: Any) -> Any:
    return view.get(key)


@shippable
def _op_put(view: PartView, key: Any, value: Any) -> None:
    view.put(key, value)


@shippable
def _op_delete(view: PartView, key: Any) -> bool:
    return view.delete(key)


@shippable
def _op_put_batch(view: PartView, batch: list) -> None:
    PartOps.put_batch(view, batch)


@shippable
def _op_get_batch(view: PartView, keys: list) -> list:
    return PartOps.get_batch(view, keys)


@shippable
def _op_delete_batch(view: PartView, keys: list) -> None:
    PartOps.delete_batch(view, keys)


@shippable
def _op_items(view: PartView) -> list:
    return list(view.items())


@shippable
def _op_range_items(view: PartView, lo: Any, hi: Any) -> list:
    return list(view.range_items(lo, hi))


@shippable
def _op_len(view: PartView) -> int:
    return len(view)


@shippable
def _op_clear(view: PartView) -> None:
    view.clear()  # type: ignore[attr-defined]


@shippable
def _op_checked_put(view: PartView, key: Any, value: Any, limit: int, name: str) -> None:
    PartOps.checked_put(view, key, value, limit, name)


@shippable
def _op_checked_put_batch(view: PartView, batch: list, limit: int, name: str) -> None:
    PartOps.checked_put_batch(view, batch, limit, name)


@shippable
def _enum_parts_op(part_index: int, view: PartView, consumer: PartConsumer) -> Any:
    return consumer.process_part(part_index, view)


@shippable
def _enum_pairs_op(part_index: int, view: PartView, consumer: PairConsumer) -> Any:
    return consume_items(part_index, view.items(), consumer)


class _ShippedOps(PartOps):
    """The ops a partitioned table routes.  ``clear`` is the part's own
    (a journaled part records it as one entry)."""

    get = staticmethod(_op_get)
    put = staticmethod(_op_put)
    delete = staticmethod(_op_delete)
    checked_put = staticmethod(_op_checked_put)
    put_batch = staticmethod(_op_put_batch)
    checked_put_batch = staticmethod(_op_checked_put_batch)
    get_batch = staticmethod(_op_get_batch)
    delete_batch = staticmethod(_op_delete_batch)
    length = staticmethod(_op_len)
    clear = staticmethod(_op_clear)
    process_part = staticmethod(_enum_parts_op)
    consume_pairs = staticmethod(_enum_pairs_op)


# -- process-mode part residency ---------------------------------------------
#
# In a worker process, parts are created on first touch and kept in this
# process-global registry, keyed by (table uid, part index) — the uid
# (not the name) so dropping and recreating a table can never resurrect
# a dropped part's data.

_PART_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.Lock()

def _resolve_part(uid: str, part_index: int, ordered: bool) -> "_LockedPart":
    key = (uid, part_index)
    with _REGISTRY_LOCK:
        part = _PART_REGISTRY.get(key)
        if part is None:
            if journal_enabled():
                # Crash-tolerant store: every mutation of a resident part
                # is journaled back to the parent mirror.
                part = _JournaledPart(make_part(ordered), threading.RLock(), uid, part_index)
            else:
                part = _LockedPart(make_part(ordered), threading.RLock())
            _PART_REGISTRY[key] = part
    return part


@shippable
def _registry_drop(uid: str, n_parts: int) -> None:
    with _REGISTRY_LOCK:
        for part_index in range(n_parts):
            _PART_REGISTRY.pop((uid, part_index), None)


@shippable
def _registry_load(uid: str, part_index: int, ordered: bool, items: list) -> int:
    """Rebuild one resident part from parent-mirror items (worker respawn)."""
    part = _resolve_part(uid, part_index, ordered)
    part.clear()
    part.put_many(items)
    return len(items)


class _PartPointer:
    """A picklable reference to a resident part (worker→worker upcalls)."""

    __slots__ = ("uid", "part_index", "ordered")

    def __init__(self, uid: str, part_index: int, ordered: bool):
        self.uid = uid
        self.part_index = part_index
        self.ordered = ordered

    def __reduce__(self):
        return (_resolve_part, (self.uid, self.part_index, self.ordered))


class _LockedPart(PartView):
    """A part view that serializes primitive access with the partition lock.

    The short-op thread, the long-op thread, and inline local calls can
    all touch one part; the lock keeps individual operations atomic
    while callbacks run outside it.
    """

    __slots__ = ("_part", "_lock")

    def __init__(self, part: PartView, lock: threading.RLock):
        self._part = part
        self._lock = lock

    def get(self, key: Any) -> Any:
        with self._lock:
            return self._part.get(key)

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._part.put(key, value)

    def put_many(self, batch: list) -> None:
        with self._lock:
            self._part.put_many(batch)

    def delete(self, key: Any) -> bool:
        with self._lock:
            return self._part.delete(key)

    def items(self) -> Iterator[tuple]:
        with self._lock:
            return self._part.items()  # implementations snapshot internally

    def range_items(self, lo: Any = None, hi: Any = None) -> Iterator[tuple]:
        with self._lock:
            return self._part.range_items(lo, hi)

    def __len__(self) -> int:
        with self._lock:
            return len(self._part)

    def clear(self) -> None:
        with self._lock:
            self._part.clear()  # type: ignore[attr-defined]


class _JournaledPart(_LockedPart):
    """A resident part that journals every mutation for the parent mirror.

    The journal entry is recorded under the part lock, so journal order
    is exactly the applied order — which is what lets the parent replay
    it into a plain dict and get a byte-faithful copy (including dict
    insertion order, which enumeration order — and therefore message
    fold order — depends on).
    """

    __slots__ = ("_uid", "_part_index")

    def __init__(self, part: PartView, lock: threading.RLock, uid: str, part_index: int):
        super().__init__(part, lock)
        self._uid = uid
        self._part_index = part_index

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            journal_append((self._uid, self._part_index, "put", key, value))
            self._part.put(key, value)

    def put_many(self, batch: list) -> None:
        # one lock hold, but each pair journaled as its own put, in order
        uid, part_index, put = self._uid, self._part_index, self._part.put
        with self._lock:
            for key, value in batch:
                journal_append((uid, part_index, "put", key, value))
                put(key, value)

    def delete(self, key: Any) -> bool:
        with self._lock:
            journal_append((self._uid, self._part_index, "del", key, None))
            return self._part.delete(key)

    def clear(self) -> None:
        with self._lock:
            journal_append((self._uid, self._part_index, "clear", None, None))
            self._part.clear()  # type: ignore[attr-defined]


class _PartHandle(PartView):
    """Parent-side proxy for a part resident in a worker process.

    Every operation ships the corresponding module-level ``_op_*`` body
    to the owner process through the runtime's short lane.  The handle
    *pickles as the resident part itself* (``__reduce__`` →
    :func:`_resolve_part`), so passing a handle as a shipped-task
    argument hands the task the real part — no second hop.
    """

    __slots__ = ("_table", "_part_index")

    def __init__(self, table: "PartitionedTable", part_index: int):
        self._table = table
        self._part_index = part_index

    def _ship(self, fn: Callable[..., Any], *args: Any) -> Any:
        store = self._table._store
        runtime = store.runtime
        if getattr(runtime, "is_degraded", None) and runtime.is_degraded(self._part_index):
            view = self._table._views[self._part_index]
            if view is not self:
                # Crash-tolerant degrade swapped in a parent-side part
                # rebuilt from the mirror; run the op on it directly.
                return fn(view, *args)
            # Without crash tolerance there is no parent-side copy to fall
            # back on; the threaded fallback would hand fn this handle and
            # recurse into _ship forever.  Fail with the real story instead.
            raise ShippingError(
                f"part {self._part_index} of table {self._table.name!r} lived in "
                "a worker process that died permanently; the store was built "
                "with crash_tolerance=False, so its data is gone"
            )
        return runtime.submit(self._part_index, fn, self, *args).result()

    def get(self, key: Any) -> Any:
        return self._ship(_op_get, key)

    def put(self, key: Any, value: Any) -> None:
        self._ship(_op_put, key, value)

    def delete(self, key: Any) -> bool:
        return bool(self._ship(_op_delete, key))

    def items(self) -> Iterator[tuple]:
        return iter(self._ship(_op_items))

    def range_items(self, lo: Any = None, hi: Any = None) -> Iterator[tuple]:
        return iter(self._ship(_op_range_items, lo, hi))

    def __len__(self) -> int:
        return self._ship(_op_len)

    def clear(self) -> None:
        self._ship(_op_clear)

    def __reduce__(self):
        table = self._table
        return (_resolve_part, (table._uid, self._part_index, table.ordered))


def _resolve_child_table(
    uid: str, name: str, n_parts: int, ordered: bool, key_hash: Any, n_partitions: int
) -> "_ChildTable":
    return _ChildTable(uid, name, n_parts, ordered, key_hash, n_partitions)


class _ChildTable(Table):
    """What a :class:`PartitionedTable` unpickles to in a worker process.

    The same table front over a local-or-upcall back-end: locally-owned
    parts resolve straight out of the process registry; operations on
    parts owned by sibling workers travel as upcalls — pickled once here,
    routed verbatim by the parent.  Enumeration and collocated dispatch
    stay parent-side where the placement map lives.
    """

    _ops = _ShippedOps

    def __init__(
        self, uid: str, name: str, n_parts: int, ordered: bool, key_hash: Any, n_partitions: int
    ):
        super().__init__(
            TableSpec(name=name, ordered=ordered, key_hash=key_hash), n_parts
        )
        self._uid = uid
        self._n_partitions = n_partitions

    def __reduce__(self):
        return (
            _resolve_child_table,
            (
                self._uid,
                self.name,
                self._n_parts,
                self.ordered,
                self._spec.key_hash,
                self._n_partitions,
            ),
        )

    def _local_part(self, part_index: int) -> Optional["_LockedPart"]:
        context = current_child_context()
        if context is None:
            return None
        if part_index % self._n_partitions == context.worker:
            return _resolve_part(self._uid, part_index, self.ordered)
        return None

    def _remote(self, part_index: int, fn: Callable[..., Any], *args: Any) -> Future:
        pointer = _PartPointer(self._uid, part_index, self.ordered)
        payload = pickle.dumps((fn, (pointer, *args)), protocol=pickle.HIGHEST_PROTOCOL)
        return child_upcall_async(part_index, False, payload)

    # -- the part back-end ---------------------------------------------------
    def _call(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Any:
        local = self._local_part(part_index)
        if local is not None:
            return op(local, *args)
        return self._remote(part_index, op, *args).result()

    def _submit(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Future:
        local = self._local_part(part_index)
        if local is not None:
            return run_to_future(op, local, *args)
        return self._remote(part_index, op, *args)

    def _view(self, *_: Any) -> PartView:
        raise ShippingError(
            f"table {self.name!r}: enumeration and collocated dispatch are "
            "parent-side only in a worker process"
        )

    _dispatch = _view  # the long lane is parent-side too


def _marshalled(inner: Future, codec: Any) -> Future:
    """*inner*'s result, marshalled back across a partition boundary on
    the thread that completes it."""
    outer: Future = Future()

    def _marshal_result(done: Future) -> None:
        try:
            result = done.result()
            outer.set_result(codec.roundtrip(result) if result is not None else None)
        except BaseException as exc:
            outer.set_exception(exc)

    inner.add_done_callback(_marshal_result)
    return outer


class PartitionedTable(Table):
    """A table whose parts are spread over the store's partitions."""

    _ops = _ShippedOps

    def __init__(self, spec: TableSpec, n_parts: int, store: "PartitionedKVStore"):
        super().__init__(spec, n_parts, store)
        # The registry key for process-resident parts: a fresh uid per
        # table object, so a dropped-and-recreated table can never see
        # the dropped incarnation's data.
        self._uid = uuid.uuid4().hex
        if store._process_mode:
            # Parts live resident in their owner process (created there
            # on first touch); the parent only holds proxies.
            self._views: list = [_PartHandle(self, i) for i in range(n_parts)]
        else:
            # a part shares the lock of the partition serving it
            locks, worker_of = store._partition_locks, store.runtime.worker_of
            self._views = [
                _LockedPart(make_part(spec.ordered), locks[worker_of(i)])
                for i in range(n_parts)
            ]

    def __reduce__(self):
        if self._store._process_mode:
            return (
                _resolve_child_table,
                (
                    self._uid,
                    self.name,
                    self.n_parts,
                    self.ordered,
                    self._spec.key_hash,
                    self._store.n_partitions,
                ),
            )
        # Thread-backed tables hold locks and live views; pickling one
        # is a bug, not a fallback (object.__reduce__ would "succeed"
        # with an empty shell).
        raise pickle.PicklingError(
            f"PartitionedTable {self.name!r} only pickles under a process runtime"
        )

    # -- the part back-end ---------------------------------------------------
    def _view(self, part_index: int) -> PartView:
        return self._views[part_index]

    def _call(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Any:
        """Run *op(view, *args)* on the part's short lane.

        Marshals arguments and result when crossing partitions; runs
        inline without marshalling when already local.  With
        ``readonly=True`` the argument roundtrip is skipped: the remote
        side only *reads* the arguments (e.g. a key used for lookup), so
        handing it the caller's immutable objects cannot leak aliases —
        that halves the marshalling of every cross-partition read.
        """
        runtime = self._store.runtime
        view = self._views[part_index]
        if self._store._process_mode:
            # Crossing a real address space *is* the marshalling; no
            # emulation roundtrips.  Shippable ops run in the owner
            # process, anything else runs parent-side against the
            # handle (which ships each primitive itself).
            return runtime.submit(part_index, op, view, *args).result()
        if runtime.current_worker() == runtime.worker_of(part_index):
            return op(view, *args)
        codec = self._store._codec
        remote_args = codec.roundtrip(args) if (args and not readonly) else args
        result = runtime.submit(part_index, op, view, *remote_args).result()
        return codec.roundtrip(result) if result is not None else None

    def _submit(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Future:
        """Non-blocking :meth:`_call`: dispatch now, gather later.

        Arguments are marshalled once, on the caller's thread, before
        dispatch (so later mutation by the caller cannot race the
        transfer); the result is marshalled back on the remote thread
        when it completes.  Submissions from one caller thread to one
        partition apply in submission order — the runtime's short lane
        is a single FIFO worker — which is what the spill transport's
        per-(src, dest) ordering relies on.
        """
        runtime = self._store.runtime
        view = self._views[part_index]
        if self._store._process_mode:
            return runtime.submit(part_index, op, view, *args)
        if runtime.current_worker() == runtime.worker_of(part_index):
            return run_to_future(op, view, *args)
        codec = self._store._codec
        remote_args = codec.roundtrip(args) if (args and not readonly) else args
        return _marshalled(runtime.submit(part_index, op, view, *remote_args), codec)

    def _send_batch(self, part_index: int, op: Callable[..., Any], batch: list, readonly: bool = False) -> Future:
        """One marshalled request per per-part batch; a batch crossing
        partitions counts as one batched request."""
        runtime = self._store.runtime
        if runtime.worker_of(part_index) != runtime.current_worker():
            self._store.stats.record_batch(len(batch))
        return self._submit(part_index, op, batch, readonly=readonly)

    def _dispatch(self, indices: list, fn: Callable[..., Any], *args: Any) -> list:
        store = self._store
        runtime = store.runtime
        if store._process_mode:
            if fn is PartOps.consume_pairs:
                # A parent-side pairs consumer is a shared object, usually
                # a stateful closure, and each remote view touch is a pipe
                # round-trip — wide enough a window for part callbacks to
                # interleave.  Snapshot the resident parts concurrently,
                # then consume serially in part order so each part's
                # setup/consume/finish sequence stays contiguous.
                snapshots = [runtime.submit(i, _op_items, self._views[i]) for i in indices]
                return [
                    run_to_future(consume_items, i, future.result(), *args)
                    for i, future in zip(indices, snapshots)
                ]
            if is_shippable(fn):
                # a shipped task runs in the part's owner process, wherever
                # the caller is; its result is already a cross-process copy
                return [
                    runtime.submit_long(i, fn, i, self._views[i], *args) for i in indices
                ]
            return super()._dispatch(indices, fn, *args)
        here = runtime.current_worker()
        codec = store._codec
        # results from other partitions cross the boundary like any message
        return [
            _marshalled(future, codec) if runtime.worker_of(i) != here else future
            for i, future in zip(indices, super()._dispatch(indices, fn, *args))
        ]


class PartitionedKVStore(KVStore):
    """The multi-threaded store emulating a distributed deployment.

    Parameters
    ----------
    n_partitions:
        Number of emulated partitions (the paper uses 6).
    default_n_parts:
        Part count for tables that do not specify one; defaults to the
        partition count so each partition serves one part per table.
    runtime:
        The execution substrate: ``"threaded"`` (default),
        ``"inline"`` (deterministic single-threaded debugging mode), or
        a :class:`~repro.runtime.WorkerRuntime` instance with one
        worker per partition.  The store owns the runtime and closes it.
    crash_tolerance:
        Keep a parent-side mirror of every process-resident part (fed by
        the per-task mutation journal each worker ships back), so a
        worker killed mid-job can be respawned and its part residency
        rebuilt — or, when its respawn budget runs out, its parts can be
        served from the parent.  Requires a process runtime; pair it
        with a :class:`~repro.runtime.RetryPolicy` on the runtime.
    """

    def __init__(
        self,
        n_partitions: int = 6,
        default_n_parts: Optional[int] = None,
        runtime: "RuntimeSpec" = None,
        crash_tolerance: bool = False,
    ):
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        super().__init__(default_n_parts if default_n_parts is not None else n_partitions)
        self.n_partitions = n_partitions
        self.runtime = resolve_runtime(runtime, n_workers=n_partitions, name="part")
        # one lock per emulated partition, shared by the parts it serves
        self._partition_locks = [threading.RLock() for _ in range(n_partitions)]
        self.stats = SerdeStats()
        self._codec = Codec(self.stats)
        # Workers in another address space: parts live with their owner
        # process, parent-side views are handles, and engines may ship
        # whole part-steps (``ships_compute``).
        self._process_mode = not getattr(self.runtime, "shares_memory", True)
        self.ships_compute = self._process_mode
        if self._process_mode:
            self.runtime.attach_serde_stats(self.stats)
        self.crash_tolerance = False
        if crash_tolerance:
            if not self._process_mode:
                raise ValueError(
                    "crash_tolerance=True requires a process runtime: thread-"
                    "backed parts share the parent's memory and cannot be lost"
                )
            self.crash_tolerance = True
            # {(table_uid, part_index): {key: value}} — insertion-order-
            # faithful replicas of the resident parts, fed by journals.
            self._mirrors: dict = {}
            self._mirror_lock = threading.Lock()
            self.runtime.attach_journal_sink(self._apply_journal)
            self.runtime.add_rebuild_hook(self._rebuild_worker)
            self.runtime.add_degrade_hook(self._degrade_worker)

    # -- crash tolerance -----------------------------------------------------
    def _apply_journal(self, entries: list) -> None:
        """Fold one task's mutation journal into the parent mirrors.

        Called by the runtime's listener threads *before* the task's
        future resolves, so any caller holding a result observes a
        mirror at least as new as the writes that produced it.
        """
        with self._mirror_lock:
            mirrors = self._mirrors
            for uid, part_index, op, key, value in entries:
                mirror = mirrors.get((uid, part_index))
                if mirror is None:
                    mirror = mirrors[(uid, part_index)] = {}
                if op == "put":
                    mirror[key] = value
                elif op == "del":
                    mirror.pop(key, None)
                else:  # "clear"
                    mirror.clear()

    def _rebuild_worker(self, worker: int) -> None:
        """Reload a respawned worker's part residency from the mirrors."""
        runtime = self.runtime
        with self._lock:
            tables = list(self._tables.values())
        futures = []
        for table in tables:
            for part_index in range(table.n_parts):
                if runtime.worker_of(part_index) != worker:
                    continue
                with self._mirror_lock:
                    mirror = self._mirrors.get((table._uid, part_index))
                    items = list(mirror.items()) if mirror else None
                if items is None:
                    continue  # never written — the fresh child recreates it empty
                futures.append(
                    runtime.submit(
                        part_index, _registry_load, table._uid, part_index, table.ordered, items
                    )
                )
        for future in futures:
            future.result()

    def _degrade_worker(self, worker: int) -> None:
        """Move a permanently-failed worker's parts into the parent.

        Each part is rebuilt from its mirror as a plain locked part,
        installed both in the parent's process-global registry (so
        upcall payloads unpickling a part pointer here find the real
        data) and in the table's view list (so parent-side operations
        run against it directly via the runtime's threaded fallback).
        """
        runtime = self.runtime
        with self._lock:
            tables = list(self._tables.values())
        for table in tables:
            for part_index in range(table.n_parts):
                if runtime.worker_of(part_index) != worker:
                    continue
                with self._mirror_lock:
                    mirror = self._mirrors.pop((table._uid, part_index), None)
                local = _LockedPart(make_part(table.ordered), threading.RLock())
                if mirror:
                    local.put_many(list(mirror.items()))
                with _REGISTRY_LOCK:
                    _PART_REGISTRY[(table._uid, part_index)] = local
                table._views[part_index] = local

    # -- the catalog's hooks ---------------------------------------------------
    def _open_table(self, spec: TableSpec, n_parts: int) -> Table:
        return PartitionedTable(spec, n_parts, self)

    def _release_table(self, table: Table) -> None:
        if self.crash_tolerance:
            with self._mirror_lock:
                for key in [k for k in self._mirrors if k[0] == table._uid]:
                    del self._mirrors[key]
            # Degraded parts live in the *parent's* registry; drop them here
            # (the shipped drop below only reaches live workers).
            _registry_drop(table._uid, table.n_parts)
        if self._process_mode:
            # Evict the resident parts from every spawned worker.  The
            # uid keying already isolates a recreated table; this frees
            # the memory.  Best-effort: a dying worker cannot block drop.
            started = getattr(self.runtime, "started_workers", lambda: [])()
            for worker in started:
                try:
                    self.runtime.submit_to_worker(
                        worker, _registry_drop, table._uid, table.n_parts
                    ).result(timeout=5)
                except Exception:
                    pass
