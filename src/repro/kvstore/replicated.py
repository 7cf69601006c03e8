"""The WebSphere-eXtreme-Scale analog store.

The paper's primary store is WXS: "an elastic in-memory key/value store
supporting data partitioning, replication, and the ability to execute
mobile code adjacent to the data" (Section IV-B), whose shards support
"an ACID transaction over all the entries in a shard of co-placed
replicated tables" (Section IV-A) — the property the outlined fault
tolerance scheme relies on.

This module implements the closest synthetic equivalent:

- the key space is divided into a fixed number of *shards*; part ``p``
  of every table maps to shard ``p % n_shards``, so equal-part tables
  are co-placed shard-by-shard;
- each shard has a primary replica and ``replication`` backup replicas;
  writes apply to the primary and propagate synchronously (marshalled)
  to backups — or asynchronously with a configurable lag window when
  ``sync_replication=False``, which is what makes promotion lossy and
  recovery interesting;
- :meth:`ReplicatedKVStore.shard_transaction` gives atomic multi-table
  write batches within one shard;
- :meth:`ReplicatedKVStore.fail_primary` injects a primary failure and
  :meth:`ReplicatedKVStore.promote_backup` recovers by promoting a
  backup (discarding unreplicated writes), which the EBSP recovery
  machinery (:mod:`repro.ebsp.recovery`) builds on;
- collocated code and enumerations run through the store's
  :class:`~repro.runtime.WorkerRuntime` — one runtime worker per
  shard, serialized one-at-a-time per shard — next to the primary
  replica.

The part back-end is the replicating view: a table operation runs under
its shard's lock against the primary, and the writes it made replicate
as one batch (one marshal to the backups) when it ends; mobile code's
writes replicate one by one, so they survive failover too.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.errors import ShardFailedError, TransactionError
from repro.kvstore.api import KVStore, PartView, Table, TableSpec
from repro.kvstore.memory_table import make_part
from repro.runtime import RuntimeSpec, resolve_runtime
from repro.serde import Codec, SerdeStats


class _Replica:
    """One copy of a shard's data: {(table, part): PartView}."""

    def __init__(self) -> None:
        self.parts: dict = {}
        # Monotone counter of the last replicated write batch applied.
        self.applied_batch = 0

    def part(self, table_name: str, part_index: int, ordered: bool) -> PartView:
        key = (table_name, part_index)
        view = self.parts.get(key)
        if view is None:
            view = make_part(ordered)
            self.parts[key] = view
        return view


class _Shard:
    """A shard: primary + backups and the lock serializing its writes."""

    def __init__(self, index: int, replication: int):
        self.index = index
        self.lock = threading.RLock()
        self.primary = _Replica()
        self.backups = [_Replica() for _ in range(replication)]
        self.failed = False
        self.next_batch = 1
        # Write batches not yet applied to each backup (async mode).
        self.pending: list = [[] for _ in range(replication)]


class ReplicatedKVStore(KVStore):
    """In-memory, sharded, replicated store with shard transactions.

    Parameters
    ----------
    n_shards:
        Number of shards ("data container processes"; the paper's
        SUMMA runs used 10).
    replication:
        Backup replicas per shard.
    sync_replication:
        When true (default) every write batch reaches all backups
        before the write returns, so promotion after a failure loses
        nothing.  When false, batches queue per backup and apply only
        on :meth:`sync_backups` / naturally lagging, modeling the lossy
        window real deployments have.
    runtime:
        Execution substrate: ``"threaded"`` (default), ``"inline"``
        (deterministic), or a :class:`~repro.runtime.WorkerRuntime`
        instance with one worker per shard.  The store owns it.
    """

    def __init__(
        self,
        n_shards: int = 4,
        replication: int = 1,
        sync_replication: bool = True,
        default_n_parts: Optional[int] = None,
        runtime: "RuntimeSpec" = None,
    ):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if replication < 0:
            raise ValueError("replication must be >= 0")
        super().__init__(default_n_parts if default_n_parts is not None else n_shards)
        self.n_shards = n_shards
        self.runtime = resolve_runtime(runtime, n_workers=n_shards, name="shard")
        self.replication = replication
        self.sync_replication = sync_replication
        self._shards = [_Shard(i, replication) for i in range(n_shards)]
        self.stats = SerdeStats()
        self._codec = Codec(self.stats)

    # -- shard plumbing -----------------------------------------------------
    def shard_of_part(self, part_index: int) -> int:
        return part_index % self.n_shards

    def _shard(self, part_index: int) -> _Shard:
        shard = self._shards[self.shard_of_part(part_index)]
        if shard.failed:
            raise ShardFailedError(shard.index)
        return shard

    def _apply_batch(self, shard: _Shard, writes: list) -> None:
        """Apply a write batch to the primary and replicate it.

        A write is ``(table_name, part_index, ordered, key, value_or_None)``
        where ``None`` means delete.  Caller holds the shard lock.
        """
        for table_name, part_index, ordered, key, value in writes:
            view = shard.primary.part(table_name, part_index, ordered)
            if value is None:
                view.delete(key)
            else:
                view.put(key, value)
        self._replicate(shard, writes)

    def _replicate(self, shard: _Shard, writes: list) -> None:
        """Ship writes already applied to the primary to the backups as
        one batch (one marshal).  Caller holds the shard lock."""
        if not shard.backups:
            return
        if len(writes) > 1:
            self.stats.record_batch(len(writes))
        batch_id = shard.next_batch
        shard.next_batch += 1
        marshalled = self._codec.dumps((batch_id, writes))
        if self.sync_replication:
            for backup in shard.backups:
                self._apply_to_backup(backup, marshalled)
        else:
            for pending in shard.pending:
                pending.append(marshalled)

    def _apply_to_backup(self, backup: _Replica, marshalled: bytes) -> None:
        batch_id, writes = self._codec.loads(marshalled)
        for table_name, part_index, ordered, key, value in writes:
            view = backup.part(table_name, part_index, ordered)
            if value is None:
                view.delete(key)
            else:
                view.put(key, value)
        backup.applied_batch = batch_id

    # -- failure injection / recovery -------------------------------------------
    def sync_backups(self, shard_index: Optional[int] = None) -> None:
        """Drain pending replication batches (async mode)."""
        shards = self._shards if shard_index is None else [self._shards[shard_index]]
        for shard in shards:
            with shard.lock:
                for backup, pending in zip(shard.backups, shard.pending):
                    for marshalled in pending:
                        self._apply_to_backup(backup, marshalled)
                    pending.clear()

    def fail_primary(self, shard_index: int) -> None:
        """Simulate a crash of the shard's primary replica."""
        shard = self._shards[shard_index]
        with shard.lock:
            shard.failed = True

    def _quiesce_shard(self, shard_index: int) -> None:
        """Drain the short lane of the worker serving the shard's parts,
        so a write queued there lands before a promotion decides which
        backup is freshest."""
        self.runtime.drain_worker(shard_index % self.runtime.n_workers)

    def promote_backup(self, shard_index: int) -> int:
        """Promote the freshest backup to primary; return batches lost.

        With synchronous replication nothing is lost.  With async
        replication, writes queued but not yet applied to the promoted
        backup are gone — the situation EBSP recovery must repair.
        Quiesces the shard's worker first, so a write queued on its
        lane cannot race the promotion.
        """
        self._quiesce_shard(shard_index)
        shard = self._shards[shard_index]
        with shard.lock:
            if not shard.failed:
                raise TransactionError(f"shard {shard_index} primary has not failed")
            if not shard.backups:
                raise TransactionError(f"shard {shard_index} has no backup to promote")
            best = max(range(len(shard.backups)), key=lambda i: shard.backups[i].applied_batch)
            lost = len(shard.pending[best]) if not self.sync_replication else 0
            shard.primary = shard.backups[best]
            shard.backups = [
                b for i, b in enumerate(shard.backups) if i != best
            ] + [_Replica()]
            shard.pending = [[] for _ in shard.backups]
            shard.failed = False
            return lost

    def shard_transaction(self, shard_index: int) -> "ShardTransaction":
        """Open an atomic multi-table write batch on one shard."""
        return ShardTransaction(self, shard_index)

    # -- the catalog's hooks ---------------------------------------------------
    def _open_table(self, spec: TableSpec, n_parts: int) -> Table:
        return ReplicatedTable(spec, n_parts, self)

    def _release_table(self, table: Table) -> None:
        for shard in self._shards:
            with shard.lock:
                for replica in [shard.primary] + shard.backups:
                    for key in [k for k in replica.parts if k[0] == table.name]:
                        del replica.parts[key]


class ShardTransaction:
    """Atomic multi-table write batch against one shard.

    Usage::

        with store.shard_transaction(shard_idx) as txn:
            txn.put("states", part, key, value)
            txn.delete("pending", part, old_key)

    All writes apply together under the shard lock at ``__exit__``; an
    exception inside the block discards them.  Writes to parts that do
    not live on this shard are rejected.
    """

    def __init__(self, store: ReplicatedKVStore, shard_index: int):
        self._store = store
        self._shard_index = shard_index
        self._writes: list = []
        self._done = False

    def _table_info(self, table_name: str, part_index: int) -> TableSpec:
        table = self._store.get_table(table_name)
        if self._store.shard_of_part(part_index) != self._shard_index:
            raise TransactionError(
                f"part {part_index} of {table_name!r} is not on shard {self._shard_index}"
            )
        if not 0 <= part_index < table.n_parts:
            raise TransactionError(f"part {part_index} out of range for {table_name!r}")
        return table.spec

    def put(self, table_name: str, part_index: int, key: Any, value: Any) -> None:
        spec = self._table_info(table_name, part_index)
        if value is None:
            raise TransactionError("None is not a storable value; use delete()")
        self._writes.append((table_name, part_index, spec.ordered, key, value))

    def delete(self, table_name: str, part_index: int, key: Any) -> None:
        spec = self._table_info(table_name, part_index)
        self._writes.append((table_name, part_index, spec.ordered, key, None))

    def commit(self) -> None:
        if self._done:
            raise TransactionError("transaction already finished")
        self._done = True
        shard = self._store._shards[self._shard_index]
        if shard.failed:
            raise ShardFailedError(self._shard_index)
        with shard.lock:
            self._store._apply_batch(shard, self._writes)

    def abort(self) -> None:
        self._done = True
        self._writes = []

    def __enter__(self) -> "ShardTransaction":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None and not self._done:
            self.commit()
        elif not self._done:
            self.abort()


class _ReplicatingView(PartView):
    """Part view whose writes apply to the primary and replicate.

    Each write replicates on its own (mobile code, enumerations), so
    collocated mutations survive failover exactly like table-level ones;
    given a *writes* buffer, the writes collect there instead and
    replicate as one batch when the table operation that owns the
    buffer ends.
    """

    __slots__ = ("_store", "_shard", "_table", "_part_index", "_writes")

    def __init__(
        self,
        store: ReplicatedKVStore,
        shard: _Shard,
        table: "ReplicatedTable",
        part_index: int,
        writes: Optional[list] = None,
    ):
        self._store = store
        self._shard = shard
        self._table = table
        self._part_index = part_index
        self._writes = writes

    def _primary(self) -> PartView:
        return self._shard.primary.part(self._table.name, self._part_index, self._table.ordered)

    def _replicate(self, key: Any, value: Any) -> None:
        write = (self._table.name, self._part_index, self._table.ordered, key, value)
        if self._writes is not None:
            self._writes.append(write)
        else:
            self._store._replicate(self._shard, [write])

    def get(self, key: Any) -> Any:
        with self._shard.lock:
            return self._primary().get(key)

    def put(self, key: Any, value: Any) -> None:
        with self._shard.lock:
            self._primary().put(key, value)
            self._replicate(key, value)

    def delete(self, key: Any) -> bool:
        with self._shard.lock:
            present = self._primary().delete(key)
            if present:
                self._replicate(key, None)
            return present

    def items(self):
        with self._shard.lock:
            return self._primary().items()

    def range_items(self, lo: Any = None, hi: Any = None):
        with self._shard.lock:
            return self._primary().range_items(lo, hi)

    def __len__(self) -> int:
        with self._shard.lock:
            return len(self._primary())


class ReplicatedTable(Table):
    """A table stored in a :class:`ReplicatedKVStore`."""

    def _view(self, part_index: int) -> PartView:
        return _ReplicatingView(self._store, self._store._shard(part_index), self, part_index)

    def _call(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Any:
        store = self._store
        shard = store._shard(part_index)
        writes: list = []
        with shard.lock:
            try:
                return op(_ReplicatingView(store, shard, self, part_index, writes), *args)
            finally:
                # what the op applied to the primary replicates, even when
                # it failed part-way, so backups never fall behind
                if writes:
                    store._replicate(shard, writes)
