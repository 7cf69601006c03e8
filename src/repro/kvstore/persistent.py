"""The HBase-analog store: disk-backed parts with logs and segments.

The paper's second adapter targets Apache HBase (Section IV-B).  This
module provides the closest synthetic equivalent that exercises the
same SPI surface with durable storage:

- every part has an append-only *write log* on disk (framed pickle
  records) and an in-memory index reconstructed from segments + log at
  open time;
- :meth:`PersistentKVStore.flush` turns a part's state into a sorted
  *segment* file and truncates the log (an LSM-lite);
- a store directory can be closed and reopened, recovering all data —
  the property the durability tests pin down.

Parallelism is intentionally absent (like :class:`LocalKVStore`); the
point of this store is portability and durability, not speed.  Its part
back-end is the durable view: every write is applied and logged, and the
writes of one table operation (a whole per-part ``put_many`` batch, say)
share one log flush.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import threading
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.kvstore.api import KVStore, PartView, Table, TableSpec
from repro.kvstore.memory_table import make_part
from repro.runtime import RuntimeSpec, resolve_runtime
from repro.serde import SerdeStats

_LEN = struct.Struct("<I")


def _frame(record: Any, stats: Optional[SerdeStats] = None) -> bytes:
    data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    if stats is not None:
        stats.record_marshal(len(data))
    return _LEN.pack(len(data)) + data


def _append_record(fh, record: Any, stats: Optional[SerdeStats] = None) -> None:
    fh.write(_frame(record, stats))
    fh.flush()


def _append_batch(fh, records: Iterable[Any], stats: Optional[SerdeStats] = None) -> None:
    """Frame every record, write them all, flush *once* — the log-write
    analog of one marshalled request per batch."""
    fh.write(b"".join(_frame(record, stats) for record in records))
    fh.flush()


def _read_records(path: str, stats: Optional[SerdeStats] = None) -> list:
    """Read framed records; a truncated tail (torn write) is ignored."""
    records = []
    if not os.path.exists(path):
        return records
    with open(path, "rb") as fh:
        while True:
            header = fh.read(_LEN.size)
            if len(header) < _LEN.size:
                break
            (length,) = _LEN.unpack(header)
            data = fh.read(length)
            if len(data) < length:
                break
            records.append(pickle.loads(data))
            if stats is not None:
                stats.record_unmarshal()
    return records


class _DiskPart:
    """One part: in-memory view + on-disk log and segment."""

    def __init__(self, directory: str, ordered: bool, stats: Optional[SerdeStats] = None):
        self.directory = directory
        self.ordered = ordered
        self.stats = stats
        self.view: PartView = make_part(ordered)
        self.log_path = os.path.join(directory, "write.log")
        self.segment_path = os.path.join(directory, "segment.dat")
        os.makedirs(directory, exist_ok=True)
        self._recover()
        self._log = open(self.log_path, "ab")
        self.lock = threading.RLock()

    def _recover(self) -> None:
        for key, value in _read_records(self.segment_path, self.stats):
            self.view.put(key, value)
        for op, key, value in _read_records(self.log_path, self.stats):
            if op == "put":
                self.view.put(key, value)
            else:
                self.view.delete(key)

    def log(self, records: list) -> None:
        """Append *records* with a single log flush (the log-write analog
        of one marshalled request); a multi-record flush counts as one
        batched request."""
        if len(records) > 1 and self.stats is not None:
            self.stats.record_batch(len(records))
        _append_batch(self._log, records, self.stats)

    def flush(self) -> None:
        """Write the whole part as one sorted segment; truncate the log."""
        with self.lock:
            pairs = sorted(self.view.items(), key=lambda kv: repr(kv[0]))
            tmp = self.segment_path + ".tmp"
            with open(tmp, "wb") as fh:
                for pair in pairs:
                    _append_record(fh, pair)
            os.replace(tmp, self.segment_path)
            self._log.close()
            self._log = open(self.log_path, "wb")
            self._log.flush()

    def close(self) -> None:
        with self.lock:
            self._log.close()


class _DurableView(PartView):
    """A part view whose writes go through the log.

    Each write is logged on its own (mobile code, enumerations) or — given
    a *records* buffer — collected for one flush when the table operation
    that owns the buffer ends.
    """

    __slots__ = ("_part", "_records")

    def __init__(self, part: _DiskPart, records: Optional[list] = None):
        self._part = part
        self._records = records

    def _log(self, record: tuple) -> None:
        if self._records is not None:
            self._records.append(record)
        else:
            self._part.log([record])

    def get(self, key: Any) -> Any:
        return self._part.view.get(key)

    def put(self, key: Any, value: Any) -> None:
        with self._part.lock:
            self._part.view.put(key, value)
            self._log(("put", key, value))

    def delete(self, key: Any) -> bool:
        with self._part.lock:
            present = self._part.view.delete(key)
            if present:
                self._log(("del", key, None))
            return present

    def items(self) -> Iterator[tuple]:
        return self._part.view.items()

    def range_items(self, lo: Any = None, hi: Any = None) -> Iterator[tuple]:
        return self._part.view.range_items(lo, hi)

    def __len__(self) -> int:
        return len(self._part.view)


class PersistentTable(Table):
    """A disk-backed table."""

    def __init__(self, spec: TableSpec, n_parts: int, store: "PersistentKVStore"):
        super().__init__(spec, n_parts, store)
        base = os.path.join(store.directory, "tables", spec.name)
        self._parts = [
            _DiskPart(os.path.join(base, f"part-{i:04d}"), spec.ordered, store.stats)
            for i in range(n_parts)
        ]

    def _view(self, part_index: int) -> PartView:
        return _DurableView(self._parts[part_index])

    def _call(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Any:
        part = self._parts[part_index]
        records: list = []
        with part.lock:
            try:
                return op(_DurableView(part, records), *args)
            finally:
                # whatever the op applied is logged, even when it failed
                # part-way, so memory and log never disagree
                if records:
                    part.log(records)

    def flush(self) -> None:
        """Flush all parts to sorted segments."""
        self._check()
        for part in self._parts:
            part.flush()

    def _close(self) -> None:
        for part in self._parts:
            part.close()


class PersistentKVStore(KVStore):
    """Disk-backed store rooted at a directory; survives close/reopen."""

    _META = "tables.meta"
    #: Durable store: engines fold cumulative job counters into the
    #: ``__ripple_job_stats`` table so ``inspect --stats`` can report them.
    keeps_job_stats = True

    def __init__(
        self,
        directory: str,
        default_n_parts: int = 4,
        runtime: RuntimeSpec = None,
    ):
        super().__init__(default_n_parts)
        self.directory = directory
        # Durability, not parallelism, is this store's point — collocated
        # work defaults to running inline on the caller.
        self.runtime = resolve_runtime(
            runtime, n_workers=default_n_parts, name="disk", default="inline"
        )
        #: Log/segment I/O counters: marshals = framed records written,
        #: unmarshals = records replayed at recovery, batches = log
        #: writes covering several records with a single disk flush.
        self.stats = SerdeStats()
        os.makedirs(directory, exist_ok=True)
        self._meta_path = os.path.join(directory, self._META)
        for spec, n_parts in _read_records(self._meta_path):
            if spec.name not in self._tables:
                self._tables[spec.name] = PersistentTable(spec, n_parts, self)

    def _persist_meta(self) -> None:
        """Write the table catalog (caller holds the catalog lock).

        Tables with a custom ``key_hash`` are *ephemeral*: a function
        cannot be persisted, so they are excluded from the catalog and
        will not exist after a reopen.  That matches their use — the
        EBSP engine's private transport tables, dropped at job end.
        """
        tmp = self._meta_path + ".tmp"
        with open(tmp, "wb") as fh:
            for table in self._tables.values():
                if table.spec.key_hash is None:
                    _append_record(fh, (table.spec, table.n_parts))
        os.replace(tmp, self._meta_path)

    def _table_dir(self, name: str) -> str:
        return os.path.join(self.directory, "tables", name)

    def _open_table(self, spec: TableSpec, n_parts: int) -> Table:
        if spec.key_hash is not None:
            # ephemeral table: clear any orphaned data from a prior
            # session so recovery does not resurrect stale entries
            shutil.rmtree(self._table_dir(spec.name), ignore_errors=True)
        return PersistentTable(spec, n_parts, self)

    def create_table(self, spec: TableSpec) -> Table:
        table = super().create_table(spec)
        with self._lock:
            self._persist_meta()
        return table

    def _release_table(self, table: Table) -> None:
        table._close()
        with self._lock:
            self._persist_meta()
        shutil.rmtree(self._table_dir(table.name), ignore_errors=True)

    def _release_store(self) -> None:
        # the runtime has drained, so no collocated work still writes
        with self._lock:
            for table in self._tables.values():
                table._close()
