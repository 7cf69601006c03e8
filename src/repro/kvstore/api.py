"""The key/value store SPI (System Programming Interface).

This is the narrow lower-layer interface from Section III-A of the
paper.  The K/V EBSP engine — and everything above it — is written
against these abstract classes only, which is what makes Ripple
portable across store implementations.

Concepts
--------

Tables
    Key/value data are organized into *tables*.  Each table is
    partitioned into *parts*, identified by successive integers starting
    at 0.  A table may be *ordered* (its per-part enumerations visit
    keys in sorted order) and/or *ubiquitous* (quick to read, limited
    size, expected to be fully replicated everywhere).

Co-partitioning
    A table can be created "like" another table, guaranteeing the two
    share a part count and key→part mapping, so that a computation
    touching both finds corresponding entries collocated.

Enumeration with consumers
    When enumerating parts, the client supplies a
    :class:`PartConsumer` whose results are pairwise combined; when
    enumerating pairs, a :class:`PairConsumer` with per-part setup and
    finalize hooks and an early-stop signal.  This inversion lets the
    store run the client code *where the data lives*.

Collocated compute ("mobile code")
    ``Table.run_collocated(part, fn)`` executes ``fn`` at the location
    holding that part.  Ripple moves placement of computation into the
    storage layer; this is the hook it uses.

Front and part back-end
    Everything a table or store does the same way everywhere is written
    once here: :class:`Table` is the table front (every public
    operation, with its dropped/epoch/``None``/ubiquity rules, batch
    splitting and enumeration folding) and :class:`KVStore` the catalog.
    A store supplies only a *part back-end* — which view serves a part
    and how a :class:`PartOps` body reaches it.
"""

from __future__ import annotations

import abc
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from itertools import repeat
from operator import is_, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.errors import (
    BadTableSpecError,
    NoSuchTableError,
    TableDroppedError,
    TableExistsError,
    UbiquityViolationError,
)
from repro.runtime.shipping import CONSUMER_SHIP_ATTR
from repro.util.hashing import part_for_key
from repro.util.sorting import stable_argsort


def run_to_future(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
    """Run ``fn(*args, **kwargs)`` now; its result or exception as a
    resolved future (how a store without a concurrent substrate answers
    a non-blocking call)."""
    future: Future = Future()
    try:
        future.set_result(fn(*args, **kwargs))
    except BaseException as exc:
        future.set_exception(exc)
    return future


def has_none(values: Iterable[Any]) -> bool:
    """Whether any of *values* is ``None`` (identity only, at C speed:
    values such as arrays never get compared)."""
    return any(map(is_, values, repeat(None)))


def _int_column(keys: Any) -> Optional[np.ndarray]:
    """*keys* as an integer ndarray when every key is an integer, else
    ``None``.

    An integer-dtype ndarray passes as is; any other sequence only when
    each element is exactly ``int`` or a numpy integer.  Bools are
    excluded: ``np.asarray`` would coerce a ``True`` among ints to 1,
    but a bool key hashes as a bool, not as the int it equals.
    """
    if isinstance(keys, np.ndarray):
        return keys if keys.dtype.kind in "iu" else None
    for kind in set(map(type, keys)):
        if kind is not int and not issubclass(kind, np.integer):
            return None
    try:
        column = np.asarray(keys)
    except OverflowError:
        return None
    # ints beyond 64 bits stay objects; int64 mixed with uint64 widens
    # to float — both route per key
    return column if column.dtype.kind in "iu" else None


@dataclass(frozen=True)
class TableSpec:
    """Description of a table to create.

    Parameters
    ----------
    name:
        Unique table name within the store.
    n_parts:
        Number of parts.  ``None`` asks the store to use its default.
        Must be ``None`` when ``like`` is given (the part count is
        inherited) and is forced to 1 for ubiquitous tables.
    ordered:
        If true, per-part enumeration visits keys in ascending order.
        Keys of an ordered table must be mutually comparable.
    ubiquitous:
        Declares the ubiquitous-table contract: small and quick to
        read from anywhere.  Implementations may bound the size
        (``ubiquity_limit``) and replicate the content everywhere.
    like:
        Name of an existing table this one must be partitioned
        consistently with (same part count, same key→part mapping).
    replication:
        Number of replicas per part *in addition to* the primary.
        Only stores that implement replication honor values > 0.
    key_hash:
        Optional override of the key→part hash, the client's lever for
        controlling placement.  Must be deterministic.
    ubiquity_limit:
        Maximum number of entries a ubiquitous table may hold.
    """

    name: str
    n_parts: Optional[int] = None
    ordered: bool = False
    ubiquitous: bool = False
    like: Optional[str] = None
    replication: int = 0
    key_hash: Optional[Callable[[Any], int]] = field(default=None, compare=False)
    ubiquity_limit: int = 100_000

    def validate(self) -> None:
        if not self.name:
            raise BadTableSpecError("table name must be non-empty")
        if self.n_parts is not None and self.n_parts <= 0:
            raise BadTableSpecError(f"n_parts must be positive, got {self.n_parts}")
        if self.like is not None and self.n_parts is not None:
            raise BadTableSpecError("give either n_parts or like=, not both")
        if self.ubiquitous and self.like is not None:
            raise BadTableSpecError("a ubiquitous table cannot be co-partitioned")
        if self.replication < 0:
            raise BadTableSpecError(f"replication must be >= 0, got {self.replication}")
        if self.ubiquity_limit <= 0:
            raise BadTableSpecError("ubiquity_limit must be positive")


class PartConsumer(abc.ABC):
    """Callback object for part enumeration (paper Section III-A).

    ``process_part`` runs once per part — collocated with the part when
    the store supports that — and ``combine`` merges two results.  The
    overall enumeration result is the combine-fold of all per-part
    results (``None`` if the table has no parts, which cannot happen
    for a valid table).
    """

    @abc.abstractmethod
    def process_part(self, part_index: int, part: "PartView") -> Any:
        """Process one part; return a partial result."""

    @abc.abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Combine two partial results; must be associative."""


class PairConsumer(abc.ABC):
    """Callback object for key/value pair enumeration.

    For each part the store calls ``setup_part`` once, then ``consume``
    for each pair (stopping that part early when it returns ``True``),
    then ``finish_part``, whose results are merged pairwise with
    ``combine``.
    """

    def setup_part(self, part_index: int) -> None:
        """Called once before the pairs of a part are consumed."""

    @abc.abstractmethod
    def consume(self, key: Any, value: Any) -> bool:
        """Consume one pair.  Return ``True`` to stop this part's enumeration."""

    def finish_part(self, part_index: int) -> Any:
        """Called once after a part's pairs; returns this part's result."""
        return None

    def combine(self, a: Any, b: Any) -> Any:
        """Combine two per-part results; must be associative."""
        if a is None:
            return b
        if b is None:
            return a
        raise NotImplementedError(
            "PairConsumer.combine must be overridden when finish_part returns results"
        )


class FnPartConsumer(PartConsumer):
    """Adapter building a :class:`PartConsumer` from two functions."""

    def __init__(self, process: Callable[[int, "PartView"], Any], combine: Callable[[Any, Any], Any]):
        self._process = process
        self._combine = combine

    def process_part(self, part_index: int, part: "PartView") -> Any:
        return self._process(part_index, part)

    def combine(self, a: Any, b: Any) -> Any:
        return self._combine(a, b)


class FnPairConsumer(PairConsumer):
    """Adapter building a :class:`PairConsumer` from a consume function.

    The supplied function may return ``None`` (meaning "continue"),
    which is friendlier than requiring an explicit ``False``.
    """

    def __init__(
        self,
        consume: Callable[[Any, Any], Any],
        setup: Optional[Callable[[int], None]] = None,
        finish: Optional[Callable[[int], Any]] = None,
        combine: Optional[Callable[[Any, Any], Any]] = None,
    ):
        self._consume = consume
        self._setup = setup
        self._finish = finish
        self._combine = combine

    def setup_part(self, part_index: int) -> None:
        if self._setup is not None:
            self._setup(part_index)

    def consume(self, key: Any, value: Any) -> bool:
        return bool(self._consume(key, value))

    def finish_part(self, part_index: int) -> Any:
        if self._finish is not None:
            return self._finish(part_index)
        return None

    def combine(self, a: Any, b: Any) -> Any:
        if self._combine is not None:
            return self._combine(a, b)
        return super().combine(a, b)


class PartView(abc.ABC):
    """Read/write access to a single part, handed to collocated code.

    A :class:`PartView` is only valid inside the callback it was handed
    to; stores are free to invalidate it afterwards.
    """

    @abc.abstractmethod
    def get(self, key: Any) -> Any:
        ...

    @abc.abstractmethod
    def put(self, key: Any, value: Any) -> None:
        ...

    def put_many(self, batch: list) -> None:
        """Apply a list of ``(key, value)`` pairs, equivalent to
        :meth:`put` per pair in order: a key repeated in the batch keeps
        its first position and takes its last value.  A ``None`` value
        raises ``ValueError``.  Back-ends override this to apply the
        whole batch in one step."""
        for key, value in batch:
            self.put(key, value)

    @abc.abstractmethod
    def delete(self, key: Any) -> bool:
        ...

    @abc.abstractmethod
    def items(self) -> Iterator[tuple]:
        """Iterate (key, value) pairs; sorted by key iff the table is ordered."""

    @abc.abstractmethod
    def __len__(self) -> int:
        ...

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    def range_items(self, lo: Optional[Any] = None, hi: Optional[Any] = None) -> Iterator[tuple]:
        """Pairs with ``lo <= key < hi``; sorted iff the part is ordered.

        The default filters a full scan; ordered parts override with an
        index seek.
        """
        for key, value in self.items():
            if lo is not None and key < lo:
                continue
            if hi is not None and key >= hi:
                continue
            yield key, value


def resolve_n_parts(spec: TableSpec, store: "KVStore") -> int:
    """Compute the part count for *spec* within *store*."""
    spec.validate()
    if spec.ubiquitous:
        return 1
    if spec.like is not None:
        return store.get_table(spec.like).n_parts
    if spec.n_parts is not None:
        return spec.n_parts
    return store.default_n_parts


def fold_part_results(consumer: Any, results: list) -> Any:
    """Left-fold per-part results through ``consumer.combine``."""
    acc = None
    first = True
    for result in results:
        if first:
            acc = result
            first = False
        else:
            acc = consumer.combine(acc, result)
    return acc


def consume_items(part_index: int, items: Iterable[tuple], consumer: PairConsumer) -> Any:
    """Drive one part's pairs through *consumer* (setup, consume until it
    asks to stop, finish)."""
    consumer.setup_part(part_index)
    for key, value in items:
        if consumer.consume(key, value):
            break
    return consumer.finish_part(part_index)


class PartOps:
    """The operation bodies the table front routes to a single part.

    Every table operation reaches a part as ``op(view, *args)`` (point,
    batch, size/clear) or ``op(part_index, view, consumer)``
    (enumeration).  A back-end whose parts live in another address
    space swaps in shippable twins of the same bodies (its ``_ops``).
    """

    @staticmethod
    def get(view: PartView, key: Any) -> Any:
        return view.get(key)

    @staticmethod
    def put(view: PartView, key: Any, value: Any) -> None:
        view.put(key, value)

    @staticmethod
    def delete(view: PartView, key: Any) -> bool:
        return view.delete(key)

    @staticmethod
    def checked_put(view: PartView, key: Any, value: Any, limit: int, name: str) -> None:
        """A put enforcing the ubiquity limit collocated with the (single)
        part: its length is the table size, so one request checks and
        writes."""
        if len(view) >= limit and view.get(key) is None:
            raise UbiquityViolationError(
                f"ubiquitous table {name!r} exceeds its limit of {limit}"
            )
        view.put(key, value)

    @staticmethod
    def put_batch(view: PartView, batch: list) -> None:
        view.put_many(batch)

    @staticmethod
    def checked_put_batch(view: PartView, batch: list, limit: int, name: str) -> None:
        for key, value in batch:
            PartOps.checked_put(view, key, value, limit, name)

    @staticmethod
    def get_batch(view: PartView, keys: list) -> list:
        get = view.get
        return [get(key) for key in keys]

    @staticmethod
    def delete_batch(view: PartView, keys: list) -> None:
        for key in keys:
            view.delete(key)

    @staticmethod
    def length(view: PartView) -> int:
        return len(view)

    @staticmethod
    def clear(view: PartView) -> None:
        for key in list(view.keys()):
            view.delete(key)

    @staticmethod
    def process_part(part_index: int, view: PartView, consumer: PartConsumer) -> Any:
        return consumer.process_part(part_index, view)

    @staticmethod
    def consume_pairs(part_index: int, view: PartView, consumer: PairConsumer) -> Any:
        return consume_items(part_index, view.items(), consumer)


class Table(abc.ABC):
    """A partitioned key/value table (paper Section III-A).

    Keys and values are general objects.  ``get`` returns ``None`` for
    absent keys (``None`` is not a storable value, matching the paper's
    Java heritage); ``delete`` returns whether the key was present.

    The class is the *table front*, written once for every store: the
    dropped check, the mutation epoch, tracing spans, the ``None`` and
    ubiquity rules, the per-part split of batches, enumeration folding
    and the collocated-dispatch bounds check all live here.  A store
    supplies only its *part back-end* — the private hooks below
    :meth:`_view` — which say which view serves a part and how an
    operation reaches it.
    """

    #: The per-part operation bodies this table routes (see :class:`PartOps`).
    _ops: Any = PartOps

    def __init__(self, spec: TableSpec, n_parts: int, store: Optional["KVStore"] = None):
        self._spec = spec
        self._n_parts = n_parts
        self._store = store
        self._mutation_epoch = 0
        self._dropped = False

    @property
    def spec(self) -> TableSpec:
        return self._spec

    # -- mutation epochs ---------------------------------------------------
    #
    # Every write entry point (put/delete/clear and the bulk/async
    # variants) bumps the epoch once, after the table passed its dropped
    # check.  The counter is deliberately coarse: it answers "has this
    # table possibly changed since epoch E?" — which is all the service
    # layer's result cache needs for invalidation — not "how many
    # records changed".  Increments are best-effort under concurrency
    # (a racing pair may collapse into one bump); what is guaranteed is
    # that a quiescent table's epoch is stable and any mutation between
    # two quiescent reads changes it.
    @property
    def mutation_epoch(self) -> int:
        """Monotone counter distinguishing table versions for caching."""
        return self._mutation_epoch

    def note_mutation(self) -> None:
        """Advance the mutation epoch (every write path calls this)."""
        self._mutation_epoch += 1

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def n_parts(self) -> int:
        return self._n_parts

    @property
    def ordered(self) -> bool:
        return self._spec.ordered

    @property
    def ubiquitous(self) -> bool:
        return self._spec.ubiquitous

    def part_of(self, key: Any) -> int:
        """Return the index of the part holding *key*."""
        if self._spec.key_hash is not None:
            return int(self._spec.key_hash(key)) % self._n_parts
        return part_for_key(key, self._n_parts)

    def part_of_many(self, keys: Any) -> np.ndarray:
        """Part index per key, as an int64 array aligned with *keys*.

        The batch data plane routes whole key columns at once.  Integer
        key columns (see :func:`_int_column`) under the default hash
        vectorize (the stable hash of an int is its low 32 bits);
        everything else falls back to a per-key loop with identical
        results.
        """
        n = len(keys)
        if self._n_parts == 1:
            return np.zeros(n, dtype=np.int64)
        column = _int_column(keys) if self._spec.key_hash is None else None
        if column is not None:
            hashes = column.astype(np.uint64) & np.uint64(0xFFFFFFFF)
            return (hashes % np.uint64(self._n_parts)).astype(np.int64)
        part_of = self.part_of
        return np.fromiter((part_of(k) for k in keys), dtype=np.int64, count=n)

    # -- the front's own rules -----------------------------------------------
    def _check(self) -> None:
        """Every public operation starts here: a dropped table raises."""
        if self._dropped:
            raise TableDroppedError(self.name)

    def _mark_dropped(self) -> None:
        self._dropped = True

    def _put_request(self, key: Any, value: Any) -> tuple:
        """``(op, *args)`` for one checked put; bumps the epoch."""
        self._check()
        if value is None:
            raise ValueError("None is not a storable value; use delete()")
        self.note_mutation()
        if self.ubiquitous:
            return (self._ops.checked_put, key, value, self._spec.ubiquity_limit, self.name)
        return (self._ops.put, key, value)

    def _split(self, keys: Any, items: list) -> dict:
        """Group *items* by the part of the aligned key in *keys*: ``{part:
        items}``, each part's items in input order.

        An integer key column under the default hash routes with one
        :meth:`part_of_many` call: a batch landing in one part (a
        part-step's own state always does) passes through whole, any
        other splits with one :func:`stable_argsort`.  Other keys, and
        tables with a custom ``key_hash``, route per key.
        """
        if not items:
            return {}
        if self._n_parts == 1:
            return {0: items}
        column = _int_column(keys) if self._spec.key_hash is None else None
        if column is None:
            by_part: dict = {}
            part_of = self.part_of
            for key, item in zip(keys, items):
                by_part.setdefault(part_of(key), []).append(item)
            return by_part
        parts = self.part_of_many(column)
        if (parts == parts[0]).all():
            return {int(parts[0]): items}
        order = stable_argsort(parts)
        runs = np.split(order, np.flatnonzero(np.diff(parts[order])) + 1)
        return {int(parts[run[0]]): [items[i] for i in run.tolist()] for run in runs}

    def _split_keys(self, keys: Iterable[Any]) -> dict:
        """:meth:`_split` of a key batch: ``{part: keys}``."""
        keys = keys if isinstance(keys, list) else list(keys)
        return self._split(keys, keys)

    def _part_indices(self, parts: Optional[Iterable[int]]) -> list:
        return list(range(self._n_parts)) if parts is None else sorted(set(parts))

    def _batch_span(self, op: str, items: Any) -> tuple:
        """``(items, span)`` for one batched call.

        When tracing is active the items are materialized (to count
        them) and a ``cat="store"`` span is returned for the caller to
        enter around the batch; when tracing is off the items pass
        through untouched and the span is the shared no-op.
        """
        from repro.obs.trace import NULL_SPAN, get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return items, NULL_SPAN
        if not isinstance(items, (list, tuple)):
            items = list(items)
        return items, tracer.span(op, cat="store", table=self.name, records=len(items))

    # -- point operations ------------------------------------------------
    def get(self, key: Any) -> Any:
        """Return the value for *key*, or ``None`` when absent."""
        self._check()
        return self._call(self.part_of(key), self._ops.get, key, readonly=True)

    def put(self, key: Any, value: Any) -> None:
        """Associate *value* (not ``None``) with *key*."""
        self._call(self.part_of(key), *self._put_request(key, value))

    def delete(self, key: Any) -> bool:
        """Remove *key*; return whether it was present."""
        self._check()
        self.note_mutation()
        return bool(self._call(self.part_of(key), self._ops.delete, key, readonly=True))

    def contains(self, key: Any) -> bool:
        return self.get(key) is not None

    # -- non-blocking point operations -------------------------------------
    #
    # The async variants return a :class:`concurrent.futures.Future` so
    # clients (notably the EBSP spill transport) can overlap computation
    # with cross-partition I/O and gather at a barrier.  The table rules
    # (dropped, None) raise synchronously; what the part itself rejects
    # fails the future.
    def put_async(self, key: Any, value: Any) -> Future:
        """Non-blocking :meth:`put`; resolves to ``None`` when applied."""
        return self._submit(self.part_of(key), *self._put_request(key, value))

    def delete_async(self, key: Any) -> Future:
        """Non-blocking :meth:`delete`; resolves to the presence bool."""
        self._check()
        self.note_mutation()
        return self._submit(self.part_of(key), self._ops.delete, key, readonly=True)

    # -- bulk operations -----------------------------------------------------
    #
    # One request per touched part, dispatched concurrently.  The
    # contract: ``put_many(pairs)`` is equivalent to (but may be much
    # cheaper than) calling ``put`` per pair; a ``None`` value is
    # rejected before anything is applied; any other partial failure
    # leaves a prefix-undefined state, exactly like a loop would.
    def put_many(self, pairs: Iterable[tuple]) -> None:
        """Store every (key, value) pair; one request per touched part."""
        self._check()
        pairs, span = self._batch_span("store.put_many", pairs)
        with span:
            for future in self.put_many_async(pairs):
                future.result()

    def put_many_async(self, pairs: Iterable[tuple]) -> List[Future]:
        """Dispatch every per-part put batch without waiting; returns the
        futures to gather."""
        self._check()
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        if has_none(map(itemgetter(1), pairs)):
            raise ValueError("None is not a storable value; use delete()")
        by_part = self._split(list(map(itemgetter(0), pairs)), pairs)
        self.note_mutation()
        if self.ubiquitous:
            limit = self._spec.ubiquity_limit
            return [
                self._submit(0, self._ops.checked_put_batch, batch, limit, self.name)
                for batch in by_part.values()
            ]
        put_batch = self._ops.put_batch
        return [
            self._send_batch(part, put_batch, batch) for part, batch in by_part.items()
        ]

    def get_many(self, keys: Iterable[Any]) -> dict:
        """Look up many keys at once, one request per touched part.
        Absent keys map to ``None``."""
        self._check()
        keys, span = self._batch_span("store.get_many", keys)
        with span:
            get_batch = self._ops.get_batch
            requests = [
                (part_keys, self._send_batch(part, get_batch, part_keys, readonly=True))
                for part, part_keys in self._split_keys(keys).items()
            ]
            out: dict = {}
            for part_keys, future in requests:
                out.update(zip(part_keys, future.result()))
            return out

    def delete_many(self, keys: Iterable[Any]) -> None:
        """Remove every key; one request per touched part."""
        self._check()
        keys, span = self._batch_span("store.delete_many", keys)
        with span:
            for future in self.delete_many_async(keys):
                future.result()

    def delete_many_async(self, keys: Iterable[Any]) -> List[Future]:
        """Dispatch every per-part delete batch without waiting; returns
        the futures to gather."""
        self._check()
        self.note_mutation()
        delete_batch = self._ops.delete_batch
        return [
            self._send_batch(part, delete_batch, batch, readonly=True)
            for part, batch in self._split_keys(keys).items()
        ]

    # -- enumeration -------------------------------------------------------
    def _enum_ops(self, consumer: Any) -> Any:
        """The ops running *consumer*: shipped with the part when the
        consumer opted in and the back-end can ship, else in place."""
        return self._ops if getattr(consumer, CONSUMER_SHIP_ATTR, False) else PartOps

    def enumerate_parts(self, consumer: PartConsumer, parts: Optional[Iterable[int]] = None) -> Any:
        """Run *consumer* over each part (or the given subset) and fold results."""
        self._check()
        results = self._gather(
            self._part_indices(parts), self._enum_ops(consumer).process_part, consumer
        )
        return fold_part_results(consumer, results)

    def submit_part_steps(
        self, consumer: PartConsumer, parts: Optional[Iterable[int]] = None
    ) -> Dict[int, Future]:
        """:meth:`enumerate_parts` without the fold: ``{part: Future}``.

        A failure — in the consumer, or the loss of the worker running
        it — fails only that part's future, so the caller can re-drive
        just that part (a shipped consumer pickles fresh per submission).
        """
        self._check()
        indices = self._part_indices(parts)
        futures = self._dispatch(indices, self._enum_ops(consumer).process_part, consumer)
        return dict(zip(indices, futures))

    def enumerate_pairs(self, consumer: PairConsumer, parts: Optional[Iterable[int]] = None) -> Any:
        """Run *consumer* over every pair of each part and fold per-part results."""
        self._check()
        results = self._gather(
            self._part_indices(parts), self._enum_ops(consumer).consume_pairs, consumer
        )
        return fold_part_results(consumer, results)

    # -- collocated compute -------------------------------------------------
    def run_collocated(self, part_index: int, fn: Callable[[int, PartView], Any]) -> Any:
        """Run mobile code *fn(part_index, part_view)* at *part_index*'s location."""
        self._check()
        if not 0 <= part_index < self._n_parts:
            raise IndexError(f"part {part_index} out of range for {self.name!r}")
        return self._gather([part_index], fn)[0]

    def range_scan(self, lo: Optional[Any] = None, hi: Optional[Any] = None) -> list:
        """All (key, value) pairs with ``lo <= key < hi``, globally sorted.

        Requires an *ordered* table.  Each part seeks its sorted index
        (keys are hash-spread, so every part contributes a slice) and
        the per-part runs are merged client-side — the finer-grained
        access path the paper's key/value data model enables, versus a
        complete file scan.
        """
        import heapq

        from repro.errors import StoreError

        self._check()
        if not self.ordered:
            raise StoreError(
                f"range_scan requires an ordered table; {self.name!r} is not "
                "(create it with TableSpec(ordered=True))"
            )

        class _Range(PartConsumer):
            def process_part(self, part_index: int, part: "PartView") -> Any:
                return [list(part.range_items(lo, hi))]

            def combine(self, a: Any, b: Any) -> Any:
                return a + b

        runs = self.enumerate_parts(_Range()) or []
        return list(heapq.merge(*runs))

    # -- whole-table helpers -------------------------------------------------
    def size(self) -> int:
        """Total number of entries across all parts."""
        self._check()
        length = self._ops.length
        futures = [self._submit(part, length) for part in range(self._n_parts)]
        return sum(future.result() for future in futures)

    def clear(self) -> None:
        """Remove all entries."""
        self._check()
        self.note_mutation()
        clear = self._ops.clear
        for future in [self._submit(part, clear) for part in range(self._n_parts)]:
            future.result()

    def items(self) -> list:
        """Materialize all (key, value) pairs.  Convenience for tests/tools."""
        out: list = []

        class _Collect(PairConsumer):
            def consume(self, key: Any, value: Any) -> bool:
                out.append((key, value))
                return False

        self.enumerate_pairs(_Collect())
        return out

    # -- the part back-end ---------------------------------------------------
    #
    # What a store supplies.  ``_view`` is the only required hook; the
    # rest default to running every operation in place on that view and
    # every part-wide task on the store runtime's long lane.
    @abc.abstractmethod
    def _view(self, part_index: int) -> PartView:
        """The view serving *part_index* to enumerations and mobile code."""

    def _call(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Any:
        """Run ``op(view, *args)`` at the part (the short lane) and return
        its result.  *readonly* promises *op* only reads *args*."""
        return op(self._view(part_index), *args)

    def _submit(self, part_index: int, op: Callable[..., Any], *args: Any, readonly: bool = False) -> Future:
        """Non-blocking :meth:`_call`: the future resolves to *op*'s result."""
        return run_to_future(self._call, part_index, op, *args, readonly=readonly)

    def _send_batch(self, part_index: int, op: Callable[..., Any], batch: list, readonly: bool = False) -> Future:
        """Dispatch one per-part batch; back-ends that count batched
        requests do it here."""
        return self._submit(part_index, op, batch, readonly=readonly)

    def _dispatch(self, indices: list, fn: Callable[..., Any], *args: Any) -> List[Future]:
        """Start ``fn(part_index, view, *args)`` at each part on the long
        lane, concurrently; return its futures in *indices* order.

        Parts served by the calling thread's own worker run inline, after
        the others are dispatched — waiting on our own serialized long
        slot would deadlock.
        """
        runtime = self._store.runtime
        here = runtime.current_worker()
        futures = {
            i: runtime.submit_long(i, fn, i, self._view(i), *args)
            for i in indices
            if runtime.worker_of(i) != here
        }
        return [
            futures[i] if i in futures else run_to_future(fn, i, self._view(i), *args)
            for i in indices
        ]

    def _gather(self, indices: list, fn: Callable[..., Any], *args: Any) -> list:
        """:meth:`_dispatch`, then wait: the results in *indices* order."""
        return [future.result() for future in self._dispatch(indices, fn, *args)]


class KVStore(abc.ABC):
    """A key/value store: a namespace of tables plus a compute substrate.

    The catalog — create (with the exists check), look-up, listing,
    drop (mark the handle dropped, then let the store release the
    parts) and an idempotent :meth:`close` — is written once here; a
    store supplies :meth:`_open_table` and, when it holds resources,
    the ``_release_*`` hooks.

    Every implementation exposes its execution substrate as
    ``store.runtime`` (a :class:`~repro.runtime.WorkerRuntime`) and
    releases it in :meth:`close`.  Stores are context managers::

        with PartitionedKVStore(n_partitions=4) as store:
            ...

    so tests and benchmarks cannot leak worker threads.
    """

    runtime: Any

    def __init__(self, default_n_parts: int):
        if default_n_parts <= 0:
            raise ValueError("default_n_parts must be positive")
        self._default_n_parts = default_n_parts
        self._tables: dict = {}
        self._lock = threading.Lock()
        self._closed = False

    @property
    def default_n_parts(self) -> int:
        """Part count used when a :class:`TableSpec` does not give one."""
        return self._default_n_parts

    @abc.abstractmethod
    def _open_table(self, spec: TableSpec, n_parts: int) -> Table:
        """Build a new table's part back-end (called under the catalog lock)."""

    def _release_table(self, table: Table) -> None:
        """Free a dropped table's parts (its handle is already dropped)."""

    def _release_store(self) -> None:
        """Free store resources once the runtime has drained."""

    def create_table(self, spec: TableSpec) -> Table:
        """Create a table; raises :class:`TableExistsError` on name clash."""
        n_parts = resolve_n_parts(spec, self)
        with self._lock:
            if spec.name in self._tables:
                raise TableExistsError(spec.name)
            table = self._open_table(spec, n_parts)
            self._tables[spec.name] = table
            return table

    def drop_table(self, name: str) -> None:
        """Drop a table; raises :class:`NoSuchTableError` when unknown."""
        with self._lock:
            table = self._tables.pop(name, None)
        if table is None:
            raise NoSuchTableError(name)
        table._mark_dropped()
        self._release_table(table)

    def get_table(self, name: str) -> Table:
        """Look up an existing table by name."""
        with self._lock:
            table = self._tables.get(name)
        if table is None:
            raise NoSuchTableError(name)
        return table

    def list_tables(self) -> list:
        """Names of all existing tables, sorted."""
        with self._lock:
            return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def get_or_create_table(self, spec: TableSpec) -> Table:
        if self.has_table(spec.name):
            return self.get_table(spec.name)
        return self.create_table(spec)

    def close(self) -> None:
        """Drain pending work (in-flight async writes are applied), then
        release the runtime and the store's resources.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.runtime.close(wait=True)
        self._release_store()

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
