"""BSP message transport through a *transport table* (paper Section IV-A).

    "BSP messages are transported in batches called spills.  Our
    prototype implementation uses a table, called the transport table,
    to move the spills between parts.  Each spill from part S to part D
    is written to the transport table with a new unique key that is
    constructed to be located in part D."

A spill key is ``(dest_part, step, src_part, seq)``; the transport
table's ``key_hash`` is the first element, so the store physically
places the spill at its destination.  A spill's value is a list of
records:

``("m", dest_key, payload)``
    an application message for *dest_key*;
``("c", dest_key)``
    a continue/enable signal — "the implementation of the continue
    signal transforms a positive one into a special kind of BSP
    message" — which enables *dest_key* without carrying data;
``("n", dest_key, tab_idx, state)``
    a created-state request for a new component.

Spill transport is *pipelined*: a full buffer does not turn into a
blocking cross-partition put.  Completed buffers accumulate into
per-destination-part batches, each batch is dispatched asynchronously
(one marshalled request per touched part) behind a bounded in-flight
window, and :meth:`SpillWriter.flush_all` is the gather point that
joins every outstanding future — so the engine overlaps compute with
transport inside a part-step and still owns a durable commit point.

A sealed spill can be marshalled in one of two codecs:

- the *record-list* codec: the buffered record tuples, pickled as-is;
- the *compact* codec (``compact=True``, the one the engine writes): a
  struct-of-arrays encoding
  — message keys, message payloads, continue keys, and created-state
  triples in four flat lists — which drops the per-record tuple and
  kind-tag overhead from the pickle stream.  Message order per
  destination is preserved (messages stay in send order relative to
  each other), which is all the delivery contract requires; continue
  and creation records carry no ordering semantics.

Readers accept both formats via :func:`iter_spill_records`.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.kvstore.api import KVStore, Table, TableSpec
from repro.serde import (
    pack_payload_column,
    payload_column_array,
    unpack_payload_column,
)

MSG = "m"
CONT = "c"
CREATE = "n"

#: Source-part id used for records originating at the client (loaders).
CLIENT_SRC = -1

#: First element of a compact (struct-of-arrays) spill value.  The
#: leading NUL keeps it from colliding with application record kinds.
COMPACT_MARKER = "\x00soa1"


def encode_spill(records: List[tuple]) -> tuple:
    """Struct-of-arrays encoding of a sealed spill's record list.

    Returns ``(COMPACT_MARKER, msg_keys, msg_payloads, cont_keys,
    creates)`` where *creates* is a list of ``(key, tab_idx, state)``
    triples.  Relative order within each record kind is preserved.
    """
    msg_keys: List[Any] = []
    msg_payloads: List[Any] = []
    cont_keys: List[Any] = []
    creates: List[Tuple[Any, int, Any]] = []
    for record in records:
        kind = record[0]
        if kind == MSG:
            msg_keys.append(record[1])
            msg_payloads.append(record[2])
        elif kind == CONT:
            cont_keys.append(record[1])
        elif kind == CREATE:
            creates.append((record[1], record[2], record[3]))
        else:
            raise ValueError(f"unknown transport record kind {kind!r}")
    return (
        COMPACT_MARKER,
        msg_keys,
        pack_payload_column(msg_payloads),
        cont_keys,
        creates,
    )


def is_compact_spill(value: Any) -> bool:
    """Whether *value* is a compact-codec spill (vs a raw record list)."""
    return (
        type(value) is tuple and len(value) == 5 and value[0] == COMPACT_MARKER
    )


def iter_spill_records(value: Any) -> Iterator[tuple]:
    """Yield the record tuples of a spill value, whichever codec it uses.

    Key columns written by the batch data plane arrive as typed numpy
    arrays; for per-record readers they are lowered back to Python
    scalars (``tolist``) so key identity matches per-key writes.
    Payload columns unpack dtype-preserving (numpy scalars stay numpy).
    """
    if is_compact_spill(value):
        _, msg_keys, msg_payloads, cont_keys, creates = value
        if isinstance(msg_keys, np.ndarray):
            msg_keys = msg_keys.tolist()
        for key, payload in zip(msg_keys, unpack_payload_column(msg_payloads)):
            yield (MSG, key, payload)
        if isinstance(cont_keys, np.ndarray):
            cont_keys = cont_keys.tolist()
        for key in cont_keys:
            yield (CONT, key)
        for key, tab_idx, state in creates:
            yield (CREATE, key, tab_idx, state)
    else:
        for record in value:
            yield record


def spill_record_count(value: Any) -> int:
    """Number of records in a spill value, whichever codec it uses."""
    if is_compact_spill(value):
        return len(value[1]) + len(value[3]) + len(value[4])
    return len(value)


def _spill_dest_part(key: tuple) -> int:
    """Transport-table key hash: a spill lives at its destination part.

    Module-level (not a lambda) so a transport table can be referenced
    from worker processes — the spec must pickle.
    """
    return key[0]


def create_transport_table(store: KVStore, name: str, n_parts: int) -> Table:
    """Create the private transport table for one job execution."""
    return store.create_table(
        TableSpec(name=name, n_parts=n_parts, key_hash=_spill_dest_part)
    )


def step_spills(view: Any, step: int) -> List[Tuple[tuple, Any]]:
    """One part's spills for *step*, in deterministic key order.

    A part's spills arrive concurrently from many source parts, so the
    view's insertion order — and with it per-destination message fold
    order — varies run to run.  Sorting the consumed keys (all-int
    ``(dest_part, step, src_part, seq)`` tuples, so the order is
    ``(src_part, seq)`` ascending) makes every collect path consume the
    same spills in the same order on every run, which is what lets the
    fault-recovery ablation demand byte-identical results across
    crash-free and crash-riddled executions.
    """
    matched = [(key, value) for key, value in view.items() if key[1] == step]
    matched.sort(key=lambda pair: pair[0])
    return matched


class SpillWriter:
    """Accumulates outgoing records per destination part and spills them.

    One SpillWriter serves one source part for one step.  Records are
    buffered per destination part; a buffer reaching *batch_size* is
    *sealed* into a spill — a unique transport key plus its record list.

    Sealed spills are not written with blocking puts.  They accumulate
    into per-destination batches of up to *spills_per_batch*, and each
    batch is dispatched with one asynchronous, once-marshalled request
    (``put_many_async``) while the producing computation keeps running.
    At most *max_in_flight* dispatches may be outstanding — the bounded
    window that keeps memory and queue depth in check — and
    :meth:`flush_all` is the gather point that seals, dispatches, and
    joins everything.

    When *hold* is set (fault-tolerant execution), nothing reaches the
    transport table until :meth:`flush_all` — the part-step's commit
    point — so a failed part-step leaks no messages; flush_all still
    dispatches the held batches concurrently, it just does all of the
    transport at the commit point.

    :attr:`spilled` is the writer's own ledger — records sealed per
    destination part — kept under the lock sealing already takes; the
    engine carries it back on the part-step's result.

    Per-(src, dest) FIFO: spills destined for one part are sealed with
    increasing ``seq`` and dispatched in seal order from one thread, and
    the partitioned store applies submissions to one part in submission
    order, so a concurrent reader never observes spill *k+1* without
    spill *k*.
    """

    def __init__(
        self,
        transport: Table,
        src_part: int,
        step: int,
        n_parts: int,
        part_of: Callable[[Any], int],
        batch_size: int = 512,
        hold: bool = False,
        combiner: Optional[Callable[[Any, Any], Any]] = None,
        max_in_flight: int = 8,
        spills_per_batch: int = 1,
        compact: bool = False,
        tracer: Any = None,
        part_of_many: Optional[Callable[[Any], Any]] = None,
        vector_combiner: Optional[Callable[[Any, Any], tuple]] = None,
    ):
        from repro.obs.trace import NULL_TRACER

        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._transport = transport
        self._src_part = src_part
        self._step = step
        self._n_parts = n_parts
        self._part_of = part_of
        self._part_of_many = part_of_many
        self._vector_combiner = vector_combiner
        self._batch_size = max(1, batch_size)
        self._hold = hold
        self._combiner = combiner
        self._max_in_flight = max(1, max_in_flight)
        self._spills_per_batch = max(1, spills_per_batch)
        self._compact = compact
        self._buffers: Dict[int, List[tuple]] = {}
        # columnar buffers (batch data plane): dest_part -> list of
        # (keys_array, payloads_array | None-for-continues) chunks
        self._col_buffers: Dict[int, List[tuple]] = {}
        self._col_counts: Dict[int, int] = {}
        # per destination part: dest_key -> index of its buffered MSG
        # record, for sender-side combining
        self._combine_index: Dict[int, Dict[Any, int]] = {}
        # dest_key -> dest_part; destinations repeat heavily within a
        # part-step, and the hash behind part_of is the routing hot path
        self._dest_part_cache: Dict[Any, int] = {}
        # sealed spills awaiting dispatch: dest_part -> [(key, records)]
        self._ready: Dict[int, List[tuple]] = {}
        self._in_flight: Deque[Future] = deque()
        # A loader's writer is shared by every partition's enumeration
        # thread, so seq assignment, the ready batches, and the in-flight
        # window need real mutual exclusion (buffer appends are GIL-safe).
        self._lock = threading.Lock()
        self._seq = 0
        self.records_written = 0
        self.spilled: Dict[int, int] = {}
        self.messages_added = 0
        self.continues_added = 0
        self.messages_combined = 0
        self.spills_sealed = 0
        self.batches_dispatched = 0
        self.in_flight_hwm = 0

    def add(self, record: tuple) -> None:
        dest_key = record[1]
        kind = record[0]
        if kind == MSG:
            self.messages_added += 1
        elif kind == CONT:
            self.continues_added += 1
        dest_part = self._dest_part_cache.get(dest_key)
        if dest_part is None:
            try:
                dest_part = self._part_of(dest_key)
                self._dest_part_cache[dest_key] = dest_part
            except TypeError:  # unhashable key: route without caching
                dest_part = self._part_of(dest_key)
        buffer = self._buffers.setdefault(dest_part, [])
        if kind == MSG and self._combiner is not None:
            # sender-side combining: merge with the still-buffered
            # message for the same destination, when the combiner accepts
            index = self._combine_index.setdefault(dest_part, {})
            at = index.get(dest_key)
            if at is not None:
                combined = self._combiner(buffer[at][2], record[2])
                if combined is not None:
                    buffer[at] = (MSG, dest_key, combined)
                    self.messages_combined += 1
                    return
            index[dest_key] = len(buffer)
        buffer.append(record)
        if not self._hold and len(buffer) >= self._batch_size:
            with self._lock:
                self._seal(dest_part)
                if len(self._ready.get(dest_part, ())) >= self._spills_per_batch:
                    self._dispatch(dest_part)

    # -- columnar (batch data plane) ------------------------------------

    def _route_parts(self, dest_keys: Any) -> "np.ndarray":
        """Destination part per key, vectorized when the table allows it."""
        if self._part_of_many is not None:
            return np.asarray(self._part_of_many(dest_keys), dtype=np.int64)
        part_of = self._part_of
        return np.fromiter(
            (part_of(k) for k in dest_keys), dtype=np.int64, count=len(dest_keys)
        )

    def add_message_batch(self, dest_keys: Any, payloads: Any) -> None:
        """Add one message per ``dest_keys[i]`` with payload ``payloads[i]``.

        Columns are routed to destination parts in one vectorized pass
        and buffered as array chunks; they seal directly into compact
        spills without ever materializing per-record tuples.  When a
        *vector_combiner* is installed, the column is pre-combined per
        destination key before routing (the batch analogue of
        sender-side combining).
        """
        dest_keys = np.asarray(dest_keys)
        n = len(dest_keys)
        if n == 0:
            return
        self.messages_added += n
        if self._vector_combiner is not None:
            dest_keys, payloads = self._vector_combiner(dest_keys, payloads)
            dest_keys = np.asarray(dest_keys)
            self.messages_combined += n - len(dest_keys)
        if not isinstance(payloads, np.ndarray):
            try:
                arr = np.asarray(payloads)
            except ValueError:  # ragged sequences refuse to stack
                arr = None
            if arr is None or arr.ndim != 1:
                # tuple/ragged payloads: keep element identity in an
                # object column instead of letting numpy reshape them
                arr = np.empty(len(payloads), dtype=object)
                arr[:] = payloads
            payloads = arr
        parts = self._route_parts(dest_keys)
        order = np.argsort(parts, kind="stable")
        parts = parts[order]
        dest_keys = dest_keys[order]
        payloads = payloads[order]
        boundaries = np.flatnonzero(parts[1:] != parts[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(parts)]))
        for lo, hi in zip(starts, ends):
            self._add_column_chunk(
                int(parts[lo]), dest_keys[lo:hi], payloads[lo:hi]
            )

    def add_continue_batch(self, dest_keys: Any) -> None:
        """Add a continue/enable signal for every key in *dest_keys*."""
        dest_keys = np.asarray(dest_keys)
        n = len(dest_keys)
        if n == 0:
            return
        self.continues_added += n
        parts = self._route_parts(dest_keys)
        order = np.argsort(parts, kind="stable")
        parts = parts[order]
        dest_keys = dest_keys[order]
        boundaries = np.flatnonzero(parts[1:] != parts[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(parts)]))
        for lo, hi in zip(starts, ends):
            self._add_column_chunk(int(parts[lo]), dest_keys[lo:hi], None)

    def _add_column_chunk(
        self, dest_part: int, keys: "np.ndarray", payloads: Optional[Any]
    ) -> None:
        self._col_buffers.setdefault(dest_part, []).append((keys, payloads))
        count = self._col_counts.get(dest_part, 0) + len(keys)
        self._col_counts[dest_part] = count
        if not self._hold and count >= self._batch_size:
            with self._lock:
                self._seal_columns(dest_part)
                if len(self._ready.get(dest_part, ())) >= self._spills_per_batch:
                    self._dispatch(dest_part)

    def _seal_columns(self, dest_part: int) -> None:
        """Seal the columnar buffer for *dest_part* into a compact spill.

        The spill value is the same struct-of-arrays tuple the compact
        codec produces, except the key and payload columns stay typed
        numpy arrays — readers on the other side either lift them into
        batches directly (:func:`collect_step_columns`) or lower them
        per record (:func:`iter_spill_records`).
        """
        chunks = self._col_buffers.pop(dest_part, None)
        count = self._col_counts.pop(dest_part, 0)
        if not chunks:
            return
        msg_key_chunks = [k for k, p in chunks if p is not None]
        payload_chunks = [p for _, p in chunks if p is not None]
        cont_chunks = [k for k, p in chunks if p is None]
        msg_keys: Any = (
            np.concatenate(msg_key_chunks) if msg_key_chunks else []
        )
        msg_payloads: Any = (
            np.concatenate(payload_chunks) if payload_chunks else []
        )
        cont_keys: Any = np.concatenate(cont_chunks) if cont_chunks else []
        key = (dest_part, self._step, self._src_part, self._seq)
        self._seq += 1
        value = (COMPACT_MARKER, msg_keys, msg_payloads, cont_keys, [])
        self._ready.setdefault(dest_part, []).append((key, value))
        self.spills_sealed += 1
        self.records_written += count
        self.spilled[dest_part] = self.spilled.get(dest_part, 0) + count
        if self._tracer.enabled:
            self._tracer.instant(
                "spill.seal_columns", cat="transport", dest=dest_part, records=count
            )

    def _seal(self, dest_part: int) -> None:
        """Turn a buffer into a spill (key + records) ready for dispatch.

        Sealing retires the buffer's combiner index: later messages for
        the same destinations start a fresh buffer and must not reach
        back into records that are already on their way out.
        """
        buffer = self._buffers.pop(dest_part, None)
        self._combine_index.pop(dest_part, None)
        if not buffer:
            return
        span = None
        if self._tracer.enabled:
            span = self._tracer.span(
                "spill.seal", cat="transport", dest=dest_part, records=len(buffer)
            )
            span.__enter__()
        key = (dest_part, self._step, self._src_part, self._seq)
        self._seq += 1
        value: Any = encode_spill(buffer) if self._compact else buffer
        self._ready.setdefault(dest_part, []).append((key, value))
        self.spills_sealed += 1
        self.records_written += len(buffer)
        self.spilled[dest_part] = self.spilled.get(dest_part, 0) + len(buffer)
        if span is not None:
            span.__exit__(None, None, None)

    def _dispatch(self, dest_part: int) -> None:
        """Send one destination's sealed spills as a single batched request."""
        batch = self._ready.pop(dest_part, None)
        if not batch:
            return
        if self._tracer.enabled:
            self._tracer.instant(
                "spill.dispatch", cat="transport", dest=dest_part, spills=len(batch)
            )
        self.batches_dispatched += 1
        self._in_flight.extend(self._transport.put_many_async(batch))
        depth = len(self._in_flight)
        if depth > self.in_flight_hwm:
            self.in_flight_hwm = depth
        while len(self._in_flight) > self._max_in_flight:
            self._in_flight.popleft().result()

    def flush_all(self) -> None:
        """Seal and dispatch every remaining buffer, then join all
        outstanding transport futures (the commit point under *hold*)."""
        with self._tracer.span("spill.flush", cat="transport", src=self._src_part):
            with self._lock:
                for dest_part in list(self._buffers):
                    self._seal(dest_part)
                for dest_part in list(self._col_buffers):
                    self._seal_columns(dest_part)
                for dest_part in list(self._ready):
                    self._dispatch(dest_part)
                while self._in_flight:
                    self._in_flight.popleft().result()

    def discard(self) -> None:
        """Drop all buffered and sealed-but-undispatched records (failed
        part-step under *hold*); joins any spills already in flight."""
        with self._lock:
            self._buffers.clear()
            self._combine_index.clear()
            self._col_buffers.clear()
            self._col_counts.clear()
            for dest_part, batch in self._ready.items():
                for _, value in batch:
                    count = spill_record_count(value)
                    self.records_written -= count
                    self.spilled[dest_part] -= count
                    self.spills_sealed -= 1
            self._ready.clear()
            while self._in_flight:
                self._in_flight.popleft().result()


class CombiningBundle:
    """Messages destined for one component in one step.

    Applies the job's pairwise combiner opportunistically as messages
    accumulate ("the platform may combine some of them by one or more
    invocations at arbitrary times and places"): each arriving message
    is offered to the combiner against the most recent kept message; a
    ``None`` result declines the combine and keeps both.
    """

    __slots__ = ("messages", "enabled", "created")

    def __init__(self) -> None:
        self.messages: List[Any] = []
        self.enabled = False
        self.created: List[Tuple[int, Any]] = []

    def add_message(
        self, message: Any, combiner: Optional[Callable[[Any, Any], Any]]
    ) -> None:
        if combiner is not None and self.messages:
            combined = combiner(self.messages[-1], message)
            if combined is not None:
                self.messages[-1] = combined
                return
        self.messages.append(message)


#: Sentinel delivery payload for an enable without a message (a loader
#: may enable components even in a no-continue job).
NO_MESSAGE = object()


def scan_step_records_no_collect(
    view: Any, step: int
) -> Tuple[List[Tuple[Any, Any]], List[Tuple[Any, int, Any]], List[tuple]]:
    """The no-collect special case (one-msg ∧ no-continue, §II-A).

    With at most one message per destination and step and no continue
    signals, "Ripple does not collect together multiple messages for
    delivery" — no per-destination value lists are constructed; the
    records drive compute directly.  Returns (deliveries, creations,
    consumed transport keys), where deliveries is a list of
    (dest_key, message); the message is :data:`NO_MESSAGE` for a bare
    enable (only loaders produce those — compute cannot continue).
    """
    deliveries: List[Tuple[Any, Any]] = []
    creations: List[Tuple[Any, int, Any]] = []
    consumed: List[tuple] = []
    for key, records in step_spills(view, step):
        consumed.append(key)
        for record in iter_spill_records(records):
            kind = record[0]
            if kind == MSG:
                deliveries.append((record[1], record[2]))
            elif kind == CREATE:
                creations.append((record[1], record[2], record[3]))
            elif kind == CONT:
                deliveries.append((record[1], NO_MESSAGE))
            else:
                raise ValueError(f"unknown transport record kind {kind!r}")
    return deliveries, creations, consumed


class StepColumns:
    """One part's incoming traffic for a step, kept as columns.

    The batch collect path never explodes spills into per-record
    tuples: compact spills contribute their key/payload arrays as-is,
    and only legacy record-list spills pay a per-record scan.  Creation
    records are rare (mutating jobs only) and stay a plain triple list.
    """

    __slots__ = (
        "msg_key_chunks",
        "msg_payload_chunks",
        "cont_key_chunks",
        "creates",
        "consumed",
    )

    def __init__(self) -> None:
        self.msg_key_chunks: List[np.ndarray] = []
        self.msg_payload_chunks: List[np.ndarray] = []
        self.cont_key_chunks: List[np.ndarray] = []
        self.creates: List[Tuple[Any, int, Any]] = []
        self.consumed: List[tuple] = []


def _object_column(values: Any) -> np.ndarray:
    """A 1-D object array preserving element identity exactly."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _key_chunk_array(keys: Any) -> np.ndarray:
    """Lift a spill's key column to an array without changing identity.

    Typed arrays (written by the batch plane) pass through.  Python
    key lists become *object* arrays — letting numpy guess a dtype
    could silently promote mixed int/float keys and change how they
    hash for part routing.
    """
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        return keys
    return _object_column(keys)


def _concat_columns(chunks: List[np.ndarray]) -> np.ndarray:
    """Concatenate column chunks; mixed dtypes degrade to object.

    Empty chunks carry no values, so their dtype (an empty collection
    defaults to object) must not degrade a typed column."""
    chunks = [c for c in chunks if len(c)]
    if not chunks:
        return np.empty(0, dtype=object)
    if len(chunks) == 1:
        return chunks[0]
    first_dtype = chunks[0].dtype
    if first_dtype != object and all(c.dtype == first_dtype for c in chunks):
        return np.concatenate(chunks)
    return np.concatenate([_object_column(c) for c in chunks])


def collect_step_columns(view: Any, step: int) -> StepColumns:
    """Scan a transport-table part for *step*, keeping spills columnar.

    The batch analogue of :func:`collect_step_records`: no bundles, no
    per-record combiner offers — grouping and folding happen later in
    vectorized form (:func:`group_step_columns`).
    """
    cols = StepColumns()
    for key, value in step_spills(view, step):
        cols.consumed.append(key)
        if is_compact_spill(value):
            _, msg_keys, msg_payloads, cont_keys, creates = value
            if len(msg_keys):
                cols.msg_key_chunks.append(_key_chunk_array(msg_keys))
                arr = payload_column_array(msg_payloads)
                if arr is None:
                    arr = _object_column(unpack_payload_column(msg_payloads))
                cols.msg_payload_chunks.append(arr)
            if len(cont_keys):
                cols.cont_key_chunks.append(_key_chunk_array(cont_keys))
            cols.creates.extend(creates)
        else:
            mk: List[Any] = []
            mp: List[Any] = []
            ck: List[Any] = []
            for record in value:
                kind = record[0]
                if kind == MSG:
                    mk.append(record[1])
                    mp.append(record[2])
                elif kind == CONT:
                    ck.append(record[1])
                elif kind == CREATE:
                    cols.creates.append((record[1], record[2], record[3]))
                else:
                    raise ValueError(f"unknown transport record kind {kind!r}")
            if mk:
                cols.msg_key_chunks.append(_object_column(mk))
                cols.msg_payload_chunks.append(_object_column(mp))
            if ck:
                cols.cont_key_chunks.append(_object_column(ck))
    return cols


class MessageBatch:
    """The messages delivered to a batch of components, as columns.

    All payloads live in one array; component *i* of the batch owns
    ``payloads[offsets[i]:offsets[i+1]]``.  Batch computes consume the
    columns directly; ``__getitem__`` gives the per-component view for
    generic code and tests.
    """

    __slots__ = ("payloads", "offsets")

    def __init__(self, payloads: np.ndarray, offsets: np.ndarray):
        self.payloads = payloads
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def counts(self) -> np.ndarray:
        """Messages per component (vectorized ``len`` of each slice)."""
        return np.diff(self.offsets)

    def payload_array(self) -> Optional[np.ndarray]:
        """The whole payload column when it is typed, else ``None``."""
        if self.payloads.dtype != object:
            return self.payloads
        return None

    def group_index(self) -> np.ndarray:
        """Component index per payload — ``payloads[j]`` belongs to
        component ``group_index()[j]`` of the batch."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.counts)

    def __getitem__(self, i: int) -> list:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return list(self.payloads[lo:hi])

    def __iter__(self) -> Iterator[list]:
        for i in range(len(self)):
            yield self[i]

    def slice(self, lo: int, hi: int) -> "MessageBatch":
        """The sub-batch covering components ``lo:hi``."""
        p_lo, p_hi = self.offsets[lo], self.offsets[hi]
        return MessageBatch(
            self.payloads[p_lo:p_hi], self.offsets[lo : hi + 1] - p_lo
        )


def group_step_columns(cols: StepColumns) -> Tuple[np.ndarray, MessageBatch]:
    """Group collected columns by destination key, ascending.

    Returns ``(keys, batch)``: *keys* holds each enabled destination
    key once, in ascending order, and *batch* is the aligned
    :class:`MessageBatch` (a zero-length slice for keys enabled only by
    a continue signal).  Message payloads keep arrival order within a
    destination.  Raises ``TypeError`` when keys are not mutually
    orderable — callers fall back to the per-key path.
    """
    msg_keys = _concat_columns(cols.msg_key_chunks)
    payloads = _concat_columns(cols.msg_payload_chunks)
    cont_keys = _concat_columns(cols.cont_key_chunks)
    n_msg = len(msg_keys)
    all_keys = (
        _concat_columns([msg_keys, cont_keys]) if len(cont_keys) else msg_keys
    )
    if len(all_keys) == 0:
        return (
            np.empty(0, dtype=object),
            MessageBatch(payloads, np.zeros(1, dtype=np.int64)),
        )
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    )
    group_keys = sorted_keys[starts]
    is_msg = order < n_msg
    counts = np.add.reduceat(is_msg.astype(np.int64), starts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    grouped_payloads = payloads[order[is_msg]]
    return group_keys, MessageBatch(grouped_payloads, offsets)


def collect_step_records(
    view: Any,
    step: int,
    combiner: Optional[Callable[[Any, Any], Any]],
) -> Tuple[Dict[Any, CombiningBundle], List[tuple]]:
    """Scan a transport-table part for records of *step*.

    Returns the per-destination bundles plus the list of consumed
    transport keys (deleted later, at the part-step commit point, so a
    failed part-step can be re-driven from the same spills).
    """
    bundles: Dict[Any, CombiningBundle] = {}
    consumed: List[tuple] = []
    for key, records in step_spills(view, step):
        consumed.append(key)
        for record in iter_spill_records(records):
            kind = record[0]
            dest_key = record[1]
            bundle = bundles.get(dest_key)
            if bundle is None:
                bundle = CombiningBundle()
                bundles[dest_key] = bundle
            if kind == MSG:
                bundle.add_message(record[2], combiner)
                bundle.enabled = True
            elif kind == CONT:
                bundle.enabled = True
            elif kind == CREATE:
                bundle.created.append((record[2], record[3]))
            else:
                raise ValueError(f"unknown transport record kind {kind!r}")
    return bundles, consumed
