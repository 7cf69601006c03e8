"""SSSP as one breadth-first wave over an immutable graph table.

The catalog's shortest-path solve factors a vertex's state across two
tables, the K/V EBSP way.  The graph table (state table 0) holds each
vertex's sorted neighbor ids packed as int64 bytes — a bytes object is
about a quarter of a small numpy array's footprint, and graph tables
outlive their jobs — and is seeded once per input and never written by
a job.  The distance table (state table 1) is private to one job,
starts empty (absent = +∞), and gains an entry when a vertex's
annotation first drops.

The source is enabled at step 0 and takes distance 0.  A vertex whose
annotation drops sends the new value to every neighbor; a vertex
receiving messages takes ``min(messages) + 1`` if that beats what it
has.  Distances only fall, so the job's combiner keeps the smallest of
any two messages for one destination, and the update commutes across
senders (``incremental``: the barrier-free engine accepts it too).

Compared with the selective-enablement variant (``incremental.py``),
which must remember every neighbor's last distance to survive edge
deletions, a fresh solve needs none of that: under barriers a vertex's
annotation drops exactly once, at its BFS level, in the same step and
with the same messages sent as the selective job — so steps, and the
answer, are the same.

Like the batch PageRank job, the Compute has two faces over the same
integer arithmetic: ``compute`` per vertex and ``compute_batch`` over a
part's enabled vertices as columns (min per destination with
``np.minimum.reduceat``; only vertices whose annotation dropped read
their neighbors or write a distance).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

import numpy as np

from repro.apps.sssp.common import INFINITY
from repro.ebsp.job import BaseContext, BatchComputeContext, Compute, ComputeContext, Job
from repro.ebsp.loaders import EnableKeysLoader, Loader
from repro.ebsp.properties import JobProperties
from repro.errors import JobError
from repro.kvstore.api import KVStore, TableSpec
from repro.util.sorting import stable_argsort

#: State-table indices of the wave job.
GRAPH_TAB = 0
DIST_TAB = 1


class _WaveCompute(Compute):
    def __init__(self, source: int, distance_cap: int):
        self._source = source
        # an annotation reaching the cap snaps to +∞ (the selective
        # variant's clamp; a fresh solve never reaches a default cap)
        self._limit = min(distance_cap, INFINITY)

    # -- per-key face ---------------------------------------------------
    def compute(self, ctx: ComputeContext) -> bool:
        old = ctx.read_state(DIST_TAB)
        old = INFINITY if old is None else old
        if ctx.key == self._source:
            new = 0
        else:
            candidate = min(ctx.input_messages(), default=INFINITY) + 1
            new = min(old, candidate if candidate < self._limit else INFINITY)
        if new < old:
            ctx.write_state(DIST_TAB, new)
            neighbors = ctx.read_state(GRAPH_TAB)
            if neighbors is None:
                raise JobError(f"vertex {ctx.key!r} absent from the graph table")
            for neighbor in np.frombuffer(neighbors, dtype=np.int64).tolist():
                ctx.output_message(neighbor, new)
        return False

    def combine_messages(self, ctx: BaseContext, key: Any, m1: Any, m2: Any) -> Any:
        return min(m1, m2)

    # -- columnar face --------------------------------------------------
    def combine_message_batch(
        self, ctx: BaseContext, dest_keys: Any, payloads: Any
    ) -> Any:
        """The smallest payload per destination (sorted by destination)."""
        dest_keys = np.asarray(dest_keys)
        payloads = np.asarray(payloads, dtype=np.int64)
        order = stable_argsort(dest_keys)
        dest_keys = dest_keys[order]
        first = np.empty(len(dest_keys), dtype=bool)
        first[:1] = True
        np.not_equal(dest_keys[1:], dest_keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return dest_keys[starts], np.minimum.reduceat(payloads[order], starts)

    def compute_batch(self, ctx: BatchComputeContext) -> bool:
        keys = ctx.keys
        n = len(keys)
        old = np.fromiter(
            (INFINITY if d is None else d for d in ctx.read_states(DIST_TAB)),
            dtype=np.int64,
            count=n,
        )
        batch = ctx.messages
        received = batch.counts > 0
        candidate = np.full(n, INFINITY, dtype=np.int64)
        if received.any():
            payloads = batch.payload_array()
            if payloads is None:  # per-key senders' Python ints
                payloads = np.asarray(list(batch.payloads), dtype=np.int64)
            candidate[received] = (
                np.minimum.reduceat(payloads, batch.offsets[:-1][received]) + 1
            )
            candidate[candidate >= self._limit] = INFINITY
        candidate[keys == self._source] = 0
        dropped = np.flatnonzero(candidate < old)
        if not len(dropped):
            return False
        changed_keys = keys[dropped]
        new = candidate[dropped]
        ctx.write_states(DIST_TAB, new, keys=changed_keys)
        packed = ctx.read_states(GRAPH_TAB, keys=changed_keys)
        degrees = np.empty(len(packed), dtype=np.int64)
        for i, neighbors in enumerate(packed):
            if neighbors is None:
                raise JobError(
                    f"vertex {changed_keys[i]!r} absent from the graph table"
                )
            degrees[i] = len(neighbors)
        ctx.send_messages(
            np.frombuffer(b"".join(packed), dtype=np.int64),
            np.repeat(new, degrees // 8),
        )
        return False


class _WaveJob(Job):
    def __init__(self, graph_table: str, dist_table: str, source: int, distance_cap: int):
        self._graph_table = graph_table
        self._dist_table = dist_table
        self._source = source
        self._cap = distance_cap

    def state_table_names(self) -> List[str]:
        return [self._graph_table, self._dist_table]

    def reference_table(self) -> str:
        return self._graph_table

    def get_compute(self) -> Compute:
        return _WaveCompute(self._source, self._cap)

    def loaders(self) -> List[Loader]:
        return [EnableKeysLoader([self._source])]

    def properties(self) -> JobProperties:
        return JobProperties(incremental=True, no_continue=True)


def build_graph_table(store: KVStore, name: str, adjacency: Dict[int, Set[int]]) -> None:
    """Create *name* holding each vertex's sorted neighbor ids as int64
    bytes (read one back with ``np.frombuffer(value, dtype=np.int64)``)."""
    table = store.create_table(TableSpec(name=name))
    table.put_many(
        (v, np.asarray(sorted(ns), dtype=np.int64).tobytes())
        for v, ns in adjacency.items()
    )


def wave_sssp_job(
    graph_table: str, dist_table: str, source: int, distance_cap: int
) -> Job:
    """The wave :class:`Job` object, unexecuted.

    *graph_table* (:func:`build_graph_table` output) is only read, so
    concurrent jobs may share it, each naming its own empty
    *dist_table*; read the answer with :func:`read_distances`.
    """
    return _WaveJob(graph_table, dist_table, source, distance_cap)


def read_distances(store: KVStore, dist_table: str, vertices: Any) -> Dict[int, int]:
    """Vertex → hop count for every vertex in *vertices* (+∞ if unreached)."""
    reached = dict(store.get_table(dist_table).items())
    return {v: int(reached.get(v, INFINITY)) for v in vertices}
