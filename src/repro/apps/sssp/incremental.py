"""The selective-enablement SSSP variant (paper Section V-C).

Each vertex keeps, besides its own annotation, the distance value most
recently received from each neighbor, so "it is not necessary for a
vertex to hear from every neighbor in each iteration".  Each distance
message carries the sender's ID as well as its value, and the job's
combiner declines to combine (the messages are per-sender updates).

After a change batch, only the endpoints of changed edges are enabled;
the update then ripples outward exactly as far as annotations actually
change — the paper's headline: 0.21 s versus 78 s for the scanning
variant on the same ten batches.

A note on convergence: recomputing from stored neighbor distances can
transiently *increase* an annotation (when a supporting edge vanished),
and two vertices that lost their real support can alternately bid each
other up — the classic count-to-infinity behaviour of distance-vector
algorithms.  Distances are therefore clamped: any annotation that
reaches ``distance_cap`` (default: the vertex-count upper bound on any
real hop count) snaps to +∞, which terminates the bidding.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set

import numpy as np

from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import EnableKeysLoader, Loader
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import run_job
from repro.kvstore.api import KVStore, TableSpec
from repro.apps.sssp.common import (
    ChangeBatch,
    INFINITY,
    SelectiveVertex,
    empty_ids,
)


class _SelectiveCompute(Compute):
    def __init__(self, source: int, distance_cap: int):
        self._source = source
        self._cap = distance_cap

    def compute(self, ctx: ComputeContext) -> bool:
        vertex: Optional[SelectiveVertex] = ctx.read_state(0)
        if vertex is None:
            return False  # message for a vertex removed meanwhile
        dists = vertex.neighbor_dists
        updated = False
        for sender, dist in ctx.input_messages():
            where = np.nonzero(vertex.neighbors == sender)[0]
            if len(where) and dists[where[0]] != dist:
                dists[where[0]] = dist
                updated = True
        if ctx.key == self._source:
            new_dist = 0
        elif len(dists) == 0:
            new_dist = INFINITY
        else:
            candidate = int(dists.min()) + 1
            new_dist = candidate if candidate < min(self._cap, INFINITY) else INFINITY
        if new_dist != vertex.dist:
            vertex.dist = new_dist
            for neighbor in vertex.neighbors.tolist():
                ctx.output_message(neighbor, (ctx.key, new_dist))
            updated = True
        if updated:
            ctx.write_state(0, vertex)
        return False

    # no combine_messages override: the default declines, keeping every
    # per-sender update distinct (paper: "The job's combiner does not
    # combine these messages.")


class _SelectiveJob(Job):
    def __init__(self, table_name: str, source: int, distance_cap: int, enabled: Iterable[int]):
        self._table_name = table_name
        self._source = source
        self._cap = distance_cap
        self._enabled = list(enabled)

    def state_table_names(self) -> List[str]:
        return [self._table_name]

    def reference_table(self) -> str:
        return self._table_name

    def get_compute(self) -> Compute:
        return _SelectiveCompute(self._source, self._cap)

    def loaders(self) -> List[Loader]:
        return [EnableKeysLoader(self._enabled)]

    def properties(self) -> JobProperties:
        # Updates commute across components as long as each (sender,
        # receiver) channel stays ordered (a later update from u simply
        # overwrites u's slot in the receiver's array), so the job is
        # `incremental`; with no aggregators and no aborter it is
        # eligible for no-sync execution — selective enablement and
        # zero synchronization compose.
        return JobProperties(incremental=True, no_continue=True)


class SelectiveSSSP:
    """Driver for the selective-enablement variant."""

    def __init__(
        self,
        store: KVStore,
        source: int,
        table_name: str = "sssp_selective",
        distance_cap: Optional[int] = None,
    ):
        self._store = store
        self.source = source
        self.table_name = table_name
        self._cap = distance_cap
        #: JobResult of the most recent solve/update (None before the first).
        self.last_result = None
        if not store.has_table(table_name):
            store.create_table(TableSpec(name=table_name))

    def _effective_cap(self) -> int:
        if self._cap is not None:
            return self._cap
        # no simple path exceeds |V| - 1 hops
        return max(self._store.get_table(self.table_name).size(), 1)

    # -- setup ------------------------------------------------------------
    def load(self, adjacency: Dict[int, Set[int]]) -> None:
        """Materialize the graph; every annotation starts at +∞ and all
        remembered neighbor distances at +∞.

        The source, too, starts at +∞: :meth:`initial_solve` enables it,
        it computes 0, observes the change, and the breadth-first wave
        ripples out — the same change-propagation path every later
        update uses.
        """
        table = self._store.get_table(self.table_name)
        table.clear()
        table.put_many(
            (
                v,
                SelectiveVertex(
                    INFINITY,
                    np.asarray(sorted(ns), dtype=np.int64),
                    np.full(len(ns), INFINITY, dtype=np.int64),
                ),
            )
            for v, ns in adjacency.items()
        )

    def initial_solve(self, synchronize: bool = True, **engine_kwargs: Any) -> int:
        """Breadth-first wave from the source; returns steps taken.

        Pass ``synchronize=False`` to run the wave barrier-free — the
        job declares ``incremental``, so the no-sync engine accepts it.
        """
        result = run_job(
            self._store,
            _SelectiveJob(self.table_name, self.source, self._effective_cap(), [self.source]),
            synchronize=synchronize,
            **engine_kwargs,
        )
        self.last_result = result
        return result.steps

    # -- incremental update ---------------------------------------------------
    def apply_changes(self, batch: ChangeBatch) -> Set[int]:
        """Apply structural changes; return the touched (to-enable) keys.

        The extra bookkeeping happens here: an added edge's remembered
        distance slots are seeded with the endpoints' current
        annotations (the client holds both in hand while rewiring), and
        a removed edge's slots vanish with the edge.
        """
        table = self._store.get_table(self.table_name)
        touched: Set[int] = set()
        for v in batch.add_vertices:
            if table.get(v) is None:
                dist = 0 if v == self.source else INFINITY
                table.put(v, SelectiveVertex(dist, empty_ids(), empty_ids()))
        for u, v in batch.add_edges:
            if u == v:
                continue
            su, sv = table.get(u), table.get(v)
            if su is None or sv is None:
                continue
            if v not in su.neighbors:
                self._insert_neighbor(table, u, su, v, sv.dist)
                touched.add(u)
            if u not in sv.neighbors:
                self._insert_neighbor(table, v, sv, u, su.dist)
                touched.add(v)
        for u, v in batch.remove_edges:
            su, sv = table.get(u), table.get(v)
            if su is not None and v in su.neighbors:
                self._remove_neighbor(table, u, su, v)
                touched.add(u)
            if sv is not None and u in sv.neighbors:
                self._remove_neighbor(table, v, sv, u)
                touched.add(v)
        for v in batch.remove_vertices:
            sv = table.get(v)
            if sv is not None and len(sv.neighbors) == 0:
                table.delete(v)
                touched.discard(v)
        return touched

    @staticmethod
    def _insert_neighbor(table: Any, key: int, state: SelectiveVertex, neighbor: int, neighbor_dist: int) -> None:
        position = int(np.searchsorted(state.neighbors, neighbor))
        table.put(
            key,
            SelectiveVertex(
                state.dist,
                np.insert(state.neighbors, position, neighbor),
                np.insert(state.neighbor_dists, position, neighbor_dist),
            ),
        )

    @staticmethod
    def _remove_neighbor(table: Any, key: int, state: SelectiveVertex, neighbor: int) -> None:
        keep = state.neighbors != neighbor
        table.put(
            key,
            SelectiveVertex(state.dist, state.neighbors[keep], state.neighbor_dists[keep]),
        )

    def update(self, batch: ChangeBatch, synchronize: bool = True, **engine_kwargs: Any) -> int:
        """Apply *batch* and ripple the annotations; returns steps taken
        (0 under ``synchronize=False``, where there are no steps)."""
        touched = self.apply_changes(batch)
        if not touched:
            return 0
        result = run_job(
            self._store,
            _SelectiveJob(self.table_name, self.source, self._effective_cap(), sorted(touched)),
            synchronize=synchronize,
            **engine_kwargs,
        )
        self.last_result = result
        return result.steps

    # -- inspection --------------------------------------------------------------
    def distances(self) -> Dict[int, int]:
        table = self._store.get_table(self.table_name)
        return {v: state.dist for v, state in table.items()}
