"""The batch (columnar) PageRank variant: one Compute, two data planes.

The job implements *both* faces of the programming model over the same
math: ``compute`` processes one vertex at a time (the paper's Listing 2
shape), ``compute_batch`` processes a whole part as aligned numpy
columns.  Which face runs is the plan's choice (``batch_compute=False``
forces the per-key one), which makes this job the A/B lever for the
columnar-data-plane ablation: same store, same messages, same table
writes — only the per-invocation overhead changes.

Both faces fold each vertex's incoming contributions with
``np.add.reduceat`` over values sorted ascending within the
destination, and compute the rank update elementwise in float64, so
the two modes produce **byte-identical** ranks on sink-free graphs.
(With sinks, the sink mass flows through a ``SumAggregator`` whose
fold order differs between a scalar loop and a vectorized ``sum`` —
ranks then agree to float tolerance, not bitwise.)

Differences from the direct variant (``direct.py``): graph structure
stays resident in state table 0 instead of riding in state-carrier
messages, every vertex continues every step, and per-step ranks land
in a second state table as a float64 column — the final ranks are that
table's contents after the last step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.job import BatchComputeContext, Compute, ComputeContext, Job
from repro.ebsp.loaders import Loader, TableScanLoader
from repro.ebsp.results import JobResult
from repro.ebsp.runner import run_job
from repro.errors import JobError
from repro.kvstore.api import KVStore
from repro.util.sorting import stable_argsort
from repro.apps.pagerank.common import PageRankConfig

SINK_AGG = "sink"

#: State-table indices of the batch job.
GRAPH_TAB = 0
RANK_TAB = 1


class _BatchPageRankCompute(Compute):
    """PageRank with a per-key face and a columnar face.

    Rank math is written so both faces perform the identical sequence
    of IEEE-754 operations per vertex:

    - contributions fold via ``np.add.reduceat`` over ascending-sorted
      float64 values (reduceat folds sequentially, unlike ``sum``'s
      pairwise reassociation);
    - the update is ``base + d * (acc + sink)`` with ``base`` and ``d``
      precomputed, elementwise-identical between a float64 scalar and a
      float64 column;
    - an out-degree-``k`` vertex sends ``rank / k`` along each edge.
    """

    def __init__(self, n_vertices: int, config: PageRankConfig):
        self._n = n_vertices
        self._config = config
        self._d = config.damping
        self._base = (1.0 - config.damping) / n_vertices
        self._inv_n = 1.0 / n_vertices
        # per-part CSR structure memo (batch face): key-column bytes ->
        # (targets, out_degrees).  The graph tables this job runs over
        # are static for the job's duration, and the enabled key set of
        # a part repeats every step, so the structure scan happens once
        # per part instead of once per superstep — on a process store
        # once per part in its owner worker, where the compute stays
        # resident for the job.
        self._csr: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}

    # -- per-key face ---------------------------------------------------
    def compute(self, ctx: ComputeContext) -> bool:
        step = ctx.step_num
        vertex = ctx.read_state(GRAPH_TAB)
        if vertex is None:
            raise JobError(
                f"vertex {ctx.key!r} enabled but absent from the graph table"
            )
        if step == 0:
            rank = np.float64(self._inv_n)
        else:
            messages = list(ctx.input_messages())
            if messages:
                values = np.asarray(messages, dtype=np.float64)
                values.sort()
                acc = np.add.reduceat(values, [0])[0]
            else:
                acc = np.float64(0.0)
            sink = ctx.get_aggregate_value(SINK_AGG) or 0.0
            rank = self._base + self._d * (acc + sink)
        ctx.write_state(RANK_TAB, rank)
        if step == self._config.iterations:
            return False
        out_degree = len(vertex.edges)
        if out_degree == 0:
            ctx.aggregate_value(SINK_AGG, rank / self._n)
        else:
            share = rank / out_degree
            for target in vertex.edges.tolist():
                ctx.output_message(target, share)
        return True

    # -- columnar face --------------------------------------------------
    def _structure(
        self, ctx: BatchComputeContext, keys: Any
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The batch's out-edges as CSR columns: (targets, out_degrees)."""
        try:
            keys64 = np.asarray(
                keys.tolist() if isinstance(keys, np.ndarray) else keys,
                dtype=np.int64,
            )
            cache_key: Optional[bytes] = keys64.tobytes()
        except (TypeError, ValueError, OverflowError):
            cache_key = None
        if cache_key is not None:
            cached = self._csr.get(cache_key)
            if cached is not None:
                return cached
        states = ctx.read_states(GRAPH_TAB)
        edge_arrays: List[np.ndarray] = []
        for key, vertex in zip(keys, states):
            if vertex is None:
                raise JobError(
                    f"vertex {key!r} enabled but absent from the graph table"
                )
            edge_arrays.append(vertex.edges)
        out_degrees = np.fromiter(
            (len(edges) for edges in edge_arrays),
            dtype=np.int64,
            count=len(edge_arrays),
        )
        targets = (
            np.concatenate(edge_arrays)
            if edge_arrays
            else np.empty(0, dtype=np.int64)
        )
        entry = (targets, out_degrees)
        if cache_key is not None:
            self._csr[cache_key] = entry
        return entry

    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        step = ctx.step_num
        keys = ctx.keys
        n = len(keys)
        targets, out_degrees = self._structure(ctx, keys)
        if step == 0:
            ranks = np.full(n, self._inv_n, dtype=np.float64)
        else:
            batch = ctx.messages
            payloads = batch.payload_array()
            if payloads is None:
                payloads = np.asarray(list(batch.payloads), dtype=np.float64)
            accs = np.zeros(n, dtype=np.float64)
            if len(payloads):
                # sort ascending within each destination group, then fold
                # each group sequentially — bit-for-bit the per-key fold:
                # sort by value, then stably by group (equal values are
                # interchangeable in the fold)
                order = np.argsort(payloads)
                order = order[stable_argsort(batch.group_index()[order])]
                sorted_payloads = payloads[order]
                nonzero = batch.counts > 0
                accs[nonzero] = np.add.reduceat(
                    sorted_payloads, batch.offsets[:-1][nonzero]
                )
            sink = ctx.get_aggregate_value(SINK_AGG) or 0.0
            ranks = self._base + self._d * (accs + sink)
        ctx.write_states(RANK_TAB, list(ranks))
        if step == self._config.iterations:
            return False
        sinks = out_degrees == 0
        if sinks.any():
            ctx.aggregate_values(SINK_AGG, ranks[sinks] / self._n)
        shares = np.divide(
            ranks, out_degrees, out=np.zeros_like(ranks), where=~sinks
        )
        ctx.send_messages(targets, np.repeat(shares, out_degrees))
        return True


class _BatchJob(Job):
    def __init__(
        self,
        table_name: str,
        ranks_table: str,
        n_vertices: int,
        config: PageRankConfig,
        store: KVStore,
    ):
        self._table_name = table_name
        self._ranks_table = ranks_table
        self._n = n_vertices
        self._config = config
        self._store = store

    def state_table_names(self) -> List[str]:
        return [self._table_name, self._ranks_table]

    def reference_table(self) -> str:
        return self._table_name

    def get_compute(self) -> Compute:
        return _BatchPageRankCompute(self._n, self._config)

    def aggregators(self) -> Dict[str, Any]:
        return {SINK_AGG: SumAggregator(0.0)}

    def loaders(self) -> List[Loader]:
        return [TableScanLoader(self._store.get_table(self._table_name))]


def pagerank_batch(
    store: KVStore,
    table_name: str,
    n_vertices: int,
    config: PageRankConfig = PageRankConfig(),
    *,
    ranks_table: Optional[str] = None,
    **engine_kwargs: Any,
) -> JobResult:
    """Rank the graph in *table_name* through the columnar data plane.

    The graph table (``build_pagerank_table`` output) is read-only;
    final ranks land in *ranks_table* (default ``<table_name>_ranks``)
    as one float64 entry per vertex — read them with
    :func:`read_rank_table`.  Pass ``batch_compute=False`` to force the
    per-key path (the ablation's A/B lever): results are byte-identical
    on sink-free graphs.
    """
    job = pagerank_batch_job(store, table_name, n_vertices, config, ranks_table=ranks_table)
    return run_job(store, job, synchronize=True, **engine_kwargs)


def pagerank_batch_job(
    store: KVStore,
    table_name: str,
    n_vertices: int,
    config: PageRankConfig = PageRankConfig(),
    *,
    ranks_table: Optional[str] = None,
) -> Job:
    """The batch-variant :class:`Job` object, unexecuted.

    For callers that hand jobs to a scheduler; the graph table is only
    read, so it may be shared by concurrent jobs that each name their
    own *ranks_table*.
    """
    return _BatchJob(
        table_name, ranks_table or f"{table_name}_ranks", n_vertices, config, store
    )


def read_rank_table(store: KVStore, ranks_table: str) -> Dict[int, float]:
    """Extract vertex → rank from a batch-variant ranks table."""
    return {key: float(rank) for key, rank in store.get_table(ranks_table).items()}
