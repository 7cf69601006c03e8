"""The direct PageRank variant: one EBSP step per equation iteration.

Structure and ranking state ride in BSP messages.  The first step reads
the table holding the graph structure; the last step replaces each
entry in that table with an enhanced vertex object that holds its rank
as well as its structure (paper Section V-A).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.job import BaseContext, Compute, ComputeContext, Job
from repro.ebsp.loaders import Loader, TableScanLoader
from repro.ebsp.results import JobResult
from repro.ebsp.runner import run_job
from repro.errors import JobError
from repro.kvstore.api import KVStore
from repro.apps.pagerank.common import (
    C_TAG,
    PageRankConfig,
    S_TAG,
    Vertex,
    combine_rank_messages,
)

SINK_AGG = "sink"


class _DirectCompute(Compute):
    def __init__(self, n_vertices: int, config: PageRankConfig):
        self._n = n_vertices
        self._config = config

    def compute(self, ctx: ComputeContext) -> bool:
        if ctx.step_num == 0:
            vertex = ctx.read_state(0)
            if vertex is None:
                raise JobError(f"vertex {ctx.key!r} enabled but absent from the graph table")
            rank = 1.0 / self._n
            self._distribute(ctx, vertex.edges, rank)
            ctx.output_message(ctx.key, (S_TAG, vertex.edges, rank, 0.0))
            return False

        edges, acc = self._gather(ctx)
        sink_mass = ctx.get_aggregate_value(SINK_AGG) or 0.0
        d = self._config.damping
        new_rank = (1.0 - d) / self._n + d * (acc + sink_mass)
        if ctx.step_num == self._config.iterations:
            # final step: replace the table entry with the enhanced vertex
            ctx.write_state(0, Vertex(edges, new_rank))
            return False
        self._distribute(ctx, edges, new_rank)
        ctx.output_message(ctx.key, (S_TAG, edges, new_rank, 0.0))
        return False

    def _gather(self, ctx: ComputeContext) -> tuple:
        """Fold the (possibly partially combined) input messages."""
        edges = None
        acc = 0.0
        for message in ctx.input_messages():
            if message[0] == S_TAG:
                edges = message[1]
                acc += message[3]
            else:
                acc += message[1]
        if edges is None:
            raise JobError(
                f"vertex {ctx.key!r} received contributions but no state carrier; "
                "is an edge pointing at a vertex missing from the graph table?"
            )
        return edges, acc

    def _distribute(self, ctx: ComputeContext, edges: Any, rank: float) -> None:
        out_degree = len(edges)
        if out_degree == 0:
            # a sink distributes rank/|V| to everyone, via the aggregator
            ctx.aggregate_value(SINK_AGG, rank / self._n)
            return
        share = rank / out_degree
        for target in edges.tolist():
            ctx.output_message(target, (C_TAG, share))

    def combine_messages(self, ctx: BaseContext, key: Any, m1: Any, m2: Any) -> Any:
        return combine_rank_messages(m1, m2)


class _DirectJob(Job):
    def __init__(self, table_name: str, n_vertices: int, config: PageRankConfig, store: KVStore):
        self._table_name = table_name
        self._n = n_vertices
        self._config = config
        self._store = store

    def state_table_names(self) -> List[str]:
        return [self._table_name]

    def reference_table(self) -> str:
        return self._table_name

    def get_compute(self) -> Compute:
        return _DirectCompute(self._n, self._config)

    def aggregators(self) -> Dict[str, Any]:
        return {SINK_AGG: SumAggregator(0.0)}

    def loaders(self) -> List[Loader]:
        return [TableScanLoader(self._store.get_table(self._table_name))]


def pagerank_job(
    store: KVStore,
    table_name: str,
    n_vertices: int,
    config: PageRankConfig = PageRankConfig(),
) -> Job:
    """The direct-variant :class:`Job` object, unexecuted.

    For callers that hand jobs to a scheduler (the
    :class:`~repro.ebsp.scheduler.JobScheduler`) instead of running
    them inline via :func:`pagerank_direct`.
    """
    return _DirectJob(table_name, n_vertices, config, store)


def pagerank_direct(
    store: KVStore,
    table_name: str,
    n_vertices: int,
    config: PageRankConfig = PageRankConfig(),
    **engine_kwargs: Any,
) -> JobResult:
    """Rank the graph in *table_name* with the direct (fused) variant.

    One synchronization and zero intermediate table I/O per iteration;
    ``config.iterations`` equation evaluations in ``iterations + 1``
    steps.  Final ranks land back in the table (read them with
    :func:`~repro.apps.pagerank.common.read_ranks`).
    """
    job = pagerank_job(store, table_name, n_vertices, config)
    return run_job(store, job, synchronize=True, **engine_kwargs)
