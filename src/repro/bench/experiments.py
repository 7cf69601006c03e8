"""The paper's experiments as reusable functions.

Each experiment from Section V is packaged here so that both the
pytest-benchmark suite (``benchmarks/``) and the paper-table harness
(``python -m repro.bench.paper``) drive exactly the same code.

Workloads default to laptop-minute sizes; ``RIPPLE_BENCH_SCALE``
multiplies them toward the paper's (see DESIGN.md for the mapping).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_direct,
    pagerank_mapreduce,
)
from repro.apps.summa import BlockGrid, multiplications_per_step, summa_multiply
from repro.apps.sssp import DynamicGraphWorkload, FullScanSSSP, SelectiveSSSP
from repro.bench.harness import TrialStats
from repro.graph.generators import power_law_directed_graph
from repro.kvstore.partitioned import PartitionedKVStore
from repro.kvstore.replicated import ReplicatedKVStore
from repro.obs.metrics import MetricsRegistry

# ---------------------------------------------------------------------------
# Table I — PageRank, direct vs MapReduce variant
# ---------------------------------------------------------------------------

#: The paper's three graphs: (132k, 4.34M), (132k, 8.68M), (262k, 8.68M).
#: The defaults are those shapes at 1/66 of the edge count; scale=66
#: restores the paper's sizes (at Python speed, hours per trial).
PAPER_TABLE1_GRAPHS = [(132_000, 4_341_659), (132_000, 8_683_970), (262_000, 8_683_970)]


def table1_workloads(scale: float = 1.0) -> List[Tuple[int, int]]:
    divisor = 66.0 / scale
    return [
        (max(2, int(v / divisor)), max(1, int(e / divisor)))
        for v, e in PAPER_TABLE1_GRAPHS
    ]


@dataclass
class Table1Row:
    vertices: int
    edges: int
    direct: TrialStats
    mapreduce: TrialStats

    @property
    def speedup_percent(self) -> float:
        """How much faster the direct variant is (paper: 15–19%)."""
        return (self.mapreduce.mean / self.direct.mean - 1.0) * 100.0


def pagerank_store_factory(n_partitions: int = 6) -> Callable[[], PartitionedKVStore]:
    """The paper's Table I substrate: the parallel debugging store with
    6 partitions."""
    return lambda: PartitionedKVStore(n_partitions=n_partitions)


def time_pagerank_variant(
    adjacency: Dict[int, np.ndarray],
    variant: Callable,
    config: PageRankConfig,
    store_factory: Callable[[], object],
) -> float:
    """One timed trial: build the table (untimed), run the variant."""
    store = store_factory()
    try:
        n = build_pagerank_table(store, "pagerank", adjacency)
        start = time.monotonic()
        variant(store, "pagerank", n, config)
        return time.monotonic() - start
    finally:
        store.close()


def run_table1(
    scale: float = 1.0,
    trials: int = 3,
    iterations: int = 4,
    n_partitions: int = 6,
    seed: int = 2013,
) -> List[Table1Row]:
    """Regenerate Table I: elapsed seconds for both variants per graph."""
    rows = []
    factory = pagerank_store_factory(n_partitions)
    config = PageRankConfig(iterations=iterations)
    for index, (n_vertices, n_edges) in enumerate(table1_workloads(scale)):
        adjacency = power_law_directed_graph(n_vertices, n_edges, seed=seed + index)
        # interleave the variants so drift (cache warmth, allocator
        # state) cannot systematically favor either one
        direct_times: List[float] = []
        mapreduce_times: List[float] = []
        for _ in range(trials):
            mapreduce_times.append(
                time_pagerank_variant(adjacency, pagerank_mapreduce, config, factory)
            )
            direct_times.append(
                time_pagerank_variant(adjacency, pagerank_direct, config, factory)
            )
        rows.append(
            Table1Row(
                n_vertices,
                n_edges,
                TrialStats(tuple(direct_times)),
                TrialStats(tuple(mapreduce_times)),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table II — SUMMA block multiplications per step
# ---------------------------------------------------------------------------

PAPER_TABLE2 = [1, 3, 6, 3, 6, 3, 5]


def run_table2(grid: BlockGrid = BlockGrid(3, 3, 3), block_size: int = 24) -> Dict[str, List[int]]:
    """Regenerate Table II twice over: analytically from the schedule
    simulator, and empirically from an instrumented live run."""
    analytic = multiplications_per_step(grid.m_rows, grid.n_cols, grid.batches)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((grid.m_rows * block_size, grid.batches * block_size))
    b = rng.standard_normal((grid.batches * block_size, grid.n_cols * block_size))
    counters = MetricsRegistry()
    store = ReplicatedKVStore(n_shards=grid.m_rows * grid.n_cols, replication=0)
    try:
        _, result = summa_multiply(store, a, b, grid, synchronize=True, counters=counters)
        muls = counters.snapshot()
        measured = [muls.get(f"muls_step_{s}", 0) for s in range(result.steps)]
    finally:
        store.close()
    return {"analytic": analytic, "measured": measured}


# ---------------------------------------------------------------------------
# §V-B timing — SUMMA with and without synchronization
# ---------------------------------------------------------------------------


#: Simulated per-block-multiply duration for the §V-B timing benchmark.
#: Each grid component behaves as a dedicated machine whose multiply
#: takes this long (the paper ran on 10 WXS data-container processes;
#: this host is single-core — DESIGN.md §2 records the substitution).
SUMMA_MULTIPLY_SECONDS = 0.05


def time_summa(
    matrix_size: int,
    synchronize: bool,
    grid: BlockGrid = BlockGrid(3, 3, 3),
    seed: int = 7,
    simulated_multiply_seconds: float = SUMMA_MULTIPLY_SECONDS,
) -> float:
    """One timed SUMMA run on the WXS-analog store (as the paper did)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((matrix_size, matrix_size))
    b = rng.standard_normal((matrix_size, matrix_size))
    store = ReplicatedKVStore(n_shards=grid.m_rows * grid.n_cols, replication=0)
    try:
        start = time.monotonic()
        c, _ = summa_multiply(
            store,
            a,
            b,
            grid,
            synchronize=synchronize,
            simulated_multiply_seconds=simulated_multiply_seconds,
        )
        elapsed = time.monotonic() - start
        assert np.allclose(c, a @ b)
        return elapsed
    finally:
        store.close()


def run_summa_timing(
    matrix_size: int = 240, trials: int = 4, scale: float = 1.0
) -> Tuple[TrialStats, TrialStats]:
    """Regenerate the §V-B comparison (paper: 90 ± 0.5 s synchronized vs
    51 ± 0.5 s without, on a 3×3 grid; the bound is 7/3).

    The simulated multiply duration makes the schedule cost (7 rounds
    synchronized vs a ~3-round pipelined critical path) the dominant
    term, exactly the regime the paper measured."""
    size = int(matrix_size * scale ** 0.5)
    sync = TrialStats(tuple(time_summa(size, True) for _ in range(trials)))
    nosync = TrialStats(tuple(time_summa(size, False) for _ in range(trials)))
    return sync, nosync


# ---------------------------------------------------------------------------
# §V-C timing — incremental SSSP, selective vs full-scan
# ---------------------------------------------------------------------------


def sssp_workload(scale: float = 1.0, seed: int = 2013) -> DynamicGraphWorkload:
    """The §V-C scenario (paper: 100k vertices, 1.8M edges, ten batches
    of 1,000 changes) at 1/100 by default."""
    divisor = 100.0 / scale
    return DynamicGraphWorkload(
        n_vertices=max(10, int(100_000 / divisor)),
        n_edges=max(10, int(1_800_000 / divisor)),
        batches=10,
        changes_per_batch=max(2, int(1_000 / divisor)),
        seed=seed,
    )


def time_sssp_variant(workload: DynamicGraphWorkload, selective: bool, n_parts: int = 6) -> float:
    """One trial: initial solve untimed, then the ten batches timed —
    exactly the paper's protocol."""
    store = PartitionedKVStore(n_partitions=n_parts)
    try:
        if selective:
            solver = SelectiveSSSP(store, workload.source)
        else:
            solver = FullScanSSSP(store, workload.source)
        solver.load({v: set(ns) for v, ns in workload.initial_adjacency.items()})
        solver.initial_solve()
        start = time.monotonic()
        for batch in workload.change_batches:
            solver.update(batch)
        return time.monotonic() - start
    finally:
        store.close()


def run_sssp_timing(
    scale: float = 1.0, trials: int = 3, seed: int = 2013
) -> Tuple[TrialStats, TrialStats]:
    """Regenerate the §V-C comparison (paper: 0.21 ± 0.03 s selective vs
    78 ± 5 s full-scan over ten batches; ≈370×)."""
    workload = sssp_workload(scale, seed)
    selective = TrialStats(
        tuple(time_sssp_variant(workload, selective=True) for _ in range(trials))
    )
    full_scan = TrialStats(
        tuple(time_sssp_variant(workload, selective=False) for _ in range(trials))
    )
    return selective, full_scan
