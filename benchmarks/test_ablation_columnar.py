"""Ablation — per-key vs columnar (batch) data plane on PageRank.

The batch PageRank job implements both faces of the programming model
over identical float64 math (``apps/pagerank/batch.py``), so flipping
the engine's ``batch_compute`` flag is a pure A/B of the data plane:
per-key hands each vertex to ``compute()`` one at a time; batch slices
each part into numpy columns and drives ``compute_batch`` — same
store, same messages, same table writes.

Correctness is asserted every run at every scale: the two modes must
produce *byte-identical* final ranks (the bench graph is sink-free, so
no aggregator fold-order nondeterminism can leak into rank bits), and
both must match the dense numpy reference to float tolerance.

The headline claim — the per-superstep compute speedup (summed
``StepMetrics.compute_seconds``, which excludes barrier wait and the
commit/flush phase) — arms at ``RIPPLE_BENCH_SCALE >= 4``: the ≥5x
gate needs a workload big enough that per-invocation Python overhead,
not fixed step costs, dominates the per-key mode.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict

import numpy as np
import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_batch,
    read_rank_table,
    reference_pagerank,
)
from repro.kvstore.partitioned import PartitionedKVStore

from benchmarks.conftest import bench_rounds

N_PARTS = 4
ITERATIONS = 6
AVG_DEGREE = 8
_RESULTS: dict = {}


def _workload(scale: float) -> int:
    """Vertex count for one scale."""
    return max(64, int(600 * scale))


def _make_graph(n: int, seed: int = 7) -> Dict[int, np.ndarray]:
    """A deterministic sink-free random graph, ~AVG_DEGREE out-edges."""
    rng = np.random.default_rng(seed)
    return {
        v: np.unique(rng.integers(0, n, size=1 + int(rng.integers(0, 2 * AVG_DEGREE))))
        for v in range(n)
    }


def _run(mode: str, adjacency: Dict[int, np.ndarray], n: int) -> dict:
    with PartitionedKVStore(n_partitions=N_PARTS) as store:
        build_pagerank_table(store, "pr", adjacency)
        started = time.perf_counter()
        result = pagerank_batch(
            store,
            "pr",
            n,
            PageRankConfig(iterations=ITERATIONS),
            batch_compute=mode == "batch",
        )
        elapsed = time.perf_counter() - started
        ranks = sorted(store.get_table("pr_ranks").items())
        return {
            "elapsed_seconds": elapsed,
            "compute_seconds": sum(sm.compute_seconds for sm in result.timeline),
            "steps": result.steps,
            "invocations": result.counters["compute_invocations"],
            "messages_sent": result.counters["messages_sent"],
            "batch_fallbacks": result.counters.get("batch_fallbacks", 0),
            "rank_blob": pickle.dumps(ranks, protocol=4),
            "ranks": read_rank_table(store, "pr_ranks"),
        }


@pytest.mark.parametrize("mode", ["perkey", "batch"])
def test_columnar_ablation(benchmark, scale, mode):
    n = _workload(scale)
    adjacency = _make_graph(n)
    rounds: list = []

    def once():
        measurement = _run(mode, adjacency, n)
        rounds.append(measurement)
        return measurement["elapsed_seconds"]

    benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
    _RESULTS[mode] = {"rounds": rounds}

    if mode == "batch" and "perkey" in _RESULTS:
        p_best = min(
            _RESULTS["perkey"]["rounds"], key=lambda r: r["compute_seconds"]
        )
        b_best = min(rounds, key=lambda r: r["compute_seconds"])
        # correctness first: identical work, byte-identical final ranks
        assert b_best["steps"] == p_best["steps"] == ITERATIONS + 1
        assert b_best["invocations"] == p_best["invocations"]
        assert b_best["messages_sent"] == p_best["messages_sent"]
        assert b_best["batch_fallbacks"] == 0, "batch mode fell back per-key"
        assert b_best["rank_blob"] == p_best["rank_blob"], (
            "batch and per-key runs diverged; the graph is sink-free, so "
            "final ranks must be byte-identical"
        )
        reference = reference_pagerank(
            adjacency, PageRankConfig(iterations=ITERATIONS)
        )
        worst = max(
            abs(b_best["ranks"][v] - reference[v]) for v in reference
        )
        assert worst < 1e-10, f"ranks deviate from the dense reference by {worst}"
        # the speedup claim needs a workload where per-invocation Python
        # overhead dominates the per-key mode
        if scale >= 4:
            speedup = p_best["compute_seconds"] / b_best["compute_seconds"]
            assert speedup >= 5.0, (
                f"expected >=5x per-superstep compute speedup at scale "
                f"{scale}, got {speedup:.2f}x "
                f"({p_best['compute_seconds']:.3f}s per-key vs "
                f"{b_best['compute_seconds']:.3f}s batch)"
            )
