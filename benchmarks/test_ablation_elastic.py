"""Ablation — static vs elastic placement on a skew-heavy PageRank.

The graph is a hub-and-ring power law pushed to the worst case for
static hash partitioning: every vertex links to a small set of hub
vertices whose integer ids are all ≡ 0 (mod n_parts), so the whole
hub in-degree — and with it most of the compute — lands in logical
part 0.  A static run serializes on the worker owning that part; an
elastic run detects the skew after the warmup step, splits part 0 into
hash-prefix sub-parts (the hub ids are chosen to spread across all
four), pins them to the other workers, and the hot part's message
processing parallelizes for the remaining supersteps.

The rank fold is order-independent (sorted messages, rounded writes),
so static and elastic runs must produce **byte-identical** final ranks
— asserted every run, at every scale.  The ≥1.5x speedup assertion
arms on ≥4 cores at ``RIPPLE_BENCH_SCALE>=4``; the first supersteps
run under the static placement either way (detection takes a step,
re-routing takes effect one step later), which bounds the achievable
speedup well below the 4x fanout.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from typing import List

import pytest

from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import Loader
from repro.elastic import ElasticConfig
from repro.kvstore.partitioned import PartitionedKVStore

from benchmarks.conftest import bench_rounds

N_PARTS = 4
STEPS = 8
#: all ≡ 0 (mod 4) — one logical part — yet spread across all four
#: hash-prefix sub-parts once that part is split
HUBS = [0, 4, 8, 48]
_RESULTS: dict = {}


def _workload(scale: float) -> tuple:
    """(n_vertices, spin_per_message) for one scale."""
    # the spin floor keeps the hub compute well above per-part-step
    # overhead even at scale 1, so the skew is visible to the monitor
    return max(64, int(64 * scale)), max(150, int(80 * scale))


class _SkewedPageRank(Compute):
    """Per-message compute cost, order-independent fold."""

    def __init__(self, n: int, spin_per_message: int):
        self._n = n
        self._spin = spin_per_message

    def compute(self, ctx: ComputeContext) -> bool:
        msgs = sorted(ctx.input_messages())
        acc = 0.0
        for value in msgs:
            acc += value
            for _ in range(self._spin):
                acc = math.sqrt(acc * acc + 1.0) - 1.0 + value * 1e-9
        rank = round(0.15 + 0.85 * acc, 12)
        ctx.write_state(0, rank)
        if ctx.step_num >= STEPS:
            return False
        out_degree = len(HUBS) + 1
        share = round(rank / out_degree, 12)
        for hub in HUBS:
            ctx.output_message(hub, share)
        ctx.output_message((ctx.key * 13 + 1) % self._n, share)
        return True


class _SeedLoader(Loader):
    def __init__(self, n: int):
        self._n = n

    def load(self, ctx) -> None:
        for key in range(self._n):
            ctx.put_state(0, key, 0.0)
            ctx.send_message(key, 1.0)


class _SkewJob(Job):
    def __init__(self, n: int, spin_per_message: int):
        self._n = n
        self._spin = spin_per_message

    def state_table_names(self) -> List[str]:
        return ["rank_state"]

    def get_compute(self) -> Compute:
        return _SkewedPageRank(self._n, self._spin)

    def loaders(self) -> List[Loader]:
        return [_SeedLoader(self._n)]


def _elastic_config() -> ElasticConfig:
    return ElasticConfig(
        split_threshold=1.35,
        min_part_seconds=0.0001,
        warmup_steps=1,
        cooldown_steps=0,
    )


def _run(mode: str, n: int, spin_per_message: int) -> dict:
    from repro.ebsp.runner import run_job

    elastic = _elastic_config() if mode == "elastic" else False
    with PartitionedKVStore(n_partitions=N_PARTS, runtime="process") as store:
        started = time.perf_counter()
        result = run_job(
            store, _SkewJob(n, spin_per_message), synchronize=True, elastic=elastic
        )
        elapsed = time.perf_counter() - started
        ranks = sorted(store.get_table("rank_state").items())
        return {
            "elapsed_seconds": elapsed,
            "steps": result.steps,
            "invocations": result.counters["compute_invocations"],
            "messages_sent": result.counters["messages_sent"],
            "parts_split": result.parts_split,
            "parts_merged": result.parts_merged,
            "parts_migrated": result.parts_migrated,
            "load_imbalance": result.load_imbalance,
            "state_blob": pickle.dumps(ranks, protocol=4),
        }


@pytest.mark.parametrize("mode", ["static", "elastic"])
def test_elastic_ablation(benchmark, scale, mode):
    n, spin_per_message = _workload(scale)
    rounds: list = []

    def once():
        measurement = _run(mode, n, spin_per_message)
        rounds.append(measurement)
        return measurement["elapsed_seconds"]

    benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
    _RESULTS[mode] = {"rounds": rounds}

    if mode == "elastic" and "static" in _RESULTS:
        s_best = min(
            _RESULTS["static"]["rounds"], key=lambda r: r["elapsed_seconds"]
        )
        e_best = min(rounds, key=lambda r: r["elapsed_seconds"])
        # correctness first: identical work, byte-identical final ranks
        assert e_best["steps"] == s_best["steps"]
        assert e_best["invocations"] == s_best["invocations"]
        assert e_best["messages_sent"] == s_best["messages_sent"]
        assert e_best["state_blob"] == s_best["state_blob"], (
            "elastic and static runs diverged; splitting re-routes whole "
            "keys and the fold is order-independent, so ranks must be "
            "byte-identical"
        )
        # the elasticity actually engaged and saw the skew
        assert e_best["parts_split"] >= 1, "the hot part never split"
        assert e_best["load_imbalance"] > 1.0
        assert s_best["parts_split"] == 0
        # the speedup claim needs real cores and a non-trivial workload
        cpus = os.cpu_count() or 1
        if cpus >= 4 and scale >= 4:
            speedup = s_best["elapsed_seconds"] / e_best["elapsed_seconds"]
            assert speedup >= 1.5, (
                f"expected >=1.5x on {cpus} cores at scale {scale}, "
                f"got {speedup:.2f}x "
                f"({s_best['elapsed_seconds']:.3f}s static vs "
                f"{e_best['elapsed_seconds']:.3f}s elastic)"
            )
