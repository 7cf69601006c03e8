"""Ablation — threaded vs process worker runtime (paper §III on cores).

The threaded runtime parallelizes part-steps across Python threads, so
compute-bound jobs serialize on the interpreter lock; the process
runtime pins each part to a worker *process* and ships the part-step
to it, so the same job uses real cores.  This ablation runs one
compute-heavy synchronized job on both backends and compares elapsed
time and results.

The job is deliberately order-independent — each component folds its
incoming messages in sorted order — so the two backends must produce
*byte-identical* final states (asserted every run, at every scale).
The ≥1.8x speedup assertion only arms on machines with ≥4 cores at
``RIPPLE_BENCH_SCALE>=4``: below that, process-transport overhead
dominates the tiny workload and the A/B is informational.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from typing import Any, Dict, List

import pytest

from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import Loader
from repro.kvstore.partitioned import PartitionedKVStore

from benchmarks.conftest import bench_rounds

N_PARTS = 4
STEPS = 4
FANOUT = 3
_RESULTS: dict = {}


def _workload(scale: float) -> tuple:
    """(n_components, spin_iterations) for one scale."""
    return max(32, int(48 * scale)), max(60, int(150 * scale))


def _spin(value: float, iterations: int) -> float:
    """Deterministic pure-Python compute kernel (GIL-bound when
    threaded): the work the process backend parallelizes."""
    acc = value
    for i in range(iterations):
        acc = math.sqrt(acc * acc + 1.0) + math.sin(acc + i)
    return acc


class _HeavyCompute(Compute):
    """Order-independent compute: fold sorted messages, spin, fan out."""

    def __init__(self, n: int, spin_iterations: int):
        self._n = n
        self._spin = spin_iterations

    def compute(self, ctx: ComputeContext) -> bool:
        # sorting makes the fold independent of message arrival order,
        # so threaded and process runs are byte-identical
        acc = sum(sorted(ctx.input_messages()))
        state = _spin(acc + ctx.key * 1e-3, self._spin)
        ctx.write_state(0, state)
        ctx.aggregate_value("mass", state)
        if ctx.step_num >= STEPS:
            return False
        for hop in range(1, FANOUT + 1):
            target = (ctx.key * 7 + hop * 13) % self._n
            ctx.output_message(target, round(state / (hop + 1), 12))
        return True


class _SeedLoader(Loader):
    def __init__(self, n: int):
        self._n = n

    def load(self, ctx) -> None:
        for key in range(self._n):
            ctx.put_state(0, key, 0.0)
            ctx.send_message(key, float(key % 17))


class _HeavyJob(Job):
    def __init__(self, n: int, spin_iterations: int):
        self._n = n
        self._spin = spin_iterations

    def state_table_names(self) -> List[str]:
        return ["heavy_state"]

    def get_compute(self) -> Compute:
        return _HeavyCompute(self._n, self._spin)

    def aggregators(self) -> Dict[str, Any]:
        return {"mass": SumAggregator(0.0)}

    def loaders(self) -> List[Loader]:
        return [_SeedLoader(self._n)]


def _run(runtime: str, n: int, spin_iterations: int) -> dict:
    from repro.ebsp.runner import run_job

    with PartitionedKVStore(n_partitions=N_PARTS, runtime=runtime) as store:
        started = time.perf_counter()
        result = run_job(
            store, _HeavyJob(n, spin_iterations), synchronize=True
        )
        elapsed = time.perf_counter() - started
        state = sorted(store.get_table("heavy_state").items())
        return {
            "elapsed_seconds": elapsed,
            "steps": result.steps,
            "aggregate_mass": result.aggregates["mass"],
            "invocations": result.counters["compute_invocations"],
            "messages_sent": result.counters["messages_sent"],
            "worker_stats": {
                "runtime": result.worker_stats.get("runtime"),
                "tasks": result.worker_stats.get("tasks"),
                "pids": result.worker_stats.get("pids", {}),
            },
            "state_blob": pickle.dumps(state, protocol=4),
        }


@pytest.mark.parametrize("mode", ["threaded", "process"])
def test_process_runtime_ablation(benchmark, scale, mode):
    n, spin_iterations = _workload(scale)
    rounds: list = []

    def once():
        measurement = _run(mode, n, spin_iterations)
        rounds.append(measurement)
        return measurement["elapsed_seconds"]

    benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
    _RESULTS[mode] = {"rounds": rounds}

    if mode == "process" and "threaded" in _RESULTS:
        t_best = min(
            _RESULTS["threaded"]["rounds"], key=lambda r: r["elapsed_seconds"]
        )
        p_best = min(rounds, key=lambda r: r["elapsed_seconds"])
        # correctness first: identical work, byte-identical final state
        assert p_best["steps"] == t_best["steps"]
        assert p_best["invocations"] == t_best["invocations"]
        assert p_best["messages_sent"] == t_best["messages_sent"]
        assert p_best["state_blob"] == t_best["state_blob"], (
            "process and threaded runs diverged; the job is "
            "order-independent, so results must be byte-identical"
        )
        assert p_best["worker_stats"]["runtime"] == "process"
        assert p_best["worker_stats"]["pids"], "no worker processes started"
        # the speedup claim needs real cores and a non-trivial workload
        cpus = os.cpu_count() or 1
        if cpus >= 4 and scale >= 4:
            speedup = t_best["elapsed_seconds"] / p_best["elapsed_seconds"]
            assert speedup >= 1.8, (
                f"expected >=1.8x on {cpus} cores at scale {scale}, "
                f"got {speedup:.2f}x "
                f"({t_best['elapsed_seconds']:.3f}s threaded vs "
                f"{p_best['elapsed_seconds']:.3f}s process)"
            )
