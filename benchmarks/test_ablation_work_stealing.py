"""Ablation — run-anywhere work stealing on the no-sync engine (§II-A).

"In this case the implementation can freely engage in work-stealing,
for example to balance load."  The workload here is deliberately
skewed: a seed component fans 200 single-message tasks out to keys that
all hash to ONE part, and each task carries a simulated 2 ms of work
(a GIL-releasing sleep, so workers genuinely overlap).  Without
stealing one drain at a time works through the pile on the part's own
lane; with stealing (the plan's choice for one-msg ∧ no-continue ∧
rare-state ∧ no-ss-order) drains on idle workers' lanes share it.  The
A/B lever is the ``rare_state`` declaration: without it the job is
still no-sync eligible, but not run-anywhere, so nothing steals.  The
store is threaded: on the inline runtime drains run one after another
by design, so there is nothing to steal.
"""

from __future__ import annotations

import time

import pytest

from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import EngineOptions, JobProperties
from repro.kvstore.partitioned import PartitionedKVStore

from benchmarks.conftest import bench_rounds

N_TASKS = 200
TASK_SECONDS = 0.002
N_PARTS = 8

_MEANS: dict = {}


class _SkewedCompute(Compute):
    def compute(self, ctx: ComputeContext) -> bool:
        for message in ctx.input_messages():
            if message == "seed":
                for i in range(N_TASKS):
                    # keys ≡ 0 (mod N_PARTS): every task lands in part 0
                    ctx.output_message(1000 + i * N_PARTS, "task")
            else:
                time.sleep(TASK_SECONDS)
        return False


class _SkewedJob(Job):
    def __init__(self, properties: JobProperties):
        self._properties = properties

    def state_table_names(self):
        return ["skew_state"]

    def get_compute(self):
        return _SkewedCompute()

    def properties(self):
        return self._properties

    def loaders(self):
        return [MessageListLoader([(0, "seed")])]


def _run(rare_state: bool) -> float:
    properties = JobProperties(
        one_msg=True, no_continue=True, rare_state=rare_state, no_ss_order=True
    )
    store = PartitionedKVStore(N_PARTS, runtime="threaded")
    try:
        engine = AsyncEngine(store, _SkewedJob(properties), EngineOptions())
        start = time.monotonic()
        result = engine.run()
        elapsed = time.monotonic() - start
        assert result.compute_invocations == N_TASKS + 1
        assert result.plan["work_stealing"] is rare_state
        return elapsed
    finally:
        store.close()


def test_without_stealing(benchmark):
    benchmark.pedantic(lambda: _run(False), rounds=bench_rounds(), iterations=1)
    _MEANS["off"] = benchmark.stats.stats.mean


def test_with_stealing(benchmark):
    benchmark.pedantic(lambda: _run(True), rounds=bench_rounds(), iterations=1)
    _MEANS["on"] = benchmark.stats.stats.mean
    if "off" in _MEANS:
        speedup = _MEANS["off"] / _MEANS["on"]
        assert speedup > 1.5, (
            f"stealing should spread the skewed pile over idle workers "
            f"(measured {speedup:.2f}x)"
        )
