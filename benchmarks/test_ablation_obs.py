"""Ablation — observability overhead (repro.obs span tracing).

Tracing is opt-in per job; the contract is that the *disabled* path is
free.  When a job runs without ``trace=``, every instrumentation point
reduces to one ``tracer.enabled`` attribute check (the process-global
tracer is the no-op singleton), so the message-heavy PageRank workload
should time the same as it did before ``repro.obs`` existed.  When
tracing *is* on, the recorded trace must be a valid Chrome/Perfetto
document: one lane per worker, spans properly nested, no negative
durations.

Modes:

* ``untraced`` — the default path; also asserts no trace is attached.
* ``traced``  — ``trace=True``; validates the exported trace schema
  and the lane/worker correspondence.

The traced/untraced overhead ratio is not asserted tightly — wall
clocks on shared CI are too noisy for a 2 % bound; the no-op-tracer
micro-benchmark in ``tests/obs`` pins the disabled-path cost instead.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.apps.pagerank import PageRankConfig, build_pagerank_table, pagerank_direct
from repro.graph.generators import power_law_directed_graph
from repro.kvstore.partitioned import PartitionedKVStore
from repro.obs.export import validate_chrome_trace

from benchmarks.conftest import bench_rounds

N_PARTITIONS = 6
CONFIG = PageRankConfig(iterations=3)


@pytest.fixture(scope="module")
def adjacency(scale):
    return power_law_directed_graph(int(800 * scale), int(16_000 * scale), seed=31)


def _run(adjacency, traced: bool) -> dict:
    store = PartitionedKVStore(n_partitions=N_PARTITIONS)
    try:
        n = build_pagerank_table(store, "pr", adjacency)
        started = time.perf_counter()
        result = pagerank_direct(store, "pr", n, CONFIG, trace=traced)
        elapsed = time.perf_counter() - started
        return {
            "elapsed_seconds": elapsed,
            "steps": result.steps,
            "trace": result.trace,
            "phase_seconds": result.phase_seconds,
            "worker_count": store.runtime.stats()["n_workers"],
        }
    finally:
        store.close()


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_obs_overhead(benchmark, adjacency, mode, trace_dir):
    rounds: list = []

    def once():
        measurement = _run(adjacency, traced=(mode == "traced"))
        rounds.append(measurement)
        return measurement

    benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
    best = min(rounds, key=lambda r: r["elapsed_seconds"])

    if mode == "untraced":
        # the disabled path must not even build a trace document
        assert all(r["trace"] is None for r in rounds)
        return

    # -- traced mode: schema and lane guarantees ---------------------------
    trace = best["trace"]
    assert trace is not None
    problems = validate_chrome_trace(trace)
    assert not problems, f"invalid trace: {problems}"
    lanes = sorted((trace.get("otherData") or {}).get("lanes", {}).values())
    worker_lanes = [lane for lane in lanes if lane.startswith("worker-")]
    assert worker_lanes == [
        f"worker-{i}" for i in range(best["worker_count"])
    ], f"expected one lane per worker, got {lanes}"
    assert "driver" in lanes
    # phase attribution must be populated for traced synchronized runs
    assert best["phase_seconds"]["compute"] > 0.0

    if trace_dir:
        with open(os.path.join(trace_dir, "pagerank_obs.trace.json"), "w") as fh:
            json.dump(trace, fh)
