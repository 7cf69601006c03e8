"""Ablation — the price of §IV-A fault tolerance and of recovering from
failures, simulated and real.

The first three modes run PageRank on the single-threaded local store.
With ``fault_tolerance=True`` every part-step defers its state writes
and outgoing spills to a single commit point, retains its input spills
until commit, and updates the part → completed-step progress table;
``test_local_with_fault_tolerance`` prices that bookkeeping against
``test_local_without_fault_tolerance`` (< 100 %), and
``test_local_with_injected_failures`` shows that simulated failures
(an exception in the part-step) cost roughly the re-executed
part-steps (< 2× the clean fault-tolerant run).

The other modes price the real thing: PageRank on the process runtime
with ``crash_tolerance=True``, where the chaos mode SIGKILLs two worker
processes mid-part-step, hangs a third past its task deadline, and
delays a fourth.  Both kinds of failure go through the same recovery
loop.  Recovery must leave the final ranks byte-identical to the
failure-free run — the crashes cost re-executed part-steps and
respawned processes, nothing else.

A last mode runs failure-free with superstep checkpointing enabled to
price the checkpoint writes, and then verifies crash → ``resume=True``
recovery end-to-end on the same store configuration.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_direct,
    read_ranks,
)
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.recovery import FailureInjector
from repro.ebsp.runner import run_job
from repro.errors import ComputeError
from repro.graph.generators import power_law_directed_graph
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.runtime import ProcessRuntime, RetryPolicy

from benchmarks.conftest import bench_rounds

CONFIG = PageRankConfig(iterations=4)
N_PARTS = 4
TASK_DEADLINE = 3.0
HANG_SECONDS = 15.0
_RESULTS: dict = {}
_MEANS: dict = {}


@pytest.fixture(scope="module")
def adjacency(scale):
    return power_law_directed_graph(int(800 * scale), int(12_000 * scale), seed=31)


def _bench_local(benchmark, adjacency, fault_tolerance: bool, injector_factory=None):
    stores = []

    def setup():
        store = LocalKVStore(default_n_parts=4)
        stores.append(store)
        n = build_pagerank_table(store, "pr", adjacency)
        kwargs = {"fault_tolerance": fault_tolerance}
        if injector_factory is not None:
            kwargs["failure_injector"] = injector_factory()
        return (store, n, kwargs), {}

    def target(store, n, kwargs):
        pagerank_direct(store, "pr", n, CONFIG, **kwargs)

    try:
        benchmark.pedantic(target, setup=setup, rounds=bench_rounds(), iterations=1)
    finally:
        for store in stores:
            store.close()
    return benchmark.stats.stats.mean


def test_local_without_fault_tolerance(benchmark, adjacency):
    _MEANS["off"] = _bench_local(benchmark, adjacency, fault_tolerance=False)


def test_local_with_fault_tolerance(benchmark, adjacency):
    _MEANS["on"] = _bench_local(benchmark, adjacency, fault_tolerance=True)
    if "off" in _MEANS:
        overhead = _MEANS["on"] / _MEANS["off"] - 1.0
        # deferring commits + progress table should be a bounded tax
        assert overhead < 1.0, f"fault tolerance costs {overhead:.0%}; expected < 100%"


def test_local_with_injected_failures(benchmark, adjacency):
    def injector_factory():
        injector = FailureInjector()
        for part in range(4):
            injector.schedule(part=part, step=1, times=1)
        return injector

    _MEANS["failures"] = _bench_local(
        benchmark, adjacency, fault_tolerance=True, injector_factory=injector_factory
    )
    if "on" in _MEANS:
        # four retried part-steps out of 4 parts x 5 steps ≈ +20% work
        assert _MEANS["failures"] < _MEANS["on"] * 2.0


def _run(adjacency, chaos: bool, checkpoint_dir=None) -> dict:
    deadline = TASK_DEADLINE if chaos else None
    runtime = ProcessRuntime(
        N_PARTS, retry_policy=RetryPolicy(task_deadline=deadline, max_respawns=6)
    )
    injector = None
    if chaos:
        injector = FailureInjector()
        injector.schedule_kill(part=1, step=1)
        injector.schedule_kill(part=2, step=2)
        injector.schedule_hang(part=3, step=3, seconds=HANG_SECONDS)
        injector.schedule_delay(part=0, step=2, seconds=0.2)
    with PartitionedKVStore(
        n_partitions=N_PARTS, runtime=runtime, crash_tolerance=True
    ) as store:
        n = build_pagerank_table(store, "pr", adjacency, n_parts=N_PARTS)
        kwargs = {"fault_tolerance": True}
        if injector is not None:
            kwargs["failure_injector"] = injector
        if checkpoint_dir is not None:
            kwargs["checkpoint_interval"] = 2
            kwargs["checkpoint_dir"] = checkpoint_dir
        started = time.perf_counter()
        result = pagerank_direct(store, "pr", n, CONFIG, **kwargs)
        elapsed = time.perf_counter() - started
        ranks = read_ranks(store, "pr")
    return {
        "elapsed_seconds": elapsed,
        "steps": result.steps,
        "worker_respawns": result.worker_respawns,
        "part_step_retries": result.part_step_retries,
        "worker_timeouts": result.worker_timeouts,
        "checkpoints_written": result.checkpoints_written,
        "checkpoint_bytes": result.checkpoint_bytes,
        "kills_claimed": injector.claimed("kill") if injector else 0,
        "hangs_claimed": injector.claimed("hang") if injector else 0,
        "rank_blob": pickle.dumps(sorted(ranks.items()), protocol=4),
    }


def _bench_mode(benchmark, adjacency, mode: str, **kwargs) -> None:
    rounds: list = []

    def once():
        measurement = _run(adjacency, **kwargs)
        rounds.append(measurement)
        return measurement["elapsed_seconds"]

    benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
    _RESULTS[mode] = rounds


def test_failure_free(benchmark, adjacency):
    _bench_mode(benchmark, adjacency, "clean", chaos=False)


def test_with_real_crashes(benchmark, adjacency):
    """Two SIGKILLs, one deadline-hang, one delay per run — the final
    ranks must be byte-identical to the failure-free mode's."""
    _bench_mode(benchmark, adjacency, "chaos", chaos=True)
    worst = max(_RESULTS["chaos"], key=lambda r: r["worker_respawns"])
    assert worst["kills_claimed"] == 2
    assert worst["hangs_claimed"] == 1
    assert worst["worker_respawns"] >= 2
    assert worst["part_step_retries"] >= 1
    if "clean" in _RESULTS:
        clean_blob = _RESULTS["clean"][0]["rank_blob"]
        for measurement in _RESULTS["chaos"]:
            assert measurement["rank_blob"] == clean_blob, (
                "recovery changed the final ranks; §IV-A demands the "
                "crashed run land byte-identical to the clean one"
            )


def test_with_checkpointing(benchmark, adjacency, tmp_path):
    """Price superstep checkpoints, then verify crash → resume on the
    same store configuration (outside the timed rounds)."""
    _bench_mode(
        benchmark,
        adjacency,
        "checkpointed",
        chaos=False,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    best = min(_RESULTS["checkpointed"], key=lambda r: r["elapsed_seconds"])
    assert best["checkpoints_written"] >= 1
    assert best["checkpoint_bytes"] > 0
    if "clean" in _RESULTS:
        assert best["rank_blob"] == _RESULTS["clean"][0]["rank_blob"]
    _verify_resume(str(tmp_path / "resume"))


def _verify_resume(directory: str) -> None:
    """A run killed mid-job resumes from its last checkpoint without
    recomputing completed steps."""

    def chain(length, crash_flag=None, seen=None):
        def fn(ctx):
            if seen is not None:
                seen.append(ctx.step_num)
            if crash_flag is not None and ctx.step_num == 4 and not crash_flag["hit"]:
                crash_flag["hit"] = True
                raise RuntimeError("driver died")
            for value in ctx.input_messages():
                ctx.write_state(0, value)
                if value < length:
                    ctx.output_message(ctx.key, value + 1)
            return False

        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from tests.ebsp.jobs import TestJob

        return TestJob(fn, loaders=[MessageListLoader([(0, 1)])])

    flag = {"hit": False}
    with PartitionedKVStore(n_partitions=N_PARTS) as store:
        with pytest.raises(ComputeError, match="driver died"):
            run_job(
                store,
                chain(8, crash_flag=flag),
                fault_tolerance=True,
                checkpoint_interval=2,
                checkpoint_dir=directory,
            )
    seen: list = []
    with PartitionedKVStore(n_partitions=N_PARTS) as store:
        result = run_job(
            store,
            chain(8, seen=seen),
            fault_tolerance=True,
            checkpoint_interval=2,
            checkpoint_dir=directory,
            resume=True,
        )
        assert result.resumed_from_step == 4
        assert seen and min(seen) == 4
        assert store.get_table("state").get(0) == 8
