"""Shipped part-step execution on a process runtime (paper §III).

The same SPI on real cores: a picklable job's part-steps run inside
the worker processes that own the parts, and everything the engine
normally accumulates in shared memory — counters, the spill ledger,
aggregates, direct outputs, injected failures, trace spans — ships
back across the barrier and folds in the parent.  Lambda-heavy jobs
must keep working unmodified via the parent-side fallback.
"""

from __future__ import annotations

import numpy as np

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_direct,
    read_ranks,
)
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.recovery import FailureInjector
from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob

N_VERTICES = 120


def _adjacency():
    rng = np.random.default_rng(11)
    return {
        v: rng.integers(0, N_VERTICES, size=int(rng.integers(0, 6)))
        for v in range(N_VERTICES)
    }


def _run_pagerank(runtime, **kwargs):
    with PartitionedKVStore(n_partitions=4, runtime=runtime) as store:
        n = build_pagerank_table(store, "graph", _adjacency(), n_parts=4)
        result = pagerank_direct(
            store, "graph", n, PageRankConfig(iterations=4), **kwargs
        )
        return result, read_ranks(store, "graph")


def test_shipped_run_matches_threaded():
    threaded, t_ranks = _run_pagerank("threaded")
    shipped, s_ranks = _run_pagerank("process")
    assert shipped.steps == threaded.steps
    assert max(abs(t_ranks[k] - s_ranks[k]) for k in t_ranks) < 1e-12
    for name in (
        "compute_invocations",
        "messages_sent",
        "messages_combined",
        "records_spilled",
        "spills_written",
        "part_steps_run",
        "barriers",
    ):
        assert shipped.counters.get(name) == threaded.counters.get(name), name


def test_shipped_trace_spans_replay_into_parent_timeline():
    result, _ = _run_pagerank("process", trace=True)
    events = result.trace["traceEvents"]
    names = {event.get("name") for event in events}
    assert {"part-step", "collect", "commit", "superstep"} <= names


def test_shipped_fault_tolerance_and_failure_injection():
    injector = FailureInjector()
    injector.schedule(1, 2, times=2)
    result, ranks = _run_pagerank(
        "process", fault_tolerance=True, failure_injector=injector
    )
    assert injector.failures_injected == 2
    assert result.counters.get("part_step_retries") == 2
    _, reference = _run_pagerank("threaded")
    assert max(abs(reference[k] - ranks[k]) for k in reference) < 1e-12


def test_lambda_job_falls_back_on_process_runtime():
    with PartitionedKVStore(n_partitions=2, runtime="process") as store:

        def fn(ctx):
            ctx.write_state(0, (ctx.read_state(0) or 0) + 1)
            return ctx.step_num < 2

        job = TestJob(
            fn, loaders=[MessageListLoader([(i, i) for i in range(6)])]
        )
        result = run_job(store, job, synchronize=True)
        assert result.steps == 3
        assert store.get_table("state").get(0) == 3
