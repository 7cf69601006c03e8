"""Shipped part-step execution on a process runtime (paper §III).

The same SPI on real cores: a picklable job's part-steps run inside
the worker processes that own the parts, and everything the engine
normally accumulates in shared memory — counters, the spill ledger,
aggregates, direct outputs, injected failures, trace spans — ships
back across the barrier and folds in the parent.  Lambda-heavy jobs
must keep working unmodified via the parent-side fallback.
"""

from __future__ import annotations

import pickle
import uuid
from collections import Counter

import numpy as np
import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_direct,
    read_ranks,
)
from repro.apps.pagerank.batch import (
    GRAPH_TAB,
    _BatchJob,
    _BatchPageRankCompute,
    pagerank_batch_job,
    read_rank_table,
)
from repro.ebsp.engine import MAX_RETRIES, SyncEngine
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.recovery import FailureInjector, SimulatedFailure
from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore
from repro.runtime import ProcessRuntime, RetryPolicy
from repro.runtime import shipping
from repro.runtime.shipping import shippable

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


# -- the resident compute ------------------------------------------------------
#
# A shipped job's compute is resident in each worker for the job's
# lifetime, so what it memoizes per part (batch PageRank's CSR
# structure) is built once per job, as on threads.

#: tag -> graph-table column reads made in this process; probed per
#: worker by ``_graph_reads``.
_GRAPH_READS: Counter = Counter()


class _CountingReads:
    """A batch context that counts ``read_states`` on the graph table."""

    def __init__(self, ctx, tag):
        self._ctx = ctx
        self._tag = tag

    def read_states(self, tab_idx, keys=None):
        if tab_idx == GRAPH_TAB:
            _GRAPH_READS[self._tag] += 1
        return self._ctx.read_states(tab_idx, keys)


class _CountingCompute(_BatchPageRankCompute):
    def __init__(self, n_vertices, config, tag):
        super().__init__(n_vertices, config)
        self._tag = tag

    def _structure(self, ctx, keys):
        return super()._structure(_CountingReads(ctx, self._tag), keys)


class _CountingJob(_BatchJob):
    def __init__(self, store, n_vertices, config):
        super().__init__("graph", "graph_ranks", n_vertices, config, store)
        self.tag = uuid.uuid4().hex

    def get_compute(self):
        return _CountingCompute(self._n, self._config, self.tag)


@shippable
def _graph_reads(tag):
    return _GRAPH_READS[tag]


@shippable
def _is_resident(token):
    return token in shipping._RESIDENTS


def _on_workers(store, fn, *args):
    runtime = store.runtime
    return [
        runtime.submit_to_worker(worker, fn, *args).result(timeout=30)
        for worker in runtime.started_workers()
    ]


def _graph_store(store_kwargs=None):
    store = PartitionedKVStore(n_partitions=4, **(store_kwargs or {"runtime": "process"}))
    n = build_pagerank_table(store, "graph", _adjacency(), n_parts=4)
    return store, n


def test_each_worker_reads_its_graph_parts_once_per_job():
    config = PageRankConfig(iterations=4)
    with _graph_store()[0] as store:
        job = _CountingJob(store, N_VERTICES, config)
        result = run_job(store, job, synchronize=True)
        assert result.plan["shipped"] and result.plan["shape"] == "columnar"
        assert result.steps == config.iterations + 1
        # one structure scan per part, not one per part per superstep
        assert sum(_on_workers(store, _graph_reads, job.tag)) == 4
        assert _GRAPH_READS[job.tag] == 0  # nothing ran in the parent


def _resident_anywhere(store, token):
    return any(_on_workers(store, _is_resident, token))


@pytest.mark.parametrize("outcome", ["succeeds", "fails"])
def test_no_worker_keeps_the_compute_after_the_job(outcome):
    """The compute is resident while the job runs and dropped from every
    worker when it ends, whether it succeeded or failed."""
    store, n = _graph_store()
    with store:
        injector = FailureInjector()
        if outcome == "fails":
            injector.schedule(part=2, step=2, times=MAX_RETRIES + 1)
        seen = []
        engine = SyncEngine(
            store,
            pagerank_batch_job(store, "graph", n, PageRankConfig(iterations=4)),
            fault_tolerance=True,
            failure_injector=injector,
            on_step=lambda metrics: seen.append(_resident_anywhere(store, token)),
        )
        token = engine._compute_ref.token
        if outcome == "fails":
            with pytest.raises(SimulatedFailure):
                engine.run()
        else:
            engine.run()
        assert seen and all(seen)
        assert not _resident_anywhere(store, token)


def _batch_ranks(store_kwargs):
    store, n = _graph_store(store_kwargs)
    with store:
        injector = FailureInjector()
        if store.crash_tolerance:
            injector.schedule_kill(part=1, step=2)
        result = run_job(
            store,
            pagerank_batch_job(store, "graph", n, PageRankConfig(iterations=4)),
            synchronize=True,
            fault_tolerance=True,
            failure_injector=injector,
        )
        ranks = pickle.dumps(sorted(read_rank_table(store, "graph_ranks").items()))
    return result, injector, ranks


def test_a_respawned_worker_reinstalls_the_compute():
    """A worker SIGKILLed mid-job comes back with no resident compute and
    installs it from the next part-step it is sent; ranks stay
    byte-identical to threads."""
    _, _, reference = _batch_ranks({"runtime": "threaded"})
    # the deadline cuts off part-steps whose spills to the killed worker
    # were in flight when it died: those are never answered
    runtime = ProcessRuntime(
        4, retry_policy=RetryPolicy(task_deadline=3.0, max_respawns=6)
    )
    result, injector, ranks = _batch_ranks({"runtime": runtime, "crash_tolerance": True})
    assert result.plan["shipped"]
    assert injector.claimed("kill") == 1
    assert result.worker_respawns >= 1
    assert ranks == reference
