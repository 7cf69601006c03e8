"""Per-job worker-runtime instrumentation in JobResult."""

from __future__ import annotations

import threading

import pytest

from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore
from repro.obs.metrics import MetricsRegistry

from tests.ebsp.jobs import TestJob


@pytest.fixture(params=["threaded", "inline", "process"])
def store(request):
    instance = PartitionedKVStore(n_partitions=4, runtime=request.param)
    yield instance
    instance.close()


def _sync_job():
    def fn(ctx):
        ctx.write_state(0, ctx.key)
        return False

    return TestJob(fn, state_tables=["s"], loaders=[MessageListLoader([(i, i) for i in range(8)])])


def _async_job():
    def fn(ctx):
        ctx.write_state(0, ctx.key)
        return False

    return TestJob(
        fn,
        state_tables=["s"],
        loaders=[MessageListLoader([(i, i) for i in range(8)])],
        properties=JobProperties(one_msg=True, no_continue=True, no_ss_order=True),
    )


def test_sync_result_carries_worker_stats(store):
    result = run_job(store, _sync_job(), synchronize=True)
    stats = result.worker_stats
    assert stats["runtime"] == store.runtime.kind
    assert stats["n_workers"] == 4
    # the step enumerations ran as long tasks on the store's workers
    assert stats["tasks"] > 0
    assert result.runtime_tasks > 0
    assert len(stats["workers"]) == 4
    assert sum(w["tasks"] for w in stats["workers"]) == stats["tasks"]


def test_async_result_carries_worker_stats(store):
    result = run_job(store, _async_job(), synchronize=False)
    stats = result.worker_stats
    assert stats["runtime"] == store.runtime.kind
    # each seeded part's drain ran as a long task on the store's runtime
    assert "gang_tasks" not in stats
    assert stats["tasks"] >= 4
    assert result.runtime_tasks == stats["tasks"]


def test_counters_are_thread_safe():
    """Regression: part-steps on many workers hammer one job's
    MetricsRegistry; concurrent ``add``/``record_max`` must lose no
    updates (get-or-create races too — same name from many threads
    must land on one instrument)."""
    registry = MetricsRegistry()
    n_threads, per_thread = 8, 2_000
    barrier = threading.Barrier(n_threads)

    def worker(index):
        barrier.wait()
        for i in range(per_thread):
            registry.counter("messages_sent").add()
            registry.counter("bytes").add(3)
            registry.gauge("hwm").record_max(index * per_thread + i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert registry.snapshot() == {
        "messages_sent": n_threads * per_thread,
        "bytes": 3 * n_threads * per_thread,
        "hwm": n_threads * per_thread - 1,
    }


def test_stats_are_per_job_deltas(store):
    first = run_job(store, _sync_job(), synchronize=True)
    store.drop_table("s")
    second = run_job(store, _sync_job(), synchronize=True)
    # the second job's stats must not include the first job's work:
    # equal workloads report (approximately) equal task counts
    assert abs(second.worker_stats["tasks"] - first.worker_stats["tasks"]) <= max(
        4, first.worker_stats["tasks"] // 2
    )
