"""Process-runtime-specific behaviour: shipping, residency, lifecycle.

The generic SPI contract runs in ``test_worker_runtime.py`` (where the
process runtime exercises its fallback surface — closures never ship);
this file pins what only a multi-process backend has: tasks executing
in worker *processes*, parts resident in their owner process, the
picklability preflight diagnostics, and child-process cleanup.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.apps.pagerank import PageRankConfig, build_pagerank_table, pagerank_batch
from repro.apps.pagerank.batch import read_rank_table
from repro.ebsp.recovery import FailureInjector
from repro.kvstore.api import PartConsumer, TableSpec
from repro.kvstore.partitioned import PartitionedKVStore
from repro.runtime import (
    ProcessRuntime,
    RetryPolicy,
    RuntimeClosedError,
    TaskTimeoutError,
    WorkerLostError,
    stats_delta,
)
from repro.runtime.process import child_upcall_async
from repro.runtime.shipping import (
    CONSUMER_SHIP_ATTR,
    ShippingError,
    ensure_picklable,
    is_shippable,
    shippable,
)


@shippable
def _remote_pid() -> int:
    return os.getpid()


@shippable
def _add(a, b):
    return a + b


@shippable
def _boom():
    raise ValueError("kaboom")


@shippable
def _suicide():
    os.kill(os.getpid(), signal.SIGKILL)


@shippable
def _sleep(seconds):
    time.sleep(seconds)
    return seconds


@shippable
def _exit_now():
    os._exit(1)


@shippable
def _upcall_exit(lane):
    """From a worker, upcall an op that kills *lane*'s worker; the wait
    is bounded so a lost ack cannot pin the worker past the test."""
    payload = pickle.dumps((_exit_now, ()))
    return child_upcall_async(lane, False, payload).result(timeout=60)


class _PidConsumer(PartConsumer):
    """Shippable consumer: reports the pid each part ran in."""

    _ripple_shippable_ = True

    def process_part(self, part_index, view):
        return [(part_index, os.getpid(), len(view))]

    def combine(self, a, b):
        return a + b


@pytest.fixture
def runtime():
    instance = ProcessRuntime(4, name="t")
    yield instance
    instance.close()


@pytest.fixture
def store():
    instance = PartitionedKVStore(n_partitions=4, runtime="process")
    yield instance
    instance.close()


class TestShipping:
    def test_shippable_tasks_run_in_worker_processes(self, runtime):
        parent = os.getpid()
        short = runtime.submit(0, _remote_pid).result(timeout=30)
        long = runtime.submit_long(1, _remote_pid).result(timeout=30)
        assert short != parent
        assert long != parent
        assert short != long  # distinct worker processes

    def test_unmarked_callables_fall_back_to_parent(self, runtime):
        assert not is_shippable(lambda: None)
        assert runtime.submit(0, lambda: os.getpid()).result(timeout=30) == os.getpid()

    def test_remote_exceptions_propagate(self, runtime):
        with pytest.raises(ValueError, match="kaboom"):
            runtime.submit(2, _boom).result(timeout=30)
        # the worker survives the failure
        assert runtime.submit(2, _add, 1, 2).result(timeout=30) == 3

    def test_results_are_copies(self, runtime):
        value = {"list": [1, 2]}
        out = runtime.submit(0, _add, [], [value]).result(timeout=30)
        out[0]["list"].append(3)
        assert value["list"] == [1, 2]


class TestPicklabilityPreflight:
    def test_unpicklable_argument_named_in_error(self, runtime):
        with pytest.raises(ShippingError) as info:
            runtime.submit(0, _add, 1, lambda: None)
        message = str(info.value)
        assert "argument 1" in message
        assert "_add" in message

    def test_ensure_picklable_names_the_object(self):
        with pytest.raises(ShippingError) as info:
            ensure_picklable(lambda: None, "the compute")
        message = str(info.value)
        assert "the compute" in message
        assert "cannot be shipped" in message

    def test_ensure_picklable_passes_plain_data(self):
        assert ensure_picklable({"k": [1, 2]}, "data")


class TestStats:
    def test_stats_label_backend_and_pids(self, runtime):
        runtime.submit(0, _remote_pid).result(timeout=30)
        stats = runtime.stats()
        assert stats["runtime"] == "process"
        assert 0 in stats["pids"]
        assert stats["pids"][0] != os.getpid()
        started = [w for w in stats["workers"] if "pid" in w]
        assert started and started[0]["pid"] == stats["pids"][0]

    def test_stats_delta_preserves_pid_map(self, runtime):
        before = runtime.stats()
        runtime.submit(1, _add, 1, 1).result(timeout=30)
        delta = stats_delta(before, runtime.stats())
        assert delta["tasks"] == 1
        assert 1 in delta["pids"]

    def test_job_worker_stats_carry_pids(self, store):
        from repro.ebsp.loaders import MessageListLoader

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from tests.ebsp.jobs import TestJob
        from repro.ebsp.runner import run_job

        def fn(ctx):
            ctx.write_state(0, ctx.key)
            return False

        job = TestJob(
            fn,
            state_tables=["s"],
            loaders=[MessageListLoader([(i, i) for i in range(8)])],
        )
        result = run_job(store, job, synchronize=True)
        assert result.worker_stats["runtime"] == "process"
        assert result.worker_stats["pids"]


class TestPartResidency:
    def test_parts_live_in_owner_processes(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=4))
        table.put_many((i, i * i) for i in range(32))
        owners = table.enumerate_parts(_PidConsumer())
        assert sum(n for _, _, n in owners) == 32
        pids = {pid for _, pid, _ in owners}
        assert os.getpid() not in pids
        assert len(pids) == 4  # one resident process per part here

    def test_cross_part_point_ops(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=4))
        for i in range(16):
            table.put(i, {"v": i})
        assert table.get(7) == {"v": 7}
        assert table.delete(7) is True
        assert table.get(7) is None
        assert table.size() == 15

    def test_remote_values_are_copies(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=2))
        table.put("k", {"list": [1, 2]})
        fetched = table.get("k")
        fetched["list"].append(3)
        assert table.get("k")["list"] == [1, 2]

    def test_drop_and_recreate_is_isolated(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=4))
        table.put_many((i, i) for i in range(10))
        store.drop_table("t")
        recreated = store.create_table(TableSpec(name="t", n_parts=4))
        assert recreated.size() == 0
        recreated.put(1, "fresh")
        assert recreated.get(1) == "fresh"

    def test_ubiquity_limit_enforced_remotely(self, store):
        from repro.errors import UbiquityViolationError

        table = store.create_table(
            TableSpec(name="u", ubiquitous=True, ubiquity_limit=2)
        )
        table.put(1, "a")
        table.put(2, "b")
        with pytest.raises(UbiquityViolationError):
            table.put(3, "c")


class TestLifecycle:
    def test_close_is_idempotent_and_final(self):
        runtime = ProcessRuntime(2, name="t")
        runtime.submit(0, _remote_pid).result(timeout=30)
        runtime.close()
        runtime.close()
        assert runtime.closed
        with pytest.raises(RuntimeClosedError):
            runtime.submit(0, _remote_pid)

    def test_close_reaps_worker_processes(self):
        runtime = ProcessRuntime(2, name="t")
        pids = [
            runtime.submit(w, _remote_pid).result(timeout=30) for w in range(2)
        ]
        runtime.close()
        for pid in pids:
            assert not _pid_alive(pid)

    def test_orphaned_children_exit_when_parent_dies(self, tmp_path):
        """A crashed parent must not leak worker processes: children
        watch the parent (pipe EOF + ppid) and exit on their own."""
        script = textwrap.dedent(
            """
            import os, sys
            from repro.runtime import ProcessRuntime, shippable

            @shippable
            def pid():
                return os.getpid()

            rt = ProcessRuntime(2, name="orphan")
            pids = [rt.submit(w, pid).result(timeout=30) for w in range(2)]
            print(" ".join(str(p) for p in pids), flush=True)
            os._exit(1)  # crash without close(): children are orphaned
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        pids = [int(p) for p in out.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if not any(_pid_alive(p) for p in pids):
                return
            time.sleep(0.25)
        leaked = [p for p in pids if _pid_alive(p)]
        pytest.fail(f"orphaned worker processes still alive: {leaked}")


class TestCrashTolerance:
    """Real-crash behaviour under a retry policy: SIGKILL, deadlines,
    respawn accounting, degradation, and leak-free teardown."""

    def test_sigkill_mid_task_respawns_worker(self):
        runtime = ProcessRuntime(
            2, name="ct", retry_policy=RetryPolicy(max_respawns=2)
        )
        try:
            first = runtime.submit(0, _remote_pid).result(timeout=30)
            with pytest.raises(WorkerLostError) as info:
                runtime.submit(0, _suicide).result(timeout=30)
            message = str(info.value)
            assert str(first) in message  # names the dead pid
            assert "respawn" in message  # and what happens next
            # the respawned worker serves fresh tasks under a new pid
            second = runtime.submit(0, _remote_pid).result(timeout=30)
            assert second != first
            assert runtime.stats()["respawns"] >= 1
            assert not runtime.is_degraded(0)
        finally:
            runtime.close()

    def test_hang_past_deadline_is_killed_and_times_out(self):
        runtime = ProcessRuntime(
            2,
            name="ct",
            retry_policy=RetryPolicy(task_deadline=1.0, max_respawns=2),
        )
        try:
            with pytest.raises(TaskTimeoutError, match="deadline"):
                runtime.submit_long(1, _sleep, 30.0).result(timeout=60)
            assert runtime.stats()["worker_timeouts"] >= 1
            # a fresh child picks the lane back up well within the deadline
            assert runtime.submit(1, _add, 2, 3).result(timeout=30) == 5
        finally:
            runtime.close()

    def test_budget_exhaustion_degrades_to_parent(self):
        runtime = ProcessRuntime(
            2, name="ct", retry_policy=RetryPolicy(max_respawns=0)
        )
        try:
            child = runtime.submit(0, _remote_pid).result(timeout=30)
            assert child != os.getpid()
            with pytest.raises(WorkerLostError, match="degrad"):
                runtime.submit(0, _suicide).result(timeout=30)
            deadline = time.monotonic() + 15
            while not runtime.is_degraded(0):
                assert time.monotonic() < deadline, "degradation never landed"
                time.sleep(0.05)
            assert 0 in runtime.stats()["degraded"]
            # shippable work on the degraded lane now runs in the parent
            assert runtime.submit(0, _remote_pid).result(timeout=30) == os.getpid()
            # the other worker is untouched
            assert runtime.submit(1, _remote_pid).result(timeout=30) != os.getpid()
        finally:
            runtime.close()

    def test_close_after_sigkill_leaves_no_zombies_or_threads(self):
        before = {t for t in threading.enumerate() if t.is_alive()}
        runtime = ProcessRuntime(
            2, name="reap", retry_policy=RetryPolicy(max_respawns=1)
        )
        pids = [runtime.submit(w, _remote_pid).result(timeout=30) for w in range(2)]
        with pytest.raises(WorkerLostError):
            runtime.submit(0, _suicide).result(timeout=30)
        pids.append(runtime.submit(0, _remote_pid).result(timeout=30))
        runtime.close()
        for pid in set(pids):
            assert not _pid_alive(pid), f"worker {pid} survived close()"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = [
                t
                for t in threading.enumerate()
                if t.is_alive() and t not in before and "reap" in t.name
            ]
            if not leaked:
                break
            time.sleep(0.1)
        assert not leaked, f"leaked runtime threads: {[t.name for t in leaked]}"


class TestUpcallDestinationLoss:
    """An upcall forwarded to a worker that dies before answering is
    answered by the parent with :class:`WorkerLostError`."""

    @pytest.mark.parametrize("policy", [None, RetryPolicy(max_respawns=2)])
    def test_upcall_to_a_dying_worker_resolves(self, policy):
        runtime = ProcessRuntime(2, name="up", retry_policy=policy)
        try:
            future = runtime.submit(0, _upcall_exit, 1)
            with pytest.raises(WorkerLostError, match="upcall destination worker 1"):
                future.result(timeout=20)
        finally:
            runtime.close()

    def test_pagerank_survives_a_kill_without_a_task_deadline(self):
        """A part-step killed mid-superstep takes the upcalls other
        part-steps sent it; they fail, are retried, and the ranks match
        a threaded run byte for byte."""
        adjacency = {v: [(v + 1) % 200, (v * 7 + 3) % 200] for v in range(200)}

        def ranks(runtime, **options):
            with PartitionedKVStore(
                n_partitions=4, runtime=runtime, crash_tolerance=runtime != "threaded"
            ) as store:
                n = build_pagerank_table(store, "graph", adjacency, n_parts=4)
                result = pagerank_batch(
                    store, "graph", n, PageRankConfig(iterations=4), **options
                )
                return result, pickle.dumps(sorted(read_rank_table(store, "graph_ranks").items()))

        _, threaded = ranks("threaded")
        injector = FailureInjector()
        injector.schedule_kill(part=1, step=2)
        outcome = {}

        def crash_run():
            runtime = ProcessRuntime(4, retry_policy=RetryPolicy(max_respawns=3))
            outcome["result"], outcome["ranks"] = ranks(
                runtime, fault_tolerance=True, failure_injector=injector
            )

        thread = threading.Thread(target=crash_run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "the job hung on an unanswered upcall"
        assert injector.claimed("kill") == 1
        assert outcome["result"].part_step_retries >= 1
        assert outcome["ranks"] == threaded


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # the pid exists, but it may be a zombie already reaped by init
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split()[2] != "Z"
    except OSError:
        return False
