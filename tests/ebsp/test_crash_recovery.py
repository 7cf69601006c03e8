"""Real crash tolerance: SIGKILLed workers, deadlines, checkpoint/resume.

``test_engine_recovery.py`` pins the §IV-A recovery outline against
*simulated* failures (an exception standing in for a crash).  This file
pins the real thing: worker processes killed mid-part-step, hangs cut
off by task deadlines, and a driver death survived through superstep
checkpoints.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_direct,
    read_ranks,
)
from repro.ebsp.checkpoint import CheckpointManager
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.recovery import FailureInjector
from repro.ebsp.runner import run_job
from repro.errors import ComputeError, JobSpecError, RecoveryError
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.kvstore.persistent import PersistentKVStore
from repro.runtime import ProcessRuntime, RetryPolicy

from tests.ebsp.jobs import TestJob

N_VERTICES = 120
N_PARTS = 4


def _adjacency():
    rng = np.random.default_rng(11)
    return {
        v: rng.integers(0, N_VERTICES, size=int(rng.integers(0, 6)))
        for v in range(N_VERTICES)
    }


def _pagerank(injector=None, deadline=None):
    runtime = ProcessRuntime(
        N_PARTS, retry_policy=RetryPolicy(task_deadline=deadline, max_respawns=6)
    )
    with PartitionedKVStore(
        n_partitions=N_PARTS, runtime=runtime, crash_tolerance=True
    ) as store:
        n = build_pagerank_table(store, "graph", _adjacency(), n_parts=N_PARTS)
        kwargs = {"fault_tolerance": True}
        if injector is not None:
            kwargs["failure_injector"] = injector
        result = pagerank_direct(
            store, "graph", n, PageRankConfig(iterations=4), **kwargs
        )
        ranks = read_ranks(store, "graph")
    return result, pickle.dumps(sorted(ranks.items()))


class TestRealCrashRecovery:
    def test_sigkills_and_hang_yield_byte_identical_ranks(self, tmp_path):
        """Two real SIGKILLs plus one hang cut off by its deadline leave
        the final ranks byte-identical to a failure-free run."""
        _, clean_blob = _pagerank()

        injector = FailureInjector()
        injector.schedule_kill(part=1, step=1)
        injector.schedule_kill(part=2, step=2)
        injector.schedule_hang(part=3, step=3, seconds=20.0)
        result, chaos_blob = _pagerank(injector=injector, deadline=3.0)

        assert injector.claimed("kill") == 2
        assert injector.claimed("hang") == 1
        assert chaos_blob == clean_blob
        assert result.worker_respawns >= 2
        assert result.part_step_retries >= 1
        assert result.worker_timeouts >= 1


def _chain_job(length, seen_steps=None, crash_at=None, crash_flag=None):
    """Key 0 forwards a counter to itself for *length* steps; optionally
    dies (a stand-in for the driver crashing) the first time *crash_at*
    is reached."""

    def fn(ctx):
        if seen_steps is not None:
            seen_steps.append(ctx.step_num)
        if crash_at is not None and ctx.step_num == crash_at and not crash_flag["hit"]:
            crash_flag["hit"] = True
            raise RuntimeError("driver died")
        for value in ctx.input_messages():
            ctx.write_state(0, value)
            if value < length:
                ctx.output_message(ctx.key, value + 1)
        return False

    return TestJob(fn, loaders=[MessageListLoader([(0, 1)])])


class TestCheckpointResume:
    def test_resume_skips_completed_steps(self, tmp_path):
        store = LocalKVStore(default_n_parts=4)
        flag = {"hit": False}
        with pytest.raises(ComputeError, match="driver died"):
            run_job(
                store,
                _chain_job(8, crash_at=4, crash_flag=flag),
                fault_tolerance=True,
                checkpoint_interval=2,
                checkpoint_dir=str(tmp_path),
            )
        assert flag["hit"]
        store.close()

        # a fresh store and engine stand in for the restarted driver
        resumed = LocalKVStore(default_n_parts=4)
        seen = []
        result = run_job(
            resumed,
            _chain_job(8, seen_steps=seen),
            fault_tolerance=True,
            checkpoint_interval=2,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        # checkpoints landed after steps 1 and 3; the crash hit step 4,
        # so the resumed run starts at step 4 and never re-runs 0–3
        assert result.resumed_from_step == 4
        assert seen and min(seen) == 4
        assert resumed.get_table("state").get(0) == 8
        resumed.close()

    def test_checkpoints_cleared_after_completion(self, tmp_path):
        store = LocalKVStore(default_n_parts=4)
        result = run_job(
            store,
            _chain_job(6),
            fault_tolerance=True,
            checkpoint_interval=2,
            checkpoint_dir=str(tmp_path),
        )
        assert result.checkpoints_written >= 1
        assert result.checkpoint_bytes > 0
        assert result.resumed_from_step == 0  # no resume happened
        manager = CheckpointManager(store, "TestJob", directory=str(tmp_path))
        assert manager.load() is None
        assert manager.last_step() is None
        store.close()

    def test_durable_store_checkpoints_without_directory(self, tmp_path):
        """On a durable store the payload rides a store table — no
        checkpoint directory needed, and resume survives close/reopen."""
        store = PersistentKVStore(str(tmp_path / "db"))
        flag = {"hit": False}
        with pytest.raises(ComputeError, match="driver died"):
            run_job(
                store,
                _chain_job(8, crash_at=4, crash_flag=flag),
                fault_tolerance=True,
                checkpoint_interval=2,
            )
        store.close()

        reopened = PersistentKVStore(str(tmp_path / "db"))
        seen = []
        result = run_job(
            reopened,
            _chain_job(8, seen_steps=seen),
            fault_tolerance=True,
            checkpoint_interval=2,
            resume=True,
        )
        assert result.resumed_from_step == 4
        assert min(seen) == 4
        assert reopened.get_table("state").get(0) == 8
        reopened.close()


class TestCheckpointSpec:
    def test_checkpointing_requires_fault_tolerance(self, tmp_path):
        store = LocalKVStore(default_n_parts=4)
        with pytest.raises(JobSpecError, match="fault_tolerance"):
            run_job(
                store,
                _chain_job(3),
                checkpoint_interval=2,
                checkpoint_dir=str(tmp_path),
            )
        store.close()

    def test_negative_interval_rejected(self, tmp_path):
        store = LocalKVStore(default_n_parts=4)
        with pytest.raises(JobSpecError, match="checkpoint_interval"):
            run_job(
                store,
                _chain_job(3),
                fault_tolerance=True,
                checkpoint_interval=-1,
                checkpoint_dir=str(tmp_path),
            )
        store.close()

    def test_non_durable_store_requires_directory(self):
        store = LocalKVStore(default_n_parts=4)
        with pytest.raises(JobSpecError, match="checkpoint_dir"):
            run_job(
                store,
                _chain_job(3),
                fault_tolerance=True,
                checkpoint_interval=2,
            )
        store.close()

    def test_resume_without_checkpoint_raises(self, tmp_path):
        store = LocalKVStore(default_n_parts=4)
        with pytest.raises(RecoveryError, match="no checkpoint"):
            run_job(
                store,
                _chain_job(3),
                fault_tolerance=True,
                checkpoint_dir=str(tmp_path),
                resume=True,
            )
        store.close()
