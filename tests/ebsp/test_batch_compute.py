"""The columnar data plane: batch compute vs the per-key path.

One job implements both faces over identical integer math, so the
engine's ``batch_compute`` flag must not change any observable — final
state, aggregates, invocation and message counts — on any runtime
(inline, threaded, process).  Classes are module-level so the job can
ship to worker processes.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np
import pytest

from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.job import BatchComputeContext, Compute, ComputeContext, Job
from repro.ebsp.loaders import Loader
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import run_job
from repro.ebsp.transport import (
    MessageBatch,
    SpillWriter,
    StepColumns,
    collect_step_columns,
    create_transport_table,
    group_step_columns,
)
from repro.errors import PropertyViolationError
from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob

N = 96
STEPS = 3
FANOUT = 3
RUNTIMES = ["inline", "threaded", "process"]


class DualFaceCompute(Compute):
    """Integer fan-out/fold with a per-key face and a columnar face.

    Integer arithmetic is exact under any fold order, so both faces
    must produce identical state, aggregates, and messages.
    """

    def __init__(self, n: int):
        self._n = n

    def compute(self, ctx: ComputeContext) -> bool:
        total = 0
        for message in ctx.input_messages():
            total += int(message)
        prev = ctx.read_state(0) or 0
        ctx.write_state(0, int(prev + total))
        ctx.aggregate_value("mass", total)
        if ctx.step_num >= STEPS:
            return False
        for hop in range(1, FANOUT + 1):
            target = (int(ctx.key) * 5 + hop * 11) % self._n
            ctx.output_message(target, np.int64(total + hop))
        return True

    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        batch = ctx.messages
        keys = ctx.keys
        n = len(keys)
        totals = np.zeros(n, dtype=np.int64)
        payloads = batch.payload_array()
        if payloads is None:
            for i, messages in enumerate(batch):
                totals[i] = sum(int(m) for m in messages)
        elif len(payloads):
            nonzero = batch.counts > 0
            totals[nonzero] = np.add.reduceat(
                payloads.astype(np.int64), batch.offsets[:-1][nonzero]
            )
        prev = ctx.read_states(0)
        ctx.write_states(
            0,
            [
                int((0 if p is None else p) + t)
                for p, t in zip(prev, totals.tolist())
            ],
        )
        ctx.aggregate_values("mass", totals)
        if ctx.step_num >= STEPS:
            return False
        key_list = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        keys64 = np.asarray([int(k) for k in key_list], dtype=np.int64)
        for hop in range(1, FANOUT + 1):
            ctx.send_messages((keys64 * 5 + hop * 11) % self._n, totals + hop)
        return True


class SeedLoader(Loader):
    def __init__(self, n: int):
        self._n = n

    def load(self, ctx) -> None:
        for key in range(self._n):
            ctx.put_state(0, key, 0)
            ctx.send_message(key, np.int64(key % 13))


class DualFaceJob(Job):
    def __init__(self, n: int):
        self._n = n

    def state_table_names(self) -> List[str]:
        return ["dual_state"]

    def get_compute(self) -> Compute:
        return DualFaceCompute(self._n)

    def aggregators(self) -> Dict[str, Any]:
        return {"mass": SumAggregator(0)}

    def loaders(self) -> List[Loader]:
        return [SeedLoader(self._n)]


def _run(runtime: str, batch_compute):
    with PartitionedKVStore(n_partitions=4, runtime=runtime) as store:
        result = run_job(
            store, DualFaceJob(N), synchronize=True, batch_compute=batch_compute
        )
        state = sorted(store.get_table("dual_state").items())
    return result, state


class TestParityAcrossRuntimes:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_batch_matches_perkey(self, runtime):
        perkey, perkey_state = _run(runtime, batch_compute=False)
        batch, batch_state = _run(runtime, batch_compute=True)
        assert batch_state == perkey_state
        assert batch.steps == perkey.steps
        assert dict(batch.aggregates) == dict(perkey.aggregates)
        for counter in ("compute_invocations", "messages_sent"):
            assert batch.counters[counter] == perkey.counters[counter], counter
        assert batch.counters.get("batch_fallbacks", 0) == 0

    def test_batch_identical_across_runtimes(self):
        baseline, baseline_state = _run("inline", batch_compute=True)
        for runtime in RUNTIMES[1:]:
            result, state = _run(runtime, batch_compute=True)
            assert state == baseline_state, runtime
            assert dict(result.aggregates) == dict(baseline.aggregates)


class MixedKeyCompute(Compute):
    """Batch-capable compute whose keys are not mutually orderable."""

    def compute(self, ctx: ComputeContext) -> bool:
        ctx.write_state(0, sum(int(m) for m in ctx.input_messages()))
        return False

    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        totals = [sum(int(m) for m in msgs) for msgs in ctx.messages]
        ctx.write_states(0, totals)
        return False


class MixedKeyLoader(Loader):
    def load(self, ctx) -> None:
        for key in (1, "a", 2, "b"):
            ctx.send_message(key, np.int64(7))


class MixedKeyJob(Job):
    def state_table_names(self) -> List[str]:
        return ["mixed_state"]

    def get_compute(self) -> Compute:
        return MixedKeyCompute()

    def loaders(self) -> List[Loader]:
        return [MixedKeyLoader()]


class TestFallback:
    def test_unorderable_keys_fall_back_per_key(self):
        # one part forces int and str keys into the same grouping sort
        with PartitionedKVStore(n_partitions=1) as store:
            result = run_job(store, MixedKeyJob(), synchronize=True)
            state = dict(store.get_table("mixed_state").items())
        assert result.counters["batch_fallbacks"] == 1
        assert state == {1: 7, "a": 7, 2: 7, "b": 7}

    def test_batch_compute_true_requires_override(self):
        # the columnar shape needs a compute_batch override: without one
        # batch_compute=True (the default) leaves the job per-key
        with PartitionedKVStore(n_partitions=2) as store:
            result = run_job(
                store,
                TestJob(lambda ctx: False),
                synchronize=True,
                batch_compute=True,
            )
        assert result.plan["shape"] == "per-key"


class OneMsgViolatingCompute(Compute):
    def compute(self, ctx: ComputeContext) -> bool:
        return False

    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        return None


class DoubleSendLoader(Loader):
    def load(self, ctx) -> None:
        ctx.send_message(3, np.int64(1))
        ctx.send_message(3, np.int64(2))


class OneMsgJob(Job):
    def state_table_names(self) -> List[str]:
        return ["one_msg_state"]

    def get_compute(self) -> Compute:
        return OneMsgViolatingCompute()

    def loaders(self) -> List[Loader]:
        return [DoubleSendLoader()]

    def properties(self) -> JobProperties:
        # one-msg without no-continue keeps the collect (and thus batch)
        # path; the declaration is a lie the engine must catch
        return JobProperties(one_msg=True)


def test_batch_path_enforces_one_msg():
    with PartitionedKVStore(n_partitions=2) as store:
        with pytest.raises(PropertyViolationError, match="one-msg"):
            run_job(store, OneMsgJob(), synchronize=True)


class TestMessageBatch:
    def _batch(self) -> MessageBatch:
        return MessageBatch(
            np.arange(6, dtype=np.float64),
            np.asarray([0, 2, 2, 5, 6], dtype=np.int64),
        )

    def test_len_counts_and_getitem(self):
        batch = self._batch()
        assert len(batch) == 4
        assert batch.counts.tolist() == [2, 0, 3, 1]
        assert batch[0] == [0.0, 1.0]
        assert batch[1] == []
        assert batch[2] == [2.0, 3.0, 4.0]
        assert [m for m in batch] == [batch[i] for i in range(4)]

    def test_group_index_aligns_payloads(self):
        batch = self._batch()
        assert batch.group_index().tolist() == [0, 0, 2, 2, 2, 3]

    def test_slice(self):
        piece = self._batch().slice(1, 3)
        assert len(piece) == 2
        assert piece[0] == []
        assert piece[1] == [2.0, 3.0, 4.0]

    def test_payload_array_only_when_typed(self):
        assert self._batch().payload_array() is not None
        ragged = np.empty(2, dtype=object)
        ragged[:] = [(1, 2), (3,)]
        assert MessageBatch(ragged, np.asarray([0, 1, 2])).payload_array() is None


class TestGroupStepColumns:
    def test_groups_ascending_with_cont_only_keys(self):
        cols = StepColumns()
        cols.msg_key_chunks.append(np.asarray([5, 3, 5], dtype=np.int64))
        cols.msg_payload_chunks.append(np.asarray([1.0, 2.0, 3.0]))
        cols.cont_key_chunks.append(np.asarray([9, 3], dtype=np.int64))
        keys, batch = group_step_columns(cols)
        assert keys.tolist() == [3, 5, 9]
        assert batch.counts.tolist() == [1, 2, 0]
        assert batch[0] == [2.0]
        assert batch[1] == [1.0, 3.0]  # arrival order within destination

    def test_cont_only_step_keeps_typed_keys(self):
        """A step with continues and no messages (the first step after a
        batched loader) must not degrade its int64 keys to object."""
        cols = StepColumns()
        cols.cont_key_chunks.append(np.asarray([4, 1, 7], dtype=np.int64))
        cols.cont_key_chunks.append(np.empty(0, dtype=object))
        keys, batch = group_step_columns(cols)
        assert keys.dtype == np.int64
        assert keys.tolist() == [1, 4, 7]
        assert batch.counts.tolist() == [0, 0, 0]

    def test_empty(self):
        keys, batch = group_step_columns(StepColumns())
        assert len(keys) == 0
        assert len(batch) == 0

    def test_unorderable_keys_raise(self):
        cols = StepColumns()
        cols.cont_key_chunks.append(np.asarray([1, "a"], dtype=object))
        with pytest.raises(TypeError):
            group_step_columns(cols)


class TestBatchSpillRoundtrip:
    def test_columns_roundtrip_through_transport(self):
        with LocalKVStore(default_n_parts=2) as store:
            transport = create_transport_table(store, "xport", 2)
            ref = store.create_table(TableSpec(name="ref", n_parts=2))
            writer = SpillWriter(
                transport,
                src_part=0,
                step=0,
                n_parts=2,
                part_of=ref.part_of,
                part_of_many=ref.part_of_many,
            )
            keys = np.arange(10, dtype=np.int64)
            writer.add_message_batch(keys, keys.astype(np.float64) * 0.5)
            writer.add_continue_batch(np.asarray([1, 4], dtype=np.int64))
            writer.flush_all()
            assert writer.messages_added == 10
            assert writer.continues_added == 2

            seen: Dict[int, list] = {}
            conts: list = []
            for part in range(2):
                view = transport._parts[part]
                cols = collect_step_columns(view, 0)
                group_keys, batch = group_step_columns(cols)
                for i, key in enumerate(group_keys.tolist()):
                    if batch.counts[i]:
                        seen[key] = batch[i]
                    else:
                        conts.append(key)
            assert sorted(seen) == list(range(10))
            assert all(seen[k] == [k * 0.5] for k in seen)
            assert conts == []  # 1 and 4 also got messages, so they group


class SubsetCompute(Compute):
    """Reads table 1 and writes table 0 for the odd keys only."""

    def compute(self, ctx: ComputeContext) -> bool:
        if ctx.key % 2:
            ctx.write_state(0, (ctx.read_state(1) or 0) + ctx.key)
        return False

    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        keys = ctx.keys
        odd = keys[keys % 2 == 1]
        prev = ctx.read_states(1, keys=odd)
        ctx.write_states(
            0, [(p or 0) + k for p, k in zip(prev, odd.tolist())], keys=odd
        )
        return False


class SubsetLoader(Loader):
    def load(self, ctx) -> None:
        for key in range(N):
            if key % 3 == 0:
                ctx.put_state(1, key, key * 10)
            ctx.send_message(key, np.int64(1))


class SubsetJob(Job):
    def state_table_names(self) -> List[str]:
        return ["subset_out", "subset_in"]

    def get_compute(self) -> Compute:
        return SubsetCompute()

    def loaders(self) -> List[Loader]:
        return [SubsetLoader()]


class BadSubsetCompute(SubsetCompute):
    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        ctx.write_states(0, [1, 2], keys=ctx.keys[:1])
        return False


class BadSubsetJob(SubsetJob):
    def get_compute(self) -> Compute:
        return BadSubsetCompute()


class TestKeySubsets:
    """``read_states`` / ``write_states`` restricted to part of a batch."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_subset_reads_and_writes_match_perkey(self, runtime):
        expected = {k: k + (10 * k if k % 3 == 0 else 0) for k in range(1, N, 2)}
        for batch_compute in (False, True):
            with PartitionedKVStore(n_partitions=4, runtime=runtime) as store:
                run_job(store, SubsetJob(), synchronize=True, batch_compute=batch_compute)
                assert dict(store.get_table("subset_out").items()) == expected

    def test_misaligned_subset_column_is_refused(self):
        with PartitionedKVStore(n_partitions=2, runtime="inline") as store:
            with pytest.raises(Exception, match="2 entries for 1 keys"):
                run_job(store, BadSubsetJob(), synchronize=True, batch_compute=True)
