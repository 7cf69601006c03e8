"""Column staging of a part-step's state writes.

``write_states`` and ``delete_states`` stage a whole column into the
part-step's write-back cache in one step, and the commit point sends
each dirtied table to the store as one ``put_many``.  Each case below
mixes column writes with reads, deletes, repeated keys, second writes
and creations in one part-step, on the columnar face and its per-key
twin: the final tables (per-part insertion order included) and the
``state_writeback_*`` counters must be identical, on every runtime.
Classes are module-level so the job can ship to worker processes.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np
import pytest

from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.job import BatchComputeContext, Compute, ComputeContext, Job
from repro.ebsp.loaders import Loader
from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore

from tests.kvstore.test_batch_conformance import part_items

N = 24
CASES = [
    "write_only",
    "repeat_keys",
    "write_read",
    "write_delete",
    "two_writes",
    "create_write",
]
RUNTIMES = ["inline", "threaded", "process"]


def _value(key: int, step: int) -> int:
    return key * 10 + step


class StagingCompute(Compute):
    """Two steps over keys ``0..N-1``; *case* picks the staging sequence."""

    def __init__(self, case: str):
        self._case = case

    def compute(self, ctx: ComputeContext) -> bool:
        key, step, case = int(ctx.key), ctx.step_num, self._case
        value = _value(key, step)
        ctx.write_state(0, value)
        if case == "write_read":
            ctx.write_state(1, ctx.read_state(0) + 1)
        elif case == "write_delete" and key % 3 == 0:
            ctx.delete_state(0)
        elif case == "two_writes" and key % 4 >= 2:
            ctx.write_state(0, value + 1000)
        elif case == "create_write" and step == 0:
            ctx.create_state(0, (key + 1) % N, -key)
            ctx.create_state(1, key + N, -key)
        ctx.aggregate_value("mass", value)
        return step == 0

    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        keys, step, case = ctx.keys, ctx.step_num, self._case
        values = [_value(key, step) for key in keys.tolist()]
        if case == "repeat_keys":
            # one column naming every key twice: the last value wins
            ctx.write_states(0, [-7] * len(keys) + values, keys=np.concatenate([keys, keys]))
        else:
            ctx.write_states(0, values)
        if case == "write_read":
            ctx.write_states(1, [state + 1 for state in ctx.read_states(0)])
        elif case == "write_delete":
            ctx.delete_states(0, keys[keys % 3 == 0])
        elif case == "two_writes":
            some = keys[keys % 4 >= 2]  # a strict subset on either part
            ctx.write_states(0, (some * 10 + step + 1000).tolist(), keys=some)
        elif case == "create_write" and step == 0:
            for key in keys.tolist():
                ctx.create_state(0, (key + 1) % N, -key)
                ctx.create_state(1, key + N, -key)
        ctx.aggregate_values("mass", np.asarray(values, dtype=np.int64))
        return step == 0


class StagingLoader(Loader):
    def load(self, ctx) -> None:
        for key in range(N):
            ctx.put_state(0, key, -1)
            ctx.send_message(key, key)


class StagingJob(Job):
    def __init__(self, case: str):
        self._case = case

    def state_table_names(self) -> List[str]:
        return ["staged_a", "staged_b"]

    def get_compute(self) -> Compute:
        return StagingCompute(self._case)

    def aggregators(self) -> Dict[str, Any]:
        return {"mass": SumAggregator(0)}

    def loaders(self) -> List[Loader]:
        return [StagingLoader()]


def _run(case: str, runtime: str, batch_compute: bool):
    with PartitionedKVStore(n_partitions=2, runtime=runtime) as store:
        result = run_job(
            store, StagingJob(case), synchronize=True, batch_compute=batch_compute
        )
        tables = [part_items(store.get_table(name)) for name in ("staged_a", "staged_b")]
    return result, tables


WRITEBACK = ("state_writeback_batches", "state_writeback_records")


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("case", CASES)
def test_column_staging_matches_the_per_key_face(case, runtime):
    per_key, per_key_tables = _run(case, runtime, batch_compute=False)
    batch, batch_tables = _run(case, runtime, batch_compute=True)
    assert batch_tables == per_key_tables
    for counter in WRITEBACK:
        assert batch.counters[counter] == per_key.counters[counter], counter
    assert dict(batch.aggregates) == dict(per_key.aggregates)
    assert batch.counters.get("batch_fallbacks", 0) == 0


def test_cases_write_what_they_say():
    """Guards the twin faces above against agreeing on a no-op."""
    _, (a, b) = _run("create_write", "inline", batch_compute=True)
    a, b = dict(sum(a, [])), dict(sum(b, []))
    assert a == {key: _value(key, 1) for key in range(N)}
    assert b == {key + N: -key for key in range(N)}
    _, (a, _) = _run("write_delete", "inline", batch_compute=True)
    assert dict(sum(a, [])) == {key: _value(key, 1) for key in range(N) if key % 3}
