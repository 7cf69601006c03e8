"""TableScanLoader's batched enable path against the per-key one.

With no ``fn`` the loader enables each part with one ``enable_many``
call, which the sync engine turns into a single int64 continue column
when every key is exactly ``int``.  Every other key type must keep its
identity, so the enabled set — and what the job computes from it — is
the same as enabling key by key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ebsp.engine import _LoaderCtx
from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import TableScanLoader
from repro.ebsp.runner import run_job
from repro.kvstore.api import TableSpec
from repro.kvstore.partitioned import PartitionedKVStore

KEY_SETS = {
    "int": list(range(40)),
    "bool": [True, False],
    "numpy": [np.int64(i) for i in range(12)],
    "big_int": [2**70 + i for i in range(4)] + [1, 2, 3],
    "tuple": [(i, i + 1) for i in range(12)],
}


def _enable_each(ctx, key, value):
    ctx.enable(key)


class _RecordKeyType(Compute):
    def compute(self, ctx: ComputeContext) -> bool:
        ctx.write_state(1, (type(ctx.key).__name__, ctx.read_state(0)))
        return False


class _ScanJob(Job):
    def __init__(self, store, src: str, seen: str, per_key: bool):
        self._store = store
        self._src = src
        self._seen = seen
        self._per_key = per_key

    def state_table_names(self):
        return [self._src, self._seen]

    def reference_table(self):
        return self._src

    def get_compute(self) -> Compute:
        return _RecordKeyType()

    def loaders(self):
        fn = _enable_each if self._per_key else None
        return [TableScanLoader(self._store.get_table(self._src), fn)]


@pytest.fixture(scope="module", params=["inline", "threaded", "process"])
def store(request):
    instance = PartitionedKVStore(n_partitions=3, runtime=request.param)
    yield instance
    instance.close()


@pytest.mark.parametrize("kind", sorted(KEY_SETS))
def test_batched_enable_matches_per_key(store, kind):
    keys = KEY_SETS[kind]
    src = f"scan_src_{kind}"
    store.create_table(TableSpec(name=src))
    store.get_table(src).put_many((key, repr(key)) for key in keys)
    outcomes = []
    for per_key in (True, False):
        seen = f"scan_seen_{kind}_{per_key}"
        result = run_job(store, _ScanJob(store, src, seen, per_key), synchronize=True)
        pairs = sorted(
            (repr(key), type(key).__name__, state)
            for key, state in store.get_table(seen).items()
        )
        outcomes.append((result.steps, result.compute_invocations, pairs))
        store.drop_table(seen)
    store.drop_table(src)
    per_key_outcome, batched_outcome = outcomes
    assert batched_outcome == per_key_outcome
    steps, invocations, pairs = batched_outcome
    assert invocations == len(keys)
    assert sorted(repr(key) for key in keys) == [p[0] for p in pairs]
    # the compute saw each key with its original type
    assert {p[2][0] for p in pairs} == {type(key).__name__ for key in keys}


class _RecordingWriter:
    def __init__(self):
        self.columns = []
        self.records = []

    def add_continue_batch(self, keys):
        self.columns.append(keys)

    def add(self, record):
        self.records.append(record)


@pytest.mark.parametrize(
    "kind, columnar", [(kind, kind == "int") for kind in sorted(KEY_SETS)]
)
def test_int64_column_only_for_exact_ints(kind, columnar):
    ctx = _LoaderCtx.__new__(_LoaderCtx)
    ctx.writer = _RecordingWriter()
    keys = KEY_SETS[kind]
    ctx.enable_many(keys)
    if columnar:
        assert len(ctx.writer.columns) == 1 and not ctx.writer.records
        assert ctx.writer.columns[0].dtype == np.int64
        assert ctx.writer.columns[0].tolist() == keys
    else:
        assert not ctx.writer.columns
        assert [record[1] for record in ctx.writer.records] == keys
