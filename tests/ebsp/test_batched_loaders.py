"""Batched loader writes: ``put_state`` stages, each loader flushes once.

Both engines' loader contexts stage ``(key, state)`` per state table
and flush one ``put_many`` per table after each loader returns.  These
tests pin what that must preserve — last-writer-wins, cross-loader
visibility, per-record enables for non-int keys, and the final states
of the old per-key path — on the local store and on the partitioned
store under every worker runtime.
"""

from __future__ import annotations

import itertools

import pytest

from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import DictStateLoader, Loader, LoaderContext
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import run_job
from repro.ebsp.transport import SpillWriter
from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore

N = 60
_names = itertools.count()


@pytest.fixture(
    scope="module", params=["local", "inline", "threaded", "process"]
)
def store(request):
    if request.param == "local":
        instance = LocalKVStore(default_n_parts=4)
    else:
        instance = PartitionedKVStore(n_partitions=4, runtime=request.param)
    yield instance
    instance.close()


def _fresh(store, n_tables=1):
    """Pre-created state tables, so the test knows their class up front."""
    names = [f"batched_loader_{next(_names)}" for _ in range(n_tables)]
    for name in names:
        store.create_table(TableSpec(name=name, n_parts=4))
    return names


class _Touch(Compute):
    """Reads its state and stops: the job writes nothing after loading."""

    def compute(self, ctx: ComputeContext) -> bool:
        ctx.read_state(0)
        return False


class _Increment(Compute):
    def compute(self, ctx: ComputeContext) -> bool:
        ctx.write_state(0, ctx.read_state(0) + 1)
        return False


class _LoaderJob(Job):
    def __init__(self, tables, loaders, compute, properties=None):
        self._tables = tables
        self._loaders = loaders
        self._compute = compute
        self._properties = properties or JobProperties()

    def state_table_names(self):
        return list(self._tables)

    def get_compute(self) -> Compute:
        return self._compute

    def loaders(self):
        return list(self._loaders)

    def properties(self) -> JobProperties:
        return self._properties


#: One message per component, no continues, no aggregators: the plan
#: runs it on the AsyncEngine.
NO_SYNC = JobProperties(one_msg=True, no_continue=True, no_ss_order=True)


class _PerKeyLoader(Loader):
    """The pre-batching behaviour: one store ``put`` and one enable per key."""

    def __init__(self, table, mapping):
        self._table = table
        self._mapping = mapping

    def load(self, ctx: LoaderContext) -> None:
        for key, state in self._mapping.items():
            self._table.put(key, state)
            ctx.enable(key)


class _CopyLoader(Loader):
    """Reads table 0 (written by an earlier loader) into table 1."""

    def __init__(self, source, keys):
        self._source = source
        self._keys = keys

    def load(self, ctx: LoaderContext) -> None:
        for key in self._keys:
            ctx.put_state(1, key, self._source.get(key) + 1)


class _TwiceLoader(Loader):
    def __init__(self, keys):
        self._keys = keys

    def load(self, ctx: LoaderContext) -> None:
        for key in self._keys:
            ctx.put_state(0, key, -1)
        for key in self._keys:
            ctx.put_state(0, key, key)


@pytest.fixture
def spy(store, monkeypatch):
    """Counts ``put`` / ``put_many`` calls on the store's table class,
    per table name."""
    calls = {"put": {}, "put_many": {}}
    probe = _fresh(store)[0]
    table_class = type(store.get_table(probe))
    store.drop_table(probe)
    for op in calls:
        original = getattr(table_class, op)

        def counting(self, *args, _op=op, _original=original, **kwargs):
            counts = calls[_op]
            counts[self.name] = counts.get(self.name, 0) + 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(table_class, op, counting)
    return calls


def _contents(store, name):
    return dict(store.get_table(name).items())


@pytest.mark.parametrize("synchronize", [True, False], ids=["sync", "async"])
def test_dict_loader_puts_once_per_table(store, spy, synchronize):
    a, b = _fresh(store, 2)
    loaders = [
        DictStateLoader(0, {key: key * 10 for key in range(N)}, enable=True),
        DictStateLoader(1, {key: -key for key in range(N)}),
    ]
    properties = None if synchronize else NO_SYNC
    result = run_job(
        store, _LoaderJob([a, b], loaders, _Touch(), properties), synchronize=synchronize
    )
    assert result.synchronized is synchronize
    assert result.compute_invocations == N
    assert spy["put"].get(a, 0) == 0 and spy["put"].get(b, 0) == 0
    assert spy["put_many"].get(a) == 1 and spy["put_many"].get(b) == 1
    assert _contents(store, a) == {key: key * 10 for key in range(N)}
    assert _contents(store, b) == {key: -key for key in range(N)}


@pytest.mark.parametrize("synchronize", [True, False], ids=["sync", "async"])
def test_later_loader_wins(store, synchronize):
    (name,) = _fresh(store)
    loaders = [
        DictStateLoader(0, {key: "first" for key in range(N)}, enable=True),
        DictStateLoader(0, {key: "second" for key in range(0, N, 2)}),
        _TwiceLoader([1, 3]),
    ]
    properties = None if synchronize else NO_SYNC
    run_job(store, _LoaderJob([name], loaders, _Touch(), properties), synchronize=synchronize)
    expected = {key: "second" if key % 2 == 0 else "first" for key in range(N)}
    expected.update({1: 1, 3: 3})
    assert _contents(store, name) == expected


@pytest.mark.parametrize("synchronize", [True, False], ids=["sync", "async"])
def test_later_loader_reads_earlier_loaders_states(store, synchronize):
    a, b = _fresh(store, 2)
    keys = list(range(N))
    loaders = [
        DictStateLoader(0, {key: key * 10 for key in keys}, enable=True),
        _CopyLoader(store.get_table(a), keys),
    ]
    properties = None if synchronize else NO_SYNC
    run_job(store, _LoaderJob([a, b], loaders, _Touch(), properties), synchronize=synchronize)
    assert _contents(store, b) == {key: key * 10 + 1 for key in keys}


@pytest.mark.parametrize(
    "keys, columnar",
    [
        (list(range(N)), True),
        ([f"k{i}" for i in range(N)], False),
        ([(i, i + 1) for i in range(N)], False),
    ],
    ids=["int", "str", "tuple"],
)
def test_enable_many_columnar_only_for_ints(store, monkeypatch, keys, columnar):
    columns = []
    original = SpillWriter.add_continue_batch

    def recording(self, batch_keys):
        columns.append(len(batch_keys))
        return original(self, batch_keys)

    monkeypatch.setattr(SpillWriter, "add_continue_batch", recording)
    (name,) = _fresh(store)
    loaders = [DictStateLoader(0, {key: 0 for key in keys}, enable=True)]
    result = run_job(store, _LoaderJob([name], loaders, _Increment()), synchronize=True)
    # the loader's writer lives in this process; shipped part-steps
    # never reach the patched method, and this compute never continues
    assert columns == ([N] if columnar else [])
    assert result.compute_invocations == N
    assert _contents(store, name) == {key: 1 for key in keys}


def test_final_states_equal_per_key_path(store):
    mapping = {key: key * 3 for key in range(N)}
    outcomes = []
    for batched in (True, False):
        (name,) = _fresh(store)
        loader = (
            DictStateLoader(0, dict(mapping), enable=True)
            if batched
            else _PerKeyLoader(store.get_table(name), dict(mapping))
        )
        result = run_job(store, _LoaderJob([name], [loader], _Increment()), synchronize=True)
        outcomes.append((result.steps, result.compute_invocations, _contents(store, name)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == {key: key * 3 + 1 for key in range(N)}
