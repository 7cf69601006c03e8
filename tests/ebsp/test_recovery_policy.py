"""One recovery policy for every failed part-step, on every store.

Under ``fault_tolerance=True`` a part-step that raises a
:class:`SimulatedFailure` goes through the same driver-side loop as one
whose worker process died: count a retry, consult the progress table,
discard the failed attempt's spills, re-submit that part alone, and
give up with the last failure after ``MAX_RETRIES``.  The same
scenarios run on the local store, the partitioned store on its default
runtime, on worker processes, and on worker processes with crash
tolerance — where the job ships, so the failures happen in a worker —
and on the replicated and persistent stores.
Errors raised in a shipped part-step must survive the hop back.
"""

from __future__ import annotations

import gc
import os
import pickle

import pytest

from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.engine import MAX_RETRIES, SyncEngine
from repro.ebsp.exporters import Exporter
from repro.ebsp.job import Compute, Job
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.recovery import FailureInjector, SimulatedFailure
from repro.ebsp.runner import run_job
from repro.errors import (
    ComputeError,
    NoSuchTableError,
    QuotaExceededError,
    RecoveryError,
    ShardFailedError,
    TableExistsError,
    UnknownServiceJobError,
)
from repro.kvstore.api import Table
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.kvstore.persistent import PersistentKVStore
from repro.kvstore.replicated import ReplicatedKVStore
from repro.runtime import ProcessRuntime, RetryPolicy, WorkerLostError
from repro.util.hashing import part_for_key
from tests.ebsp.test_batch_compute import MixedKeyJob

KEYS = list(range(8))
LENGTH = 5
STATE = "chain_state"


class ChainCompute(Compute):
    """Each key forwards a counter to itself until it reaches *length*,
    writing state, emitting a direct output and aggregating every step:
    a lost or doubled part-step shows in all three."""

    def __init__(self, length: int, fail_with_value_error: bool = False):
        self._length = length
        self._fail = fail_with_value_error

    def compute(self, ctx) -> bool:
        for value in ctx.input_messages():
            if self._fail and ctx.step_num == 1:
                raise ValueError(f"bad value {value}")
            ctx.write_state(0, value)
            ctx.direct_job_output((ctx.step_num, ctx.key), value)
            ctx.aggregate_value("sum", value)
            if value < self._length:
                ctx.output_message(ctx.key, value + 1)
        return False


class ChainJob(Job):
    def __init__(self, exporter=None, fail_with_value_error: bool = False):
        self._exporter = exporter
        self._fail = fail_with_value_error

    def state_table_names(self):
        return [STATE]

    def get_compute(self):
        return ChainCompute(LENGTH, self._fail)

    def loaders(self):
        return [MessageListLoader([(key, 1) for key in KEYS])]

    def aggregators(self):
        return {"sum": SumAggregator()}

    def direct_output_exporter(self):
        return self._exporter


class ListExporter(Exporter):
    """Records every export call, so a duplicate is visible."""

    def __init__(self) -> None:
        self.calls: list = []

    def export(self, key, value) -> None:
        self.calls.append((key, value))


def _crash_tolerant_store():
    runtime = ProcessRuntime(2, retry_policy=RetryPolicy(max_respawns=4))
    return PartitionedKVStore(n_partitions=2, runtime=runtime, crash_tolerance=True)


STORES = {
    "local": lambda path: LocalKVStore(default_n_parts=4),
    "partitioned": lambda path: PartitionedKVStore(n_partitions=2),
    "process": lambda path: PartitionedKVStore(n_partitions=2, runtime="process"),
    "process-crash-tolerant": lambda path: _crash_tolerant_store(),
    "replicated": lambda path: ReplicatedKVStore(n_shards=2),
    "persistent": lambda path: PersistentKVStore(str(path), default_n_parts=2),
}


@pytest.fixture(scope="module", params=sorted(STORES))
def store(request, tmp_path_factory):
    instance = STORES[request.param](tmp_path_factory.mktemp("store"))
    yield instance
    instance.close()


def _busy_parts(store):
    """Two parts that hold keys (and so run a part-step every step)."""
    n_parts = store.default_n_parts
    return sorted({part_for_key(key, n_parts) for key in KEYS})[:2]


def _run(store, injector=None, exporter=None):
    exporter = exporter if exporter is not None else ListExporter()
    kwargs = {"fault_tolerance": True}
    if injector is not None:
        kwargs["failure_injector"] = injector
    result = run_job(store, ChainJob(exporter), synchronize=True, **kwargs)
    state = sorted(store.get_table(STATE).items())
    store.drop_table(STATE)
    return result, state, exporter


def _expected_outputs():
    return {(step, key): step + 1 for step in range(LENGTH) for key in KEYS}


class TestRecoveryMatrix:
    @pytest.fixture(autouse=True)
    def _fresh_state(self, store):
        yield
        if store.has_table(STATE):
            store.drop_table(STATE)

    def test_identical_to_clean_run(self, store):
        clean, clean_state, clean_out = _run(store)
        first, second = _busy_parts(store)
        injector = FailureInjector()
        injector.schedule(part=first, step=1, times=2)
        injector.schedule(part=second, step=3)
        result, state, exporter = _run(store, injector)
        assert state == clean_state == [(key, LENGTH) for key in KEYS]
        assert result.steps == clean.steps
        assert result.aggregates == clean.aggregates
        assert sorted(exporter.calls) == sorted(clean_out.calls)

    def test_no_duplicated_direct_output(self, store):
        first, second = _busy_parts(store)
        injector = FailureInjector()
        injector.schedule(part=first, step=2)
        injector.schedule(part=second, step=2)
        _, _, exporter = _run(store, injector)
        assert len(exporter.calls) == len(_expected_outputs())
        assert dict(exporter.calls) == _expected_outputs()

    def test_aggregates_not_double_counted(self, store):
        first, _ = _busy_parts(store)
        injector = FailureInjector()
        # the last step's partials are the ones the result reports
        injector.schedule(part=first, step=LENGTH - 1, times=3)
        result, _, _ = _run(store, injector)
        assert result.aggregates == {"sum": LENGTH * len(KEYS)}

    def test_retries_equal_injected_failures(self, store):
        first, second = _busy_parts(store)
        injector = FailureInjector()
        injector.schedule(part=first, step=0, times=2)
        injector.schedule(part=second, step=1)
        injector.schedule(part=first, step=4)
        result, _, _ = _run(store, injector)
        assert injector.failures_injected == 4
        assert result.counters["part_step_retries"] == 4

    def test_giving_up_raises_the_last_failure(self, store):
        first, _ = _busy_parts(store)
        injector = FailureInjector()
        injector.schedule(part=first, step=1, times=MAX_RETRIES + 1)
        with pytest.raises(SimulatedFailure) as raised:
            _run(store, injector)
        assert (raised.value.part, raised.value.step) == (first, 1)
        assert injector.failures_injected == MAX_RETRIES + 1


def test_kill_off_the_process_runtime_is_a_recovered_raise():
    """``schedule_kill`` on threads cannot kill the pid: it raises, and
    the one loop recovers it like any other failure."""
    with PartitionedKVStore(n_partitions=2, runtime="threaded") as store:
        clean, clean_state, _ = _run(store)
        first, _ = _busy_parts(store)
        injector = FailureInjector()
        injector.schedule_kill(part=first, step=2)
        result, state, exporter = _run(store, injector)
    assert injector.claimed("kill") == 1
    assert result.counters["part_step_retries"] == 1
    assert state == clean_state
    assert result.aggregates == clean.aggregates
    assert dict(exporter.calls) == _expected_outputs()


ONE_PART_STORES = {
    "local": lambda: LocalKVStore(default_n_parts=1),
    "inline": lambda: PartitionedKVStore(n_partitions=1, runtime="inline"),
    "threaded": lambda: PartitionedKVStore(n_partitions=1, runtime="threaded"),
    "process": lambda: PartitionedKVStore(n_partitions=1, runtime="process"),
}


def test_counters_do_not_depend_on_where_a_part_step_ran():
    """A failed attempt's counters die with it, in a worker process and
    in-process alike: the columnar fallback is counted once, by the
    attempt that committed."""
    counters = {}
    for name, make_store in ONE_PART_STORES.items():
        injector = FailureInjector()
        injector.schedule(0, 0)
        with make_store() as store:
            result = run_job(
                store,
                MixedKeyJob(),
                synchronize=True,
                fault_tolerance=True,
                failure_injector=injector,
            )
        # store_* counters are the back-end's own I/O deltas, not the job's
        counters[name] = {
            key: value
            for key, value in result.counters.items()
            if not key.startswith("store_")
        }
    assert counters["local"]["batch_fallbacks"] == 1
    assert counters["local"]["part_step_retries"] == 1
    for name, seen in counters.items():
        assert seen == counters["local"], name


def test_simulated_failure_discards_and_resubmits(monkeypatch):
    """A simulated failure takes the driver-side path: the failed
    attempt's spills are discarded and that part alone is re-submitted."""
    discarded: list = []
    submitted: list = []
    discard = SyncEngine._discard_failed_writes
    submit = Table.submit_part_steps

    def spy_discard(engine, part, step):
        discarded.append((part, step))
        return discard(engine, part, step)

    def spy_submit(table, consumer, parts=None):
        submitted.append(list(parts))
        return submit(table, consumer, parts)

    monkeypatch.setattr(SyncEngine, "_discard_failed_writes", spy_discard)
    monkeypatch.setattr(Table, "submit_part_steps", spy_submit)
    with LocalKVStore(default_n_parts=4) as store:
        first, _ = _busy_parts(store)
        injector = FailureInjector()
        injector.schedule(part=first, step=2)
        _run(store, injector)
    assert discarded == [(first, 2)]
    assert [first] in submitted
    assert len(submitted) == LENGTH + 1  # one per step, plus the re-submit


class TestInjectorLedger:
    def test_a_pickled_copy_shares_the_claims(self):
        """A re-driven shipped part-step is a fresh pickle of the
        parent's engine: what one copy claimed, no copy fires again."""
        injector = FailureInjector()
        injector.schedule(part=0, step=1)
        copy = pickle.loads(pickle.dumps(injector))
        with pytest.raises(SimulatedFailure):
            copy.check(0, 1)
        injector.check(0, 1)
        pickle.loads(pickle.dumps(injector)).check(0, 1)
        assert injector.failures_injected == copy.failures_injected == 1

    def test_only_the_parent_removes_the_ledger(self):
        injector = FailureInjector()
        injector.schedule_delay(part=0, step=0, seconds=0.0)
        ledger = injector._dir
        copy = pickle.loads(pickle.dumps(injector))
        del copy
        gc.collect()
        assert os.path.isdir(ledger)
        del injector
        gc.collect()
        assert not os.path.exists(ledger)


class TestErrorsCrossTheProcessHop:
    def test_compute_error_from_a_shipped_part_step(self):
        with PartitionedKVStore(n_partitions=2, runtime="process") as store:
            engine = SyncEngine(store, ChainJob(fail_with_value_error=True))
            assert engine._plan.shipped
            with pytest.raises(ComputeError) as raised:
                engine.run()
        assert raised.value.step == 1
        assert raised.value.key in KEYS
        assert isinstance(raised.value.cause, ValueError)

    @pytest.mark.parametrize(
        "error",
        [
            ComputeError("k", 3, ValueError("x")),
            TableExistsError("t"),
            NoSuchTableError("t"),
            ShardFailedError(2),
            QuotaExceededError("slow down", retry_after=2.5),
            UnknownServiceJobError("job-1"),
            RecoveryError("giving up"),
            WorkerLostError("worker 1 died"),
            SimulatedFailure(1, 4),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_pickle_round_trip(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        fields = {k: v for k, v in vars(error).items() if k != "cause"}
        assert {k: v for k, v in vars(copy).items() if k != "cause"} == fields
        if isinstance(error, ComputeError):
            assert repr(copy.cause) == repr(error.cause)
