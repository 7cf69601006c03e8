"""IteratedMapReduce: chained couplets over one in-place table."""

from __future__ import annotations

import pytest

from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.mapreduce import (
    IteratedMapReduce,
    IterationDecision,
    Mapper,
    MapReduceSpec,
    Reducer,
)

N_KEYS = 12


class ShiftMapper(Mapper):
    """Each key keeps its value and passes a copy to its successor."""

    def map(self, key, value, emit):
        emit(key, value)
        emit((key + 1) % N_KEYS, value)


class SumReducer(Reducer):
    def reduce(self, key, values, emit):
        emit(key, sum(values))


def _couplet(iteration):
    return MapReduceSpec(ShiftMapper(), SumReducer())


def _plain_loop(values, iterations):
    """The couplet as a plain Python loop: new[k] = old[k] + old[k-1]."""
    for _ in range(iterations):
        values = {k: values[k] + values[(k - 1) % N_KEYS] for k in values}
    return values


@pytest.fixture(params=["local", "partitioned-inline", "partitioned-threaded"])
def store(request):
    if request.param == "local":
        instance = LocalKVStore(default_n_parts=4)
    else:
        runtime = request.param.split("-")[1]
        instance = PartitionedKVStore(n_partitions=4, runtime=runtime)
    initial = {k: k + 1 for k in range(N_KEYS)}
    instance.create_table(TableSpec(name="data", n_parts=4)).put_many(initial.items())
    yield instance, initial
    instance.close()


def test_fixed_couplet_runs_max_iterations(store):
    store, initial = store
    outcome = IteratedMapReduce(_couplet, "data", max_iterations=4).run(store)
    assert outcome.iterations == 4
    assert len(outcome.couplet_results) == 4
    assert dict(store.get_table("data").items()) == _plain_loop(initial, 4)


def test_stop_ends_the_run_at_that_iteration(store):
    store, initial = store
    seen = []

    def until(store, iteration, result):
        seen.append(iteration)
        return IterationDecision.STOP if iteration == 2 else IterationDecision.CONTINUE

    outcome = IteratedMapReduce(_couplet, "data", max_iterations=10, until=until).run(store)
    assert seen == [0, 1, 2]
    assert outcome.iterations == 3
    assert len(outcome.couplet_results) == 3
    assert dict(store.get_table("data").items()) == _plain_loop(initial, 3)


def test_total_barriers_sums_the_couplets(store):
    store, _ = store
    outcome = IteratedMapReduce(_couplet, "data", max_iterations=3).run(store)
    per_couplet = [result.barriers for result in outcome.couplet_results]
    # map→reduce and the inter-job barrier: two per couplet
    assert per_couplet == [2, 2, 2]
    assert outcome.total_barriers == sum(per_couplet)


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_non_positive_iteration_cap_is_refused(max_iterations):
    with pytest.raises(ValueError):
        IteratedMapReduce(_couplet, "data", max_iterations=max_iterations)
