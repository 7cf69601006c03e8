"""The synchronous run is the oracle for the no-sync engine.

On every runtime a barrier-free run must write what the synchronous
run writes: the wave's distances and SUMMA's product, bit for bit.
Huang's controller must end holding exactly weight 1, per-(sender,
receiver) FIFO must survive the table-backed queues, and on the inline
runtime two runs of one job must do and write exactly the same.
"""

from __future__ import annotations

import threading
from fractions import Fraction

import numpy as np
import pytest

from repro.apps.sssp.common import adjacency_from_edges
from repro.apps.sssp.wave import build_graph_table, read_distances, wave_sssp_job
from repro.apps.summa import BlockGrid, summa_multiply
from repro.ebsp.async_engine import AsyncEngine
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import JobProperties
from repro.ebsp.runner import run_job
from repro.graph.generators import power_law_undirected_edges
from repro.kvstore.api import TableSpec
from repro.kvstore.partitioned import PartitionedKVStore
from repro.messaging.table_queue import TableMessageQueuing

from tests.ebsp.jobs import TestJob

RUNTIMES = ["inline", "threaded", "process"]
N_VERTICES = 400


@pytest.fixture(params=RUNTIMES)
def store(request):
    instance = PartitionedKVStore(n_partitions=4, runtime=request.param)
    yield instance
    instance.close()


def _adjacency():
    edges = power_law_undirected_edges(N_VERTICES, 1600, seed=11)
    return adjacency_from_edges(range(N_VERTICES), edges)


def _wave(store, synchronize, tag="d", **engine_kwargs):
    """Distances of one wave from vertex 0, and its result."""
    if not store.has_table("graph"):
        build_graph_table(store, "graph", _adjacency())
    dist = f"{tag}_{synchronize}"
    store.create_table(TableSpec(name=dist))
    job = wave_sssp_job("graph", dist, 0, N_VERTICES)
    result = run_job(store, job, synchronize=synchronize, **engine_kwargs)
    return read_distances(store, dist, range(N_VERTICES)), result


def test_no_sync_wave_distances_equal_the_synchronous_ones(store):
    expected, synced = _wave(store, True)
    got, result = _wave(store, False)
    assert synced.synchronized and not result.synchronized
    assert got == expected


def test_no_sync_summa_product_equals_the_synchronous_one(store):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((24, 24))
    b = rng.standard_normal((24, 24))
    grid = BlockGrid(3, 3, 3)
    expected, _ = summa_multiply(store, a, b, grid, synchronize=True)
    got, result = summa_multiply(store, a, b, grid, synchronize=False)
    assert not result.synchronized
    assert np.array_equal(got, expected)


def test_controller_ends_holding_exactly_one(store):
    build_graph_table(store, "graph", _adjacency())
    store.create_table(TableSpec(name="dist"))
    engine = AsyncEngine(store, wave_sssp_job("graph", "dist", 0, N_VERTICES))
    result = engine.run()
    assert result.compute_invocations > 0
    assert engine._controller.held == Fraction(1)
    assert engine._controller.is_done()


def test_per_channel_fifo_through_table_queues(store):
    """Two senders on different parts each send a numbered stream to
    one receiver; through the store-backed queues each stream arrives
    in send order."""
    received = {}
    lock = threading.Lock()

    def fn(ctx):
        for message in ctx.input_messages():
            if message == "go":
                for i in range(150):
                    ctx.output_message(8, (ctx.key, i))  # key 8 → part 0 of 4
            else:
                with lock:
                    received.setdefault(message[0], []).append(message[1])
        return False

    job = TestJob(
        fn,
        properties=JobProperties(incremental=True, no_continue=True),
        loaders=[MessageListLoader([(1, "go"), (2, "go")])],
    )
    result = run_job(store, job, synchronize=False, queuing=TableMessageQueuing(store))
    assert result.messages_sent == 300
    assert received == {1: list(range(150)), 2: list(range(150))}
    assert not [name for name in store.list_tables() if name.startswith("__queue__")]


def test_inline_no_sync_runs_are_deterministic(monkeypatch):
    """Drains run one after another on the calling thread, in the order
    their parts became ready: the same job does the same work twice."""
    monkeypatch.setenv("RIPPLE_RUNTIME", "inline")
    runs = []
    for _ in range(2):
        store = PartitionedKVStore(n_partitions=4)
        try:
            assert store.runtime.kind == "inline"
            distances, result = _wave(store, False)
            state = dict(store.get_table("d_False").items())
            runs.append(
                (result.compute_invocations, result.messages_sent, state, distances)
            )
        finally:
            store.close()
    assert runs[0][0] > 0
    assert runs[0] == runs[1]
