"""SSSP against BFS ground truth: the incremental variants (§V-C) and
the catalog's wave on both data planes."""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.sssp import (
    ChangeBatch,
    DynamicGraphWorkload,
    FullScanSSSP,
    INFINITY,
    SelectiveSSSP,
    reference_distances,
)
from repro.apps.sssp.common import adjacency_from_edges, apply_batch_to_adjacency
from repro.apps.sssp.wave import (
    DIST_TAB,
    GRAPH_TAB,
    _WaveCompute,
    build_graph_table,
    read_distances,
    wave_sssp_job,
)
from repro.ebsp.engine import SyncEngine
from repro.ebsp.runner import run_job
from repro.ebsp.transport import MessageBatch
from repro.graph.generators import power_law_undirected_edges
from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.service import FrontDoor, JobRequest, ServiceServer, default_catalog
from tests.conftest import runtime_override
from tests.service.test_server import call, submit_and_wait


def fresh_pair(adjacency, source):
    """Both variants loaded with the same graph and solved."""
    s1, s2 = LocalKVStore(default_n_parts=4), LocalKVStore(default_n_parts=4)
    selective = SelectiveSSSP(s1, source)
    selective.load(adjacency)
    selective.initial_solve()
    full = FullScanSSSP(s2, source)
    full.load(adjacency)
    full.initial_solve()
    return selective, full


def check_against_reference(variant, adjacency, source):
    reference = reference_distances(adjacency, source)
    distances = variant.distances()
    mismatches = {v for v in reference if distances.get(v) != reference[v]}
    assert not mismatches, f"{len(mismatches)} wrong annotations, e.g. {sorted(mismatches)[:5]}"


SMALL = adjacency_from_edges(range(8), [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (6, 7)])


class TestInitialSolve:
    def test_both_variants_match_bfs(self):
        selective, full = fresh_pair(SMALL, source=0)
        check_against_reference(selective, SMALL, 0)
        check_against_reference(full, SMALL, 0)

    def test_unreachable_is_infinity(self):
        selective, full = fresh_pair(SMALL, source=0)
        assert selective.distances()[6] == INFINITY
        assert full.distances()[6] == INFINITY

    def test_source_is_zero(self):
        selective, full = fresh_pair(SMALL, source=2)
        assert selective.distances()[2] == 0
        assert full.distances()[2] == 0


class TestPrimitiveChanges:
    def _apply_and_check(self, batch, source=0, base=None):
        adjacency = {v: set(ns) for v, ns in (base or SMALL).items()}
        selective, full = fresh_pair(adjacency, source)
        apply_batch_to_adjacency(adjacency, batch)
        selective.update(batch)
        full.update(batch)
        check_against_reference(selective, adjacency, source)
        check_against_reference(full, adjacency, source)
        return selective, full

    def test_edge_addition_shortens_paths(self):
        self._apply_and_check(ChangeBatch(add_edges=((0, 3),)))

    def test_edge_addition_connects_component(self):
        self._apply_and_check(ChangeBatch(add_edges=((5, 6),)))

    def test_edge_removal_lengthens_paths(self):
        self._apply_and_check(ChangeBatch(remove_edges=((0, 1),)))

    def test_edge_removal_disconnects(self):
        # removing 0-4 cuts {4,5} off entirely: the hard +∞ case
        self._apply_and_check(ChangeBatch(remove_edges=((0, 4),)))

    def test_noop_add_existing_edge(self):
        selective, full = self._apply_and_check(ChangeBatch(add_edges=((0, 1),)))

    def test_noop_remove_missing_edge(self):
        self._apply_and_check(ChangeBatch(remove_edges=((0, 7),)))

    def test_add_vertex(self):
        self._apply_and_check(ChangeBatch(add_vertices=(99,)))

    def test_add_vertex_then_connect(self):
        self._apply_and_check(
            ChangeBatch(add_vertices=(99,), add_edges=((99, 0),))
        )

    def test_remove_isolated_vertex(self):
        base = {v: set(ns) for v, ns in SMALL.items()}
        base[99] = set()
        self._apply_and_check(ChangeBatch(remove_vertices=(99,)), base=base)

    def test_remove_connected_vertex_is_noop(self):
        """Only neighbor-free vertices may be removed (paper's primitive)."""
        selective, full = self._apply_and_check(ChangeBatch(remove_vertices=(1,)))
        assert 1 in selective.distances()

    def test_mixed_batch(self):
        self._apply_and_check(
            ChangeBatch(add_edges=((3, 6), (5, 7)), remove_edges=((1, 2),))
        )

    def test_deletion_free_batch_single_wave(self):
        adjacency = {v: set(ns) for v, ns in SMALL.items()}
        s = LocalKVStore(default_n_parts=4)
        full = FullScanSSSP(s, 0)
        full.load(adjacency)
        full.initial_solve()
        batch = ChangeBatch(add_edges=((0, 3),))
        assert not batch.has_deletions
        full.update(batch)  # exercises the one-wave path


class TestSelectiveEnablementAdvantage:
    def test_untouched_region_never_invoked(self):
        """The point of §V-C: only the ripple region runs."""
        # a long path 0-1-2-...-19 plus a separate clique
        path = {i: {i - 1, i + 1} for i in range(1, 19)}
        path[0] = {1}
        path[19] = {18}
        clique_vertices = range(100, 110)
        for v in clique_vertices:
            path[v] = {u for u in clique_vertices if u != v}
        store = LocalKVStore(default_n_parts=4)
        selective = SelectiveSSSP(store, 0)
        selective.load(path)
        selective.initial_solve()

        before = selective.distances()
        batch = ChangeBatch(add_edges=((0, 5),))
        steps = selective.update(batch)
        after = selective.distances()
        # the clique annotations are untouched and still correct
        for v in clique_vertices:
            assert after[v] == before[v] == INFINITY
        # only a few ripple steps were needed
        assert 0 < steps < 20

    def test_empty_batch_zero_steps(self):
        store = LocalKVStore(default_n_parts=4)
        selective = SelectiveSSSP(store, 0)
        selective.load(SMALL)
        selective.initial_solve()
        assert selective.update(ChangeBatch()) == 0


class TestNoSyncComposition:
    """Selective enablement + the no-sync switch compose: the same
    incremental job runs barrier-free and stays correct."""

    def test_selective_updates_without_barriers(self):
        workload = DynamicGraphWorkload(
            n_vertices=100, n_edges=400, batches=6, changes_per_batch=15, seed=77
        )
        adjacency = {v: set(ns) for v, ns in workload.initial_adjacency.items()}
        store = LocalKVStore(default_n_parts=4)
        selective = SelectiveSSSP(store, workload.source)
        selective.load(adjacency)
        selective.initial_solve(synchronize=False)
        check_against_reference(selective, adjacency, workload.source)
        for batch in workload.change_batches:
            apply_batch_to_adjacency(adjacency, batch)
            selective.update(batch, synchronize=False)
            check_against_reference(selective, adjacency, workload.source)

    def test_job_is_no_sync_eligible(self):
        from repro.apps.sssp.incremental import _SelectiveJob
        from repro.ebsp.runner import plan_for

        job = _SelectiveJob("t", 0, 100, [0])
        assert plan_for(job).no_sync


class TestWorkloadSequence:
    def test_ten_batches_stay_correct(self):
        workload = DynamicGraphWorkload(
            n_vertices=120, n_edges=500, batches=10, changes_per_batch=25, seed=42
        )
        adjacency = {v: set(ns) for v, ns in workload.initial_adjacency.items()}
        selective, full = fresh_pair(adjacency, workload.source)
        for batch in workload.change_batches:
            apply_batch_to_adjacency(adjacency, batch)
            selective.update(batch)
            full.update(batch)
            check_against_reference(selective, adjacency, workload.source)
            check_against_reference(full, adjacency, workload.source)

    def test_workload_deterministic(self):
        a = DynamicGraphWorkload(n_vertices=50, n_edges=100, seed=5)
        b = DynamicGraphWorkload(n_vertices=50, n_edges=100, seed=5)
        assert a.source == b.source
        assert a.change_batches == b.change_batches


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=5, max_value=30),
    edge_factor=st.integers(min_value=1, max_value=3),
    n_changes=st.integers(min_value=1, max_value=15),
)
def test_selective_variant_random_graphs_property(seed, n, edge_factor, n_changes):
    """Random graph + random batch: selective == BFS, always."""
    import numpy as np

    from repro.apps.sssp.workload import random_change_batch

    rng = np.random.default_rng(seed)
    edges = [
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(n * edge_factor)
    ]
    adjacency = adjacency_from_edges(range(n), [e for e in edges if e[0] != e[1]])
    source = int(rng.integers(n))
    store = LocalKVStore(default_n_parts=3)
    selective = SelectiveSSSP(store, source)
    selective.load(adjacency)
    selective.initial_solve()
    batch = random_change_batch(n, n_changes, rng)
    apply_batch_to_adjacency(adjacency, batch)
    selective.update(batch)
    reference = reference_distances(adjacency, source)
    distances = selective.distances()
    assert all(distances.get(v) == reference[v] for v in reference)


# -- the catalog's wave: graph table + distance table, two planes -----------------
WAVE = {"n_vertices": 300, "n_edges": 900, "seed": 6}


def _graph(n_vertices, n_edges, seed):
    edges = power_law_undirected_edges(n_vertices, n_edges, seed)
    return adjacency_from_edges(range(n_vertices), edges)


def _wave_store():
    # RIPPLE_RUNTIME puts the wave checks on a partitioned store with
    # that worker runtime (CI runs this file under processes)
    runtime = runtime_override()
    if runtime is None:
        return LocalKVStore(default_n_parts=4)
    return PartitionedKVStore(n_partitions=4, runtime=runtime)


def _solve(store, adjacency, source, cap=None, tag="w", **engine_kwargs):
    """(steps, distances) of one wave over a freshly built graph table."""
    graph = f"{tag}_graph"
    if not store.has_table(graph):
        build_graph_table(store, graph, adjacency)
    dist = f"{tag}_dist_{source}_{engine_kwargs.get('batch_compute')}"
    store.create_table(TableSpec(name=dist))
    job = wave_sssp_job(graph, dist, source, cap or max(len(adjacency), 1))
    result = run_job(store, job, **{"synchronize": True, **engine_kwargs})
    distances = read_distances(store, dist, sorted(adjacency))
    store.drop_table(dist)
    return result.steps, distances


class TestWave:
    @pytest.mark.parametrize("batch", [None, False, True])
    def test_matches_bfs_and_selective_steps(self, batch):
        adjacency = _graph(**WAVE)
        store = _wave_store()
        try:
            for source in (0, 11, 299):
                steps, distances = _solve(
                    store, adjacency, source,
                    **({} if batch is None else {"batch_compute": batch}),
                )
                assert distances == reference_distances(adjacency, source)
                selective = SelectiveSSSP(LocalKVStore(default_n_parts=4), source)
                selective.load(adjacency)
                assert steps == selective.initial_solve()
        finally:
            store.close()

    def test_distance_cap_matches_selective(self):
        adjacency = _graph(**WAVE)
        store = LocalKVStore(default_n_parts=4)
        selective = SelectiveSSSP(LocalKVStore(default_n_parts=4), 5, distance_cap=3)
        selective.load(adjacency)
        selective_steps = selective.initial_solve()
        for batch in (False, True):
            steps, distances = _solve(store, adjacency, 5, cap=3, batch_compute=batch)
            assert distances == selective.distances()
            assert steps == selective_steps
        assert INFINITY in selective.distances().values()

    def test_isolated_source_and_unreached_vertices(self):
        adjacency = adjacency_from_edges(range(6), [(1, 2), (2, 3)])
        store = LocalKVStore(default_n_parts=4)
        for batch in (False, True):
            steps, distances = _solve(store, adjacency, 0, batch_compute=batch)
            assert steps == 1
            assert distances == {0: 0, **{v: INFINITY for v in range(1, 6)}}

    def test_barrier_free_run_agrees(self):
        adjacency = _graph(**WAVE)
        store = LocalKVStore(default_n_parts=4)
        _, distances = _solve(store, adjacency, 4, synchronize=False)
        assert distances == reference_distances(adjacency, 4)

    def test_graph_table_is_never_written(self):
        adjacency = _graph(**WAVE)
        store = LocalKVStore(default_n_parts=4)
        build_graph_table(store, "w_graph", adjacency)
        graph = store.get_table("w_graph")
        epoch = graph.mutation_epoch
        for batch in (False, True):
            _solve(store, adjacency, 7, batch_compute=batch)
        assert graph.mutation_epoch == epoch

    def test_distance_table_holds_only_reached_vertices(self):
        adjacency = adjacency_from_edges(range(8), [(0, 1), (1, 2), (5, 6)])
        store = LocalKVStore(default_n_parts=4)
        build_graph_table(store, "g", adjacency)
        for batch in (False, True):
            store.create_table(TableSpec(name="d"))
            run_job(
                store, wave_sssp_job("g", "d", 0, 8), synchronize=True, batch_compute=batch
            )
            assert dict(store.get_table("d").items()) == {0: 0, 1: 1, 2: 2}
            store.drop_table("d")


def _catalog_run(store, engine, params):
    """(payload as JSON, engine counters) of one catalog SSSP request."""
    request = JobRequest.from_wire({"app": "sssp", "params": params, "engine": engine})
    prepared = default_catalog().prepare(store, request)
    result = run_job(store, prepared.job, **prepared.engine_kwargs)
    return json.dumps(prepared.collect(store, result), sort_keys=True), result.counters


@pytest.mark.parametrize("runtime", ["inline", "threaded", "process"])
def test_payload_identical_on_both_planes(runtime):
    params = {**WAVE, "source": 3}
    store = PartitionedKVStore(n_partitions=4, runtime=runtime)
    try:
        runs = {
            batch: _catalog_run(
                store, {} if batch is None else {"batch_compute": batch}, params
            )
            for batch in (None, False, True)
        }
    finally:
        store.close()
    payloads = {batch: payload for batch, (payload, _) in runs.items()}
    assert payloads[None] == payloads[False] == payloads[True]
    # the batch face writes exactly the distances the per-key face does
    writes = {batch: counters["state_writeback_records"] for batch, (_, counters) in runs.items()}
    assert writes[None] == writes[False] == writes[True]
    expected = reference_distances(_graph(**WAVE), 3)
    assert json.loads(payloads[None])["distances"] == {
        str(v): (None if d >= INFINITY else d) for v, d in expected.items()
    }


def test_batch_plane_is_picked_by_default(monkeypatch):
    def per_key(self, ctx):
        raise AssertionError("per-key compute ran with batch_compute unset")

    monkeypatch.setattr(_WaveCompute, "compute", per_key)
    store = LocalKVStore(default_n_parts=4)
    try:
        _catalog_run(store, {}, {**WAVE, "source": 1})
    finally:
        store.close()


class _WaveCtx:
    """Just enough of both compute contexts for the wave, over dicts."""

    def __init__(self, graph, dists):
        self.tables = {GRAPH_TAB: graph, DIST_TAB: dists}
        self.sent = []

    # per-key face
    def bind(self, key, messages):
        self.key, self._messages = key, messages

    def read_state(self, tab_idx):
        return self.tables[tab_idx].get(self.key)

    def write_state(self, tab_idx, state):
        self.tables[tab_idx][self.key] = state

    def input_messages(self):
        return iter(self._messages)

    def output_message(self, key, message):
        self.sent.append((key, int(message)))

    # batch face
    def read_states(self, tab_idx, keys=None):
        keys = self.keys if keys is None else keys
        return [self.tables[tab_idx].get(key) for key in keys.tolist()]

    def write_states(self, tab_idx, states, keys=None):
        keys = self.keys if keys is None else keys
        for key, state in zip(keys.tolist(), list(states)):
            self.tables[tab_idx][key] = int(state)

    def send_messages(self, dest_keys, payloads):
        self.sent.extend(zip(np.asarray(dest_keys).tolist(), np.asarray(payloads).tolist()))


def test_column_of_python_int_payloads_matches_per_key():
    """Messages from per-key senders arrive as an object column of
    Python ints; the batch face reads them like an int64 column."""
    adjacency = _graph(60, 150, 2)
    graph = {v: np.asarray(sorted(ns), dtype=np.int64).tobytes() for v, ns in adjacency.items()}
    inbox = {3: [4, 2, 9], 8: [1], 9: [0, 5], 20: [7], 31: [30, 2]}
    dists = {3: 5, 8: 1, 31: 3}  # 8 and 31 keep theirs, 3 improves
    compute = _WaveCompute(source=9, distance_cap=60)

    per_key = _WaveCtx(graph, dict(dists))
    for key, messages in inbox.items():
        per_key.bind(key, messages)
        assert compute.compute(per_key) is False

    batch_ctx = _WaveCtx(graph, dict(dists))
    batch_ctx.keys = np.asarray(sorted(inbox), dtype=np.int64)
    flat = [m for key in sorted(inbox) for m in inbox[key]]
    payloads = np.empty(len(flat), dtype=object)
    payloads[:] = flat
    batch_ctx.messages = MessageBatch(
        payloads, np.concatenate(([0], np.cumsum([len(inbox[k]) for k in sorted(inbox)])))
    )
    assert compute.compute_batch(batch_ctx) is False

    assert batch_ctx.tables[DIST_TAB] == per_key.tables[DIST_TAB] == {
        3: 3, 8: 1, 9: 0, 20: 8, 31: 3
    }
    assert sorted(batch_ctx.sent) == sorted(per_key.sent)


def test_combiners_keep_the_smallest_distance():
    compute = _WaveCompute(source=0, distance_cap=100)
    assert compute.combine_messages(None, 1, 7, 4) == 4
    dest, payloads = compute.combine_message_batch(
        None, np.array([5, 2, 5, 9, 2]), np.array([3, 8, 1, 4, 6])
    )
    assert dest.tolist() == [2, 5, 9] and payloads.tolist() == [6, 1, 4]


def test_batch_compute_true_accepted_over_http():
    store = PartitionedKVStore(n_partitions=4, runtime="threaded")
    try:
        with ServiceServer(FrontDoor(store, max_concurrent=2)) as server:
            results = []
            for engine in ({"batch_compute": True}, {"batch_compute": False}):
                body = {"app": "sssp", "params": {**WAVE, "source": 2}, "engine": engine}
                job_id, status = submit_and_wait(server.url, body)
                assert status == "done"
                code, payload, _ = call(server.url, "GET", f"/v1/jobs/{job_id}/result")
                assert code == 200 and not payload["cached"]
                results.append(json.dumps(payload["result"], sort_keys=True))
        assert results[0] == results[1]
    finally:
        store.close()


def test_finished_wave_engine_is_freed_without_the_cycle_collector():
    """No reference cycle through the engine: with the collector off, a
    finished wave engine dies with its last reference (the batch
    context's key-subset reads and writes must not pin it)."""
    store = PartitionedKVStore(n_partitions=4, runtime="process")
    adjacency = _graph(**WAVE)
    build_graph_table(store, "cycle_graph", adjacency)
    store.create_table(TableSpec(name="cycle_dist"))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = SyncEngine(store, wave_sssp_job("cycle_graph", "cycle_dist", 0, 300))
        result = engine.run()
        assert result.plan["shape"] == "columnar" and result.plan["shipped"]
        assert result.steps > 0
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
        store.close()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=40),
    edge_factor=st.integers(min_value=0, max_value=3),
)
def test_wave_random_graphs_property(seed, n, edge_factor):
    """Random graph, random source: both planes == BFS, same steps."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(n * edge_factor)]
    adjacency = adjacency_from_edges(range(n), edges)
    source = int(rng.integers(n))
    store = LocalKVStore(default_n_parts=3)
    per_key = _solve(store, adjacency, source, batch_compute=False)
    batch = _solve(store, adjacency, source, batch_compute=True)
    assert per_key == batch
    assert per_key[1] == reference_distances(adjacency, source)
