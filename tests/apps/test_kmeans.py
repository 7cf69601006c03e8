"""K-means on EBSP against the plain Lloyd's reference."""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.kmeans import (
    CentroidAggregator,
    gaussian_blobs,
    reference_kmeans,
    run_kmeans,
)
from repro.apps.kmeans.job import MOVED, _KMeansCompute, _PointState, kmeans_job
from repro.ebsp.engine import SyncEngine
from repro.ebsp.properties import EngineOptions
from repro.ebsp.runner import run_job
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.service import FrontDoor, JobRequest, ServiceServer, default_catalog
from tests.conftest import runtime_override
from tests.service.test_server import call, submit_and_wait


@pytest.fixture
def store():
    # RIPPLE_RUNTIME puts the reference checks on a partitioned store
    # with that worker runtime (CI runs this file under processes)
    runtime = runtime_override()
    if runtime is None:
        instance = LocalKVStore(default_n_parts=4)
    else:
        instance = PartitionedKVStore(n_partitions=4, runtime=runtime)
    yield instance
    instance.close()


def initial_from(points, k):
    return np.vstack([points[key] for key in sorted(points)[:k]])


class TestAgainstReference:
    def test_identical_assignments_and_centroids(self, store):
        points = gaussian_blobs(120, k=3, seed=4)
        initial = initial_from(points, 3)
        expected_centroids, expected_assignments, _ = reference_kmeans(
            points, initial, max_iterations=50
        )
        result = run_kmeans(store, points, k=3, initial_centroids=initial)
        assert result.assignments == expected_assignments
        assert np.allclose(result.centroids, expected_centroids)

    def test_iteration_counts_match(self, store):
        points = gaussian_blobs(80, k=4, seed=9)
        initial = initial_from(points, 4)
        _, _, expected_iterations = reference_kmeans(points, initial, 50)
        result = run_kmeans(store, points, k=4, initial_centroids=initial)
        assert result.iterations == expected_iterations

    def test_separated_blobs_recovered(self, store):
        points = gaussian_blobs(90, k=3, seed=11, separation=10.0, spread=0.2)
        result = run_kmeans(store, points, k=3)
        # points generated round-robin: i % 3 is ground truth; clustering
        # must be a relabeling of it
        mapping = {}
        for key, cluster in result.assignments.items():
            truth = key % 3
            mapping.setdefault(cluster, truth)
            assert mapping[cluster] == truth

    def test_k_equals_n(self, store):
        points = {i: np.array([float(i), 0.0]) for i in range(4)}
        result = run_kmeans(store, points, k=4)
        assert sorted(result.assignments.values()) == [0, 1, 2, 3]

    def test_single_cluster(self, store):
        points = gaussian_blobs(30, k=1, seed=2)
        result = run_kmeans(store, points, k=1)
        assert set(result.assignments.values()) == {0}
        assert np.allclose(
            result.centroids[0], np.mean(np.vstack(list(points.values())), axis=0)
        )

    def test_validation(self, store):
        points = {0: np.zeros(2), 1: np.ones(2)}
        with pytest.raises(ValueError):
            run_kmeans(store, points, k=0)
        with pytest.raises(ValueError):
            run_kmeans(store, points, k=5)
        with pytest.raises(ValueError):
            run_kmeans(store, points, k=2, initial_centroids=np.zeros((3, 2)))


class TestCentroidAggregator:
    def test_fold(self):
        agg = CentroidAggregator(2)
        partial = agg.create()
        partial = agg.add(partial, np.array([1.0, 2.0]))
        partial = agg.add(partial, np.array([3.0, 4.0]))
        vec_sum, count = agg.finish(partial)
        assert np.allclose(vec_sum, [4.0, 6.0])
        assert count == 2

    def test_merge(self):
        agg = CentroidAggregator(1)
        a = agg.add(agg.create(), np.array([1.0]))
        b = agg.add(agg.create(), np.array([5.0]))
        vec_sum, count = agg.merge(a, b)
        assert vec_sum[0] == 6.0 and count == 2

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            CentroidAggregator(0)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=1000),
    n=st.integers(min_value=8, max_value=40),
    k=st.integers(min_value=1, max_value=4),
    dims=st.integers(min_value=1, max_value=3),
)
def test_ebsp_kmeans_equals_lloyd_property(seed, n, k, dims):
    """Random data: the EBSP job IS Lloyd's algorithm, step for step."""
    rng = np.random.default_rng(seed)
    points = {i: rng.standard_normal(dims) for i in range(n)}
    initial = np.vstack([points[i] for i in range(k)])
    expected_centroids, expected_assignments, _ = reference_kmeans(points, initial, 30)
    store = LocalKVStore(default_n_parts=3)
    try:
        result = run_kmeans(store, points, k=k, initial_centroids=initial, max_iterations=30)
        assert result.assignments == expected_assignments
        assert np.allclose(result.centroids, expected_centroids)
    finally:
        store.close()


# -- the columnar plane ----------------------------------------------------------
KM = {"n_points": 240, "k": 4, "seed": 2, "spread": 1.5, "separation": 1.0,
      "max_iterations": 6}


def _catalog_payload(store, engine):
    """The service's K-means payload for *engine*, parsed as the wire would."""
    request = JobRequest.from_wire({"app": "kmeans", "params": KM, "engine": engine})
    prepared = default_catalog().prepare(store, request)
    result = run_job(store, prepared.job, **prepared.engine_kwargs)
    return json.dumps(prepared.collect(store, result), sort_keys=True)


@pytest.mark.parametrize("runtime", ["inline", "threaded", "process"])
def test_payload_identical_on_both_planes(runtime):
    points = gaussian_blobs(
        KM["n_points"], KM["k"], seed=KM["seed"], spread=KM["spread"],
        separation=KM["separation"],
    )
    initial = initial_from(points, KM["k"])
    _, expected, _ = reference_kmeans(points, initial, KM["max_iterations"])
    store = PartitionedKVStore(n_partitions=4, runtime=runtime)
    try:
        payloads = {
            batch: _catalog_payload(store, {} if batch is None else {"batch_compute": batch})
            for batch in (None, False, True)
        }
    finally:
        store.close()
    assert payloads[None] == payloads[False] == payloads[True]
    assignments = json.loads(payloads[None])["assignments"]
    assert assignments == {str(key): cluster for key, cluster in expected.items()}


def test_batch_plane_is_picked_by_default(monkeypatch):
    def per_key(self, ctx):
        raise AssertionError("per-key compute ran with batch_compute unset")

    monkeypatch.setattr(_KMeansCompute, "compute", per_key)
    store = LocalKVStore(default_n_parts=4)
    try:
        _catalog_payload(store, {})
    finally:
        store.close()


class _PerKeyCtx:
    """Just enough ComputeContext for one K-means invocation."""

    def __init__(self, state, aggs, values):
        self._state = state
        self._aggs = aggs
        self._values = values
        self.partials = {name: agg.create() for name, agg in aggs.items()}

    def read_state(self, tab_idx):
        return self._state

    def write_state(self, tab_idx, state):
        self._state = state

    def aggregate_value(self, name, value):
        self.partials[name] = self._aggs[name].add(self.partials[name], value)

    def get_aggregate_value(self, name):
        return self._values.get(name)


class _BatchCtx(_PerKeyCtx):
    """Just enough BatchComputeContext for one K-means column."""

    def read_states(self, tab_idx):
        return list(self._state)

    def write_states(self, tab_idx, states):
        self._state = list(states)

    def aggregate_values(self, name, values):
        self.partials[name] = self._aggs[name].add_many(self.partials[name], values)


def test_column_with_differing_centroid_caches_matches_per_key():
    rng = np.random.default_rng(5)
    k, dims = 3, 2
    cache_a = rng.standard_normal((k, dims))
    cache_b = cache_a + 2.0
    points = rng.standard_normal((30, dims)) * 2
    # cluster 1 went empty last step, so each state's own cache decides
    # that centroid: the two halves of the column see different centroids
    values = {"centroid_0": (np.array([0.5, 0.5]), 2), "centroid_1": (np.zeros(dims), 0),
              "centroid_2": (np.array([-3.0, 1.0]), 1)}

    def fresh_states():
        return [
            _PointState(point, i % k, cache_a if i % 2 else cache_b)
            for i, point in enumerate(points)
        ]

    job = kmeans_job("unused", {i: p for i, p in enumerate(points)}, k, cache_a)
    compute, aggs = job.get_compute(), job.aggregators()

    per_key_states, per_key_partials = [], {name: agg.create() for name, agg in aggs.items()}
    for state in fresh_states():
        ctx = _PerKeyCtx(state, aggs, values)
        ctx.partials = per_key_partials
        assert compute.compute(ctx) is True
        per_key_states.append(ctx.read_state(0))
        per_key_partials = ctx.partials

    batch_ctx = _BatchCtx(fresh_states(), aggs, values)
    assert compute.compute_batch(batch_ctx) is True
    batch_states = batch_ctx.read_states(0)

    assert len({state.centroid_cache.tobytes() for state in batch_states}) == 2
    for ours, theirs in zip(batch_states, per_key_states):
        assert ours.assignment == theirs.assignment
        assert ours.centroid_cache.tobytes() == theirs.centroid_cache.tobytes()
    assert batch_ctx.partials[MOVED] == per_key_partials[MOVED]
    for cluster in range(k):
        name = f"centroid_{cluster}"
        (ours_sum, ours_n), (theirs_sum, theirs_n) = batch_ctx.partials[name], per_key_partials[name]
        assert ours_n == theirs_n and ours_sum.tobytes() == theirs_sum.tobytes()


def test_add_many_is_the_sequential_fold():
    rng = np.random.default_rng(1)
    agg = CentroidAggregator(3)
    partial = agg.add(agg.create(), rng.standard_normal(3) * 1e8)
    values = rng.standard_normal((50, 3)) * np.logspace(-8, 8, 50)[:, None]
    folded = partial
    for value in values:
        folded = agg.add(folded, value)
    vec_sum, count = agg.add_many(partial, values)
    assert count == folded[1] and vec_sum.tobytes() == folded[0].tobytes()
    assert agg.add_many(partial, values[:0]) is partial


def test_batch_compute_true_accepted_over_http():
    store = PartitionedKVStore(n_partitions=4, runtime="threaded")
    try:
        with ServiceServer(FrontDoor(store, max_concurrent=2)) as server:
            results = []
            for engine in ({"batch_compute": True}, {"batch_compute": False}):
                body = {"app": "kmeans", "params": KM, "engine": engine}
                job_id, status = submit_and_wait(server.url, body)
                assert status == "done"
                code, payload, _ = call(server.url, "GET", f"/v1/jobs/{job_id}/result")
                assert code == 200 and not payload["cached"]
                results.append(json.dumps(payload["result"], sort_keys=True))
        assert results[0] == results[1]
    finally:
        store.close()


def test_finished_engine_is_freed_without_the_cycle_collector():
    """No reference cycle through the engine: with the collector off, a
    finished K-means engine dies with its last reference (the loader's
    staging buffer and the batch compute must not pin it)."""
    store = PartitionedKVStore(n_partitions=4, runtime="process")
    points = gaussian_blobs(80, k=3, seed=4)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        job = kmeans_job("cycle_check", points, 3)
        engine = SyncEngine(store, job, EngineOptions(max_steps=6))
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
