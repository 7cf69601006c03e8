"""K-means as a single iterated EBSP job.

One component per data point.  Each step a point (a) derives the
current centroids from the previous step's aggregator results —
falling back to its cached copy for clusters that went empty, the same
keep-previous rule as the reference — (b) assigns itself to the
nearest centroid, (c) contributes its vector to that cluster's
:class:`CentroidAggregator` and a 1 to the ``moved`` counter if its
assignment changed, and (d) continues.  An aborter stops the job one
step after nothing moved.  The trajectory is identical, step for step,
to Lloyd's algorithm (asserted in tests against
:func:`~repro.apps.kmeans.reference.reference_kmeans`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ebsp.aggregators import Aggregator, SumAggregator
from repro.ebsp.convergence import when_aggregate_zero
from repro.ebsp.job import BatchComputeContext, Compute, ComputeContext, Job
from repro.ebsp.loaders import DictStateLoader, Loader
from repro.ebsp.results import JobResult
from repro.ebsp.runner import run_job
from repro.kvstore.api import KVStore

MOVED = "moved"


class CentroidAggregator(Aggregator):
    """Accumulates (vector sum, member count) for one cluster."""

    def __init__(self, dims: int):
        if dims <= 0:
            raise ValueError("dims must be positive")
        self._dims = dims

    def create(self) -> Tuple[np.ndarray, int]:
        return (np.zeros(self._dims), 0)

    def add(self, partial: Tuple[np.ndarray, int], value: np.ndarray) -> Tuple[np.ndarray, int]:
        vec_sum, count = partial
        return (vec_sum + value, count + 1)

    def add_many(self, partial: Tuple[np.ndarray, int], values: np.ndarray) -> Tuple[np.ndarray, int]:
        """The sequential :meth:`add` fold, vectorized: ``accumulate``
        adds row by row from the partial, so the sum is bit-identical
        to folding the rows one at a time (no reassociation)."""
        if len(values) == 0:
            return partial
        vec_sum, count = partial
        sums = np.add.accumulate(np.vstack((vec_sum, values)), axis=0)
        return (sums[-1], count + len(values))

    def merge(self, a: Tuple[np.ndarray, int], b: Tuple[np.ndarray, int]) -> Tuple[np.ndarray, int]:
        return (a[0] + b[0], a[1] + b[1])


class _PointState:
    """A point's private state: vector, assignment, cached centroids."""

    __slots__ = ("point", "assignment", "centroid_cache")

    def __init__(self, point: np.ndarray, assignment: int, centroid_cache: np.ndarray):
        self.point = point
        self.assignment = assignment
        self.centroid_cache = centroid_cache

    def __getstate__(self) -> tuple:
        return (self.point, self.assignment, self.centroid_cache)

    def __setstate__(self, state: tuple) -> None:
        self.point, self.assignment, self.centroid_cache = state


def _agg_name(cluster: int) -> str:
    return f"centroid_{cluster}"


class _KMeansCompute(Compute):
    def __init__(self, k: int):
        self._k = k

    def compute(self, ctx: ComputeContext) -> bool:
        state: _PointState = ctx.read_state(0)
        centroids = self._current_centroids(ctx, state)
        distances = np.linalg.norm(centroids - state.point, axis=1)
        nearest = int(distances.argmin())
        if nearest != state.assignment:
            ctx.aggregate_value(MOVED, 1)
        state.assignment = nearest
        state.centroid_cache = centroids
        ctx.write_state(0, state)
        ctx.aggregate_value(_agg_name(nearest), state.point)
        return True  # run until the aborter stops the job

    def compute_batch(self, ctx: BatchComputeContext) -> bool:
        """The same step over a part's whole column of points.

        Centroids are derived once per distinct ``centroid_cache`` (in
        practice one per step), distances and ``argmin`` run over the
        stacked points, and each cluster's members fold into its
        aggregator in key order through the sequential fold — so the
        partials, and the answer, match the per-key plane bit for bit.
        """
        states: List[_PointState] = ctx.read_states(0)
        points = np.vstack([state.point for state in states])
        nearest = np.empty(len(states), dtype=np.intp)
        groups: Dict[bytes, List[int]] = {}
        for row, state in enumerate(states):
            groups.setdefault(state.centroid_cache.tobytes(), []).append(row)
        for rows in groups.values():
            centroids = self._current_centroids(ctx, states[rows[0]])
            distances = np.linalg.norm(
                centroids[None, :, :] - points[rows][:, None, :], axis=2
            )
            nearest[rows] = distances.argmin(axis=1)
            for row in rows:
                states[row].centroid_cache = centroids
        moved = 0
        for state, cluster in zip(states, nearest.tolist()):
            moved += cluster != state.assignment
            state.assignment = cluster
        ctx.aggregate_value(MOVED, moved)
        ctx.write_states(0, states)
        for cluster in range(self._k):
            ctx.aggregate_values(_agg_name(cluster), points[nearest == cluster])
        return True

    def _current_centroids(
        self, ctx: Union[ComputeContext, BatchComputeContext], state: _PointState
    ) -> np.ndarray:
        """Centroids from the previous step's aggregates, with the
        keep-previous rule for empty clusters."""
        centroids = np.array(state.centroid_cache, copy=True)
        for cluster in range(self._k):
            aggregate = ctx.get_aggregate_value(_agg_name(cluster))
            if aggregate is None:
                continue
            vec_sum, count = aggregate
            if count:
                centroids[cluster] = vec_sum / count
        return centroids


class _KMeansJob(Job):
    def __init__(self, table: str, points: Dict[Any, np.ndarray], k: int, initial_centroids: np.ndarray):
        self._table = table
        self._points = points
        self._k = k
        self._initial = np.asarray(initial_centroids, dtype=float)
        self._dims = self._initial.shape[1]

    def state_table_names(self) -> List[str]:
        return [self._table]

    def get_compute(self) -> Compute:
        return _KMeansCompute(self._k)

    def aggregators(self) -> Dict[str, Aggregator]:
        aggs: Dict[str, Aggregator] = {
            _agg_name(cluster): CentroidAggregator(self._dims) for cluster in range(self._k)
        }
        aggs[MOVED] = SumAggregator()
        return aggs

    def loaders(self) -> List[Loader]:
        initial = self._initial
        return [
            DictStateLoader(
                0,
                {
                    key: _PointState(np.asarray(vec, dtype=float), -1, initial)
                    for key, vec in self._points.items()
                },
                enable=True,
            )
        ]

    # stateless condition, safe to share across runs
    _stop = staticmethod(when_aggregate_zero(MOVED, warmup_steps=1))

    def aborter(self, step_num: int, aggregates: Dict[str, Any]) -> bool:
        return _KMeansJob._stop(step_num, aggregates)


@dataclass
class KMeansResult:
    """Clustering outcome."""

    centroids: np.ndarray
    assignments: Dict[Any, int]
    iterations: int
    job_result: JobResult


def kmeans_job(
    table: str,
    points: Dict[Any, np.ndarray],
    k: int,
    initial_centroids: Optional[np.ndarray] = None,
) -> Job:
    """The k-means :class:`Job` object, unexecuted.

    Same validation and centroid-default rules as :func:`run_kmeans`;
    read the clustering back with :func:`collect_kmeans`.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    if initial_centroids is None:
        first_keys = sorted(points)[:k]
        initial_centroids = np.vstack([points[key] for key in first_keys])
    initial_centroids = np.asarray(initial_centroids, dtype=float)
    if initial_centroids.shape[0] != k:
        raise ValueError(f"initial_centroids must have k={k} rows")
    return _KMeansJob(table, points, k, initial_centroids)


def collect_kmeans(store: KVStore, table: str, result: JobResult) -> KMeansResult:
    """Read the clustering out of a finished k-means run's state table."""
    table_handle = store.get_table(table)
    assignments: Dict[Any, int] = {}
    cache: Optional[np.ndarray] = None
    members: Dict[int, Tuple[np.ndarray, int]] = {}
    # key order, not enumeration order: the centroid sums below must
    # not depend on which part a concurrent scan happened to finish first
    for key, state in sorted(table_handle.items(), key=lambda pair: pair[0]):
        assignments[key] = state.assignment
        cache = state.centroid_cache if cache is None else cache
        vec_sum, count = members.get(state.assignment, (0.0, 0))
        members[state.assignment] = (vec_sum + state.point, count + 1)
    centroids = np.array(cache, copy=True)
    for cluster, (vec_sum, count) in members.items():
        if count:
            centroids[cluster] = vec_sum / count
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        iterations=result.steps,
        job_result=result,
    )


def run_kmeans(
    store: KVStore,
    points: Dict[Any, np.ndarray],
    k: int,
    initial_centroids: Optional[np.ndarray] = None,
    max_iterations: int = 100,
    table: str = "kmeans_points",
    **engine_kwargs: Any,
) -> KMeansResult:
    """Cluster *points* into *k* groups with the EBSP k-means job.

    *initial_centroids* defaults to the k points with the smallest
    keys (deterministic; matches the reference implementation's
    convention in the tests).
    """
    job = kmeans_job(table, points, k, initial_centroids)
    result = run_job(store, job, synchronize=True, max_steps=max_iterations, **engine_kwargs)
    return collect_kmeans(store, table, result)
