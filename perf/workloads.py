"""The six workloads: request generators and result checkers.

A workload's request sequence is a pure function of ``(seed, i)``; the
server only ever sees the generated wire requests.  Indices below zero
are the untimed warm-up jobs.  Sizes are calibrated so one job takes
0.1-0.5 s on a 2-core box and so the work per job does not depend on
the seed (the driver compares runs made with different seeds).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.apps.kmeans.reference import gaussian_blobs, reference_kmeans
from repro.apps.pagerank.common import PageRankConfig, reference_pagerank
from repro.apps.sssp.common import INFINITY, adjacency_from_edges, reference_distances
from repro.graph.generators import power_law_directed_graph, power_law_undirected_edges

Request = Dict[str, Any]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Worker runtime of the server's store and front door.
    runtime: str
    #: Closed-loop client threads, one keep-alive connection each.
    clients: int
    #: ``(seed, i) -> app, params, engine``; ``i < 0`` are warm-up jobs.
    generate: Callable[[int, int], Request]
    #: Indices of the untimed warm-up jobs, in submission order.
    warmups: List[int]
    #: Jobs are spread round-robin over this many tenants.
    tenants: int = 1
    #: Timed jobs completed when the server's peak RSS is sampled: a
    #: fixed count, so a commit that finishes more jobs in the same
    #: seconds is not charged for the results the server retains.
    rss_after: int = 8

    def request(self, seed: int, i: int) -> Request:
        """The wire form of job *i*."""
        return {**self.generate(seed, i), "tenant": f"tenant{i % self.tenants}"}


def request_key(request: Request) -> str:
    """What the result cache keys on: tenant and priority excluded."""
    return json.dumps(
        {k: request.get(k, {}) for k in ("app", "params", "engine")}, sort_keys=True
    )


def _rng(seed: int, name: str, i: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{i}")


# -- request generators -----------------------------------------------------------
def _pagerank(seed: int, i: int) -> Request:
    # a new damping is a new fingerprint over the same input table:
    # no cache hit and no re-seeding
    return {
        "app": "pagerank",
        "params": {"n_vertices": 2000, "n_edges": 16000, "iterations": 10,
                   "seed": seed, "damping": 0.85 - 1e-5 * i},
    }


SSSP_VERTICES = 2000


@functools.lru_cache(maxsize=4)
def _sssp_sources(seed: int) -> List[int]:
    return _rng(seed, "sssp.wave", 0).sample(range(SSSP_VERTICES), SSSP_VERTICES)


def _sssp(seed: int, i: int) -> Request:
    # sources come from a seeded permutation, not independent draws: two
    # consecutive jobs with one source would make the second a cache hit
    # (nothing re-seeds the table between them), which happens in about
    # one run in thirty and is not the work this workload measures
    return {
        "app": "sssp",
        "params": {"n_vertices": SSSP_VERTICES, "n_edges": 8000, "seed": seed,
                   "source": _sssp_sources(seed)[i % SSSP_VERTICES]},
    }


#: K-means runs exactly this many steps: the blobs below overlap, so
#: on 800 points Lloyd's algorithm needs more (9+ on each of 300 seeds
#: tried) and the cap binds.  Work per job is then the same for every
#: seed.
KMEANS_STEPS = 6


def _kmeans(seed: int, i: int, n_points: int = 800) -> Request:
    # spill_batch changes the fingerprint and nothing else: a part's
    # continue records never fill a 512-record batch
    return {
        "app": "kmeans",
        "params": {"n_points": n_points, "k": 8, "seed": seed, "spread": 1.5,
                   "separation": 1.0, "max_iterations": KMEANS_STEPS},
        "engine": {"spill_batch": 1024 + i},
    }


def _summa(seed: int, i: int, size: int = 480) -> Request:
    return {
        "app": "summa",
        "params": {"m": size, "n": size, "inner": size, "m_rows": 3, "n_cols": 3,
                   "batches": 3, "seed": seed + 10 + i},  # warm-ups stay >= 0
        "engine": {"synchronize": False},
    }


MIX_POOL = 8


def _mix_pool(seed: int, slot: int) -> Request:
    """Pool entry *slot*: two small requests per app."""
    variant = seed + slot % 2
    app = ("pagerank", "sssp", "kmeans", "summa")[slot // 2]
    if app == "pagerank":
        params = {"n_vertices": 500, "n_edges": 4000, "iterations": 10, "seed": variant}
        return {"app": app, "params": params}
    if app == "sssp":
        params = {"n_vertices": 500, "n_edges": 2000, "seed": variant, "source": slot}
        return {"app": app, "params": params}
    if app == "kmeans":
        return _kmeans(variant, 0, n_points=200)
    return _summa(variant, 0, size=48)


MIX_BLOCK = 50


def _mix(seed: int, i: int) -> Request:
    """One fresh SSSP and otherwise pool requests in every block of 50.

    The miss runs over a graph seed no other request uses, so it never
    re-seeds a table a pool entry (or a concurrent miss) depends on.
    """
    if i < 0:
        return _mix_pool(seed, -1 - i)
    if i % MIX_BLOCK == _rng(seed, "mix.miss", i // MIX_BLOCK).randrange(MIX_BLOCK):
        return {
            "app": "sssp",
            "params": {"n_vertices": 200, "n_edges": 800, "seed": seed + 10 + i,
                       "source": i % 200},
        }
    return _mix_pool(seed, _rng(seed, "mix.pool", i).randrange(MIX_POOL))


#: Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pagerank.sync", "threaded", 1, _pagerank, [-1, -2, -3]),
        Workload("pagerank.proc", "process", 1, _pagerank, [-1, -2, -3]),
        Workload("sssp.wave", "threaded", 1, _sssp, [-1, -2, -3]),
        # on threads this job's time follows where the OS places the four
        # part threads (see the README), so it is measured on processes
        Workload("kmeans.agg", "process", 1, _kmeans, [-1, -2, -3]),
        Workload("summa.nosync", "threaded", 1, _summa, [-1, -2, -3]),
        Workload(
            "mix.hot", "threaded", 2, _mix, [-1 - slot for slot in range(MIX_POOL)],
            tenants=4, rss_after=1000,
        ),
    )
}


# -- result checkers --------------------------------------------------------------
def _check_pagerank(request: Request, result: Any, thorough: bool) -> Optional[str]:
    p = request["params"]
    ranks = result["ranks"]
    if sorted(ranks, key=int) != [str(v) for v in range(p["n_vertices"])]:
        return "ranks do not cover every vertex"
    total = sum(ranks.values())
    if abs(total - 1.0) > 1e-9:
        return f"ranks sum to {total!r}"
    if thorough:
        adjacency = power_law_directed_graph(p["n_vertices"], p["n_edges"], p["seed"])
        config = PageRankConfig(p["iterations"], p.get("damping", 0.85))
        expected = reference_pagerank(adjacency, config)
        worst = max(abs(ranks[str(v)] - r) for v, r in expected.items())
        if worst > 1e-9:
            return f"ranks differ from the reference by {worst!r}"
    return None


def _check_sssp(request: Request, result: Any, thorough: bool) -> Optional[str]:
    p = request["params"]
    distances = result["distances"]
    if len(distances) != p["n_vertices"]:
        return "distances do not cover every vertex"
    if distances[str(p["source"])] != 0:
        return "the source is not at distance 0"
    if thorough:
        edges = power_law_undirected_edges(p["n_vertices"], p["n_edges"], p["seed"])
        adjacency = adjacency_from_edges(range(p["n_vertices"]), edges)
        for v, d in reference_distances(adjacency, p["source"]).items():
            if distances[str(v)] != (None if d >= INFINITY else d):
                return f"vertex {v}: distance {distances[str(v)]!r}, BFS says {d}"
    return None


def _check_summa(request: Request, result: Any, thorough: bool) -> Optional[str]:
    p = request["params"]
    rng = np.random.default_rng(p["seed"])
    a = rng.standard_normal((p["m"], p["inner"]))
    b = rng.standard_normal((p["inner"], p["n"]))
    c = np.asarray(result["c"])
    if c.shape != (p["m"], p["n"]) or not np.allclose(c, a @ b):
        return "c is not a @ b"
    return None


def _check_kmeans(request: Request, result: Any, thorough: bool) -> Optional[str]:
    p = request["params"]
    if len(result["assignments"]) != p["n_points"] or len(result["centroids"]) != p["k"]:
        return "assignments or centroids have the wrong size"
    if not 0 < result["iterations"] <= p["max_iterations"]:
        return f"ran {result['iterations']} steps"
    if thorough:
        points = gaussian_blobs(
            p["n_points"], p["k"], seed=p["seed"], spread=p["spread"],
            separation=p["separation"],
        )
        initial = np.vstack([points[key] for key in sorted(points)[: p["k"]]])
        centroids, assignments, _ = reference_kmeans(points, initial, p["max_iterations"])
        if {str(k): a for k, a in assignments.items()} != result["assignments"]:
            return "assignments differ from the reference"
        if not np.allclose(np.asarray(result["centroids"]), centroids):
            return "centroids differ from the reference"
    return None


_CHECKS = {
    "pagerank": _check_pagerank,
    "sssp": _check_sssp,
    "summa": _check_summa,
    "kmeans": _check_kmeans,
}


def check_result(request: Request, result: Any, thorough: bool) -> Optional[str]:
    """``None`` when *result* is a right answer to *request*, else why not.

    The cheap checks run on every job; *thorough* adds the comparison
    against the repo's reference implementation.
    """
    try:
        return _CHECKS[request["app"]](request, result, thorough)
    except (KeyError, TypeError, ValueError) as exc:  # a malformed payload
        return f"malformed result: {type(exc).__name__}: {exc}"
