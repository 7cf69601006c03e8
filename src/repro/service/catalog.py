"""The app catalog: named, parameterized analytics the service runs.

The front door cannot accept arbitrary :class:`~repro.ebsp.job.Job`
objects over the wire, so tenants pick from a catalog of registered
apps — the paper's four workloads — and parameterize them with plain
JSON.  Each app's *builder* turns a validated request into a
:class:`PreparedJob`: the Job object, its engine options, the tables
whose mutation epochs key the result cache, the job-private tables it
created, and a collector that reads the finished state back into a
JSON-able payload.

Tables follow one rule — *inputs immutable, state per job* — which is
the K/V EBSP model's factoring of component state across several
tables.  Input data is generated deterministically from the request
parameters (seeded generators) into a table named by a digest of those
parameters, seeded once and never written by a job, so concurrent
requests over one input share it safely.  Everything a job mutates
lives in a scratch table named ``<input>_<fingerprint[:12]>``, created
by the builder and dropped after collection; two requests can never
write each other's answers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

import numpy as np

from repro.errors import BadRequestError, TableExistsError
from repro.ebsp.job import Job
from repro.ebsp.results import JobResult
from repro.kvstore.api import KVStore, TableSpec
from repro.service.spec import JobRequest, require_params


@dataclass
class PreparedJob:
    """Everything the front door needs to run one catalog app."""

    job: Job
    #: Passed through to ``run_job`` via the scheduler.
    engine_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Tables no job writes, whose mutation epochs version this job's
    #: result (empty when the result is a pure function of the request).
    input_tables: List[str] = field(default_factory=list)
    #: Job-private tables the builder created.  ``collect`` drops them;
    #: the front door drops them when the job never gets collected.
    scratch_tables: List[str] = field(default_factory=list)
    #: Reads the finished run back into a JSON-able payload.
    collect: Callable[[KVStore, JobResult], Any] = lambda store, result: None


Builder = Callable[[KVStore, JobRequest], PreparedJob]


class AppCatalog:
    """A registry of named app builders with declared parameter schemas."""

    def __init__(self) -> None:
        self._builders: Dict[str, Builder] = {}
        self._params: Dict[str, tuple] = {}
        self._needs_barriers: Set[str] = set()

    def register(
        self,
        name: str,
        builder: Builder,
        required: Dict[str, type],
        optional: Dict[str, type],
        *,
        needs_barriers: bool = False,
    ) -> None:
        """Add an app.  *needs_barriers* marks apps that cannot run on
        the barrier-free engine (aggregators, step counts), so
        ``"synchronize": false`` is refused at submit."""
        if name in self._builders:
            raise ValueError(f"app {name!r} already registered")
        self._builders[name] = builder
        self._params[name] = (dict(required), dict(optional))
        if needs_barriers:
            self._needs_barriers.add(name)

    def apps(self) -> List[str]:
        return sorted(self._builders)

    def validate(self, request: JobRequest) -> None:
        """Cheap, side-effect-free request checking at submit time.

        Catches unknown apps and unknown / missing / mistyped params
        (so they surface as 400s, not async job failures); semantic
        checks that need the generated data still happen in the
        builder.
        """
        spec = self._params.get(request.app)
        if spec is None:
            raise BadRequestError(
                f"unknown app {request.app!r} (catalog: {', '.join(self.apps())})"
            )
        required, optional = spec
        require_params(request.params, required=required, optional=optional)
        if request.app in self._needs_barriers and request.engine.get("synchronize") is False:
            raise BadRequestError(
                f"app {request.app!r} needs barriers (aggregators and step "
                "counts); synchronize=false is not supported"
            )

    def prepare(self, store: KVStore, request: JobRequest) -> PreparedJob:
        """Build (and, on first sight of the inputs, materialize) the job.

        Raises :class:`~repro.errors.BadRequestError` for an unknown
        app or bad parameters.  Callers invoke this only on a cache
        miss — builders seed inputs on first sight and create the job's
        scratch tables, work a cache hit should not pay for.
        """
        builder = self._builders.get(request.app)
        if builder is None:
            raise BadRequestError(
                f"unknown app {request.app!r} (catalog: {', '.join(self.apps())})"
            )
        return builder(store, request)


def _input_key(app: str, inputs: Dict[str, Any]) -> str:
    """Short digest naming the deterministic input data set."""
    payload = json.dumps({"app": app, **inputs}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _scratch_table(
    store: KVStore, stem: str, request: JobRequest, n_parts: Optional[int] = None
) -> str:
    """Create a job-private table named ``<stem>_<fingerprint[:12]>``.

    Two identical requests in flight share a fingerprint, so a taken
    name gets a numeric suffix; creation is the reservation, which
    makes the choice race-free.
    """
    base = f"{stem}_{request.fingerprint()[:12]}"
    name, suffix = base, 0
    while True:
        try:
            store.create_table(TableSpec(name=name, n_parts=n_parts))
            return name
        except TableExistsError:
            suffix += 1
            name = f"{base}_{suffix}"


# -- the four paper workloads ----------------------------------------------------

_PAGERANK_PARAMS = (
    {"n_vertices": int, "n_edges": int},
    {"seed": int, "iterations": int, "damping": float, "n_parts": int},
)
_SSSP_PARAMS = (
    {"n_vertices": int, "n_edges": int},
    {"seed": int, "source": int, "distance_cap": int},
)
_SUMMA_PARAMS = (
    {"m": int, "n": int, "inner": int},
    {"m_rows": int, "n_cols": int, "batches": int, "seed": int},
)
_KMEANS_PARAMS = (
    {"n_points": int, "k": int},
    {"dims": int, "seed": int, "spread": float, "separation": float,
     "max_iterations": int},
)


def _build_pagerank(store: KVStore, request: JobRequest) -> PreparedJob:
    from repro.apps.pagerank.batch import pagerank_batch_job, read_rank_table
    from repro.apps.pagerank.common import PageRankConfig, build_pagerank_table
    from repro.graph.generators import power_law_directed_graph

    p = require_params(
        request.params, required=_PAGERANK_PARAMS[0], optional=_PAGERANK_PARAMS[1]
    )
    seed = p.get("seed", 0)
    table = "svc_pagerank_" + _input_key(
        "pagerank",
        {"n_vertices": p["n_vertices"], "n_edges": p["n_edges"], "seed": seed,
         "n_parts": p.get("n_parts")},
    )
    if not store.has_table(table):
        adjacency = power_law_directed_graph(p["n_vertices"], p["n_edges"], seed)
        build_pagerank_table(store, table, adjacency, n_parts=p.get("n_parts"))
    config = PageRankConfig(
        iterations=p.get("iterations", 10), damping=p.get("damping", 0.85)
    )
    ranks_table = _scratch_table(
        store, f"{table}_ranks", request, n_parts=store.get_table(table).n_parts
    )

    def collect(store: KVStore, result: JobResult) -> Any:
        ranks = read_rank_table(store, ranks_table)
        store.drop_table(ranks_table)
        return {
            "table": table,
            "steps": result.steps,
            "ranks": {str(v): r for v, r in sorted(ranks.items())},
        }

    # The graph table is only read; the plan picks the columnar shape
    # for the batch job unless the request sets batch_compute false.
    return PreparedJob(
        job=pagerank_batch_job(
            store, table, p["n_vertices"], config, ranks_table=ranks_table
        ),
        engine_kwargs={"synchronize": True, **dict(request.engine)},
        input_tables=[table],
        scratch_tables=[ranks_table],
        collect=collect,
    )


def _build_sssp(store: KVStore, request: JobRequest) -> PreparedJob:
    from repro.apps.sssp.common import INFINITY
    from repro.apps.sssp.wave import build_graph_table, read_distances, wave_sssp_job
    from repro.graph.generators import power_law_undirected_edges

    p = require_params(
        request.params, required=_SSSP_PARAMS[0], optional=_SSSP_PARAMS[1]
    )
    seed = p.get("seed", 0)
    source = p.get("source", 0)
    n_vertices = p["n_vertices"]
    if not (0 <= source < n_vertices):
        raise BadRequestError("source must be a vertex id in [0, n_vertices)")
    table = "svc_sssp_" + _input_key(
        "sssp", {"n_vertices": n_vertices, "n_edges": p["n_edges"], "seed": seed}
    )
    if not store.has_table(table):
        adjacency: Dict[int, Set[int]] = {v: set() for v in range(n_vertices)}
        for a, b in power_law_undirected_edges(n_vertices, p["n_edges"], seed):
            adjacency[a].add(b)
            adjacency[b].add(a)
        build_graph_table(store, table, adjacency)
    # the graph is only read; distances go to a table of the job's own
    dist_table = _scratch_table(
        store, f"{table}_dist", request, n_parts=store.get_table(table).n_parts
    )
    cap = p.get("distance_cap", max(n_vertices, 1))

    def collect(store: KVStore, result: JobResult) -> Any:
        distances = read_distances(store, dist_table, range(n_vertices))
        store.drop_table(dist_table)
        return {
            "steps": result.steps,
            "distances": {
                str(v): (None if d >= INFINITY else d) for v, d in distances.items()
            },
        }

    return PreparedJob(
        job=wave_sssp_job(table, dist_table, source, cap),
        engine_kwargs={"synchronize": True, **dict(request.engine)},
        input_tables=[table],
        scratch_tables=[dist_table],
        collect=collect,
    )


def _build_summa(store: KVStore, request: JobRequest) -> PreparedJob:
    from repro.apps.summa.blocks import BlockGrid
    from repro.apps.summa.job import assemble_summa_result, load_summa_blocks, summa_job

    p = require_params(
        request.params, required=_SUMMA_PARAMS[0], optional=_SUMMA_PARAMS[1]
    )
    grid = BlockGrid(
        m_rows=p.get("m_rows", 2), n_cols=p.get("n_cols", 2), batches=p.get("batches", 2)
    )
    seed = p.get("seed", 0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p["m"], p["inner"]))
    b = rng.standard_normal((p["inner"], p["n"]))
    # SUMMA consumes its blocks as they are spent, so every job loads
    # its own table.
    table = _scratch_table(
        store,
        "svc_summa_" + _input_key(
            "summa",
            {"m": p["m"], "n": p["n"], "inner": p["inner"], "seed": seed,
             "grid": [grid.m_rows, grid.n_cols, grid.batches]},
        ),
        request,
    )
    load_summa_blocks(store, a, b, grid, table)
    synchronize = bool(dict(request.engine).get("synchronize", True))

    def collect(store: KVStore, result: JobResult) -> Any:
        c = assemble_summa_result(store, grid, table)
        store.drop_table(table)
        return {
            "steps": result.steps,
            "c": c.tolist(),
        }

    return PreparedJob(
        job=summa_job(table, grid, synchronized=synchronize),
        engine_kwargs={"synchronize": synchronize, **dict(request.engine)},
        scratch_tables=[table],
        collect=collect,
    )


def _build_kmeans(store: KVStore, request: JobRequest) -> PreparedJob:
    from repro.apps.kmeans.job import collect_kmeans, kmeans_job
    from repro.apps.kmeans.reference import gaussian_blobs

    p = require_params(
        request.params, required=_KMEANS_PARAMS[0], optional=_KMEANS_PARAMS[1]
    )
    if p["k"] <= 0 or p["n_points"] < p["k"]:
        raise BadRequestError("need k >= 1 and n_points >= k")
    inputs = {
        "n_points": p["n_points"], "k": p["k"], "dims": p.get("dims", 2),
        "seed": p.get("seed", 0), "spread": p.get("spread", 0.4),
        "separation": p.get("separation", 4.0),
    }
    points = gaussian_blobs(
        inputs["n_points"], inputs["k"], dims=inputs["dims"], seed=inputs["seed"],
        spread=inputs["spread"], separation=inputs["separation"],
    )
    max_iterations = p.get("max_iterations", 100)
    # the job's loader writes the point states, so each job gets its own table
    table = _scratch_table(store, "svc_kmeans_" + _input_key("kmeans", inputs), request)

    def collect(store: KVStore, result: JobResult) -> Any:
        clustering = collect_kmeans(store, table, result)
        store.drop_table(table)
        return {
            "iterations": clustering.iterations,
            "centroids": clustering.centroids.tolist(),
            "assignments": {
                str(key): int(c) for key, c in sorted(clustering.assignments.items())
            },
        }

    return PreparedJob(
        job=kmeans_job(table, points, p["k"]),
        engine_kwargs={"synchronize": True, "max_steps": max_iterations,
                       **dict(request.engine)},
        scratch_tables=[table],
        collect=collect,
    )


def default_catalog() -> AppCatalog:
    """The paper's four workloads, ready to serve."""
    catalog = AppCatalog()
    catalog.register("pagerank", _build_pagerank, *_PAGERANK_PARAMS, needs_barriers=True)
    catalog.register("sssp", _build_sssp, *_SSSP_PARAMS)
    catalog.register("summa", _build_summa, *_SUMMA_PARAMS)
    catalog.register("kmeans", _build_kmeans, *_KMEANS_PARAMS, needs_barriers=True)
    return catalog
