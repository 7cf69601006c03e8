"""Regenerate every table and figure of the paper's evaluation.

Run::

    python -m repro.bench.paper            # laptop-minute workloads
    RIPPLE_BENCH_SCALE=8 python -m repro.bench.paper   # 8× larger
    python -m repro.bench.paper --trace-dir traces/    # + Perfetto traces
    python -m repro.bench.paper --runtime process      # multi-core backend

``--runtime`` (or ``RIPPLE_RUNTIME``) selects the worker-runtime
backend every store is built on: ``threaded`` (default), ``inline``
(deterministic single-thread), or ``process`` (one OS process per
worker — real cores for the compute-bound sections).

Prints Table I, Table II, the §V-B SUMMA timing, and the §V-C
incremental-SSSP timing in the paper's row format, alongside the
paper's own numbers for comparison.  EXPERIMENTS.md records a run of
this harness.

With ``--trace-dir`` (or ``RIPPLE_TRACE_DIR``), the harness follows the
timed sections with one *traced* representative run per engine —
PageRank-direct for the synchronized engine, SUMMA-without-sync for the
queue-driven one — and writes each run's Chrome/Perfetto trace JSON
into the directory (load them at https://ui.perfetto.dev).  Traced runs
are separate from the timed trials so tracing never skews the tables.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import (
    PAPER_TABLE2,
    run_sssp_timing,
    run_summa_timing,
    run_table1,
    run_table2,
    sssp_workload,
    table1_workloads,
)
from repro.bench.harness import bench_scale, bench_trials, format_table, write_trace


def print_table1(scale: float) -> None:
    rows = run_table1(scale=scale, trials=bench_trials(3))
    print(
        format_table(
            ["Vertices", "Edges", "Direct Variant (s)", "MapReduce Variant (s)", "direct is faster by"],
            [
                [
                    row.vertices,
                    row.edges,
                    str(row.direct),
                    str(row.mapreduce),
                    f"{row.speedup_percent:+.1f}%",
                ]
                for row in rows
            ],
            title="TABLE I — elapsed time for PageRank variants "
            "(paper: direct 15-19% faster; 28.5/44.8/55.3 s vs 32.9/53.2/63.5 s)",
        )
    )
    print()


def print_table2() -> None:
    result = run_table2()
    steps = list(range(1, len(result["analytic"]) + 1))
    print(
        format_table(
            ["Step"] + [str(s) for s in steps],
            [
                ["paper"] + [str(v) for v in PAPER_TABLE2],
                ["schedule (analytic)"] + [str(v) for v in result["analytic"]],
                ["live job (measured)"] + [str(v) for v in result["measured"]],
            ],
            title="TABLE II — block multiplications in each step (M = N = 3)",
        )
    )
    print()


def print_summa(scale: float) -> None:
    sync, nosync = run_summa_timing(trials=bench_trials(4), scale=scale)
    rows = [
        ["with synchronization", str(sync), "90.0 ± 0.5"],
        ["without synchronization", str(nosync), "51.0 ± 0.5"],
        ["speedup", f"{sync.mean / nosync.mean:.2f}x", "1.76x (bound 7/3 = 2.33x)"],
    ]
    print(
        format_table(
            ["SUMMA 3x3", "measured (s)", "paper (s)"],
            rows,
            title="SECTION V-B — SUMMA matrix multiply, synchronized vs not",
        )
    )
    print()


def print_sssp(scale: float) -> None:
    workload = sssp_workload(scale)
    selective, full_scan = run_sssp_timing(scale=scale, trials=bench_trials(3))
    rows = [
        ["selective enablement", str(selective), "0.21 ± 0.03"],
        ["full scanning", str(full_scan), "78 ± 5"],
        ["speedup", f"{full_scan.mean / selective.mean:.0f}x", "≈370x"],
    ]
    print(
        format_table(
            ["Incremental SSSP", "measured (s)", "paper (s)"],
            rows,
            title=(
                "SECTION V-C — ten batches of "
                f"{workload.changes_per_batch} changes on a "
                f"{workload.n_vertices}-vertex / ~{workload.n_edges}-edge graph "
                "(paper: 10 x 1,000 changes, 100k vertices, ~1.8M edges)"
            ),
        )
    )
    print()


def export_traces(trace_dir: str, scale: float, only: str) -> None:
    """One traced representative run per engine, written as Perfetto JSON."""
    import numpy as np

    from repro.apps.pagerank import PageRankConfig, build_pagerank_table, pagerank_direct
    from repro.apps.summa import BlockGrid, summa_multiply
    from repro.graph.generators import power_law_directed_graph
    from repro.kvstore.partitioned import PartitionedKVStore
    from repro.kvstore.replicated import ReplicatedKVStore

    written = []
    if only in ("all", "table1"):
        store = PartitionedKVStore(n_partitions=6)
        try:
            n_vertices, n_edges = table1_workloads(scale)[0]
            adjacency = power_law_directed_graph(n_vertices, n_edges, seed=2013)
            n = build_pagerank_table(store, "pagerank", adjacency)
            result = pagerank_direct(
                store, "pagerank", n, PageRankConfig(iterations=4), trace=True
            )
            written.append(write_trace(trace_dir, "pagerank_direct", result))
        finally:
            store.close()
    if only in ("all", "summa"):
        grid = BlockGrid(3, 3, 3)
        rng = np.random.default_rng(7)
        size = 48
        a = rng.standard_normal((size, size))
        b = rng.standard_normal((size, size))
        store = ReplicatedKVStore(n_shards=grid.m_rows * grid.n_cols, replication=0)
        try:
            _, result = summa_multiply(
                store, a, b, grid, synchronize=False, trace=True
            )
            written.append(write_trace(trace_dir, "summa_nosync", result))
        finally:
            store.close()
    for path in written:
        if path:
            print(f"wrote trace {path}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.paper", description="Regenerate the paper's evaluation."
    )
    parser.add_argument(
        "only", nargs="?", default="all",
        choices=["all", "table1", "table2", "summa", "sssp"],
        help="run one section (default: all)",
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="also run one traced job per engine and write Perfetto JSON here",
    )
    parser.add_argument(
        "--runtime", metavar="KIND", default=None,
        choices=["threaded", "inline", "process"],
        help="worker-runtime backend for every store (default: "
        "RIPPLE_RUNTIME or threaded)",
    )
    args = parser.parse_args(argv[1:])
    if args.runtime:
        # stores resolve runtime=None through the environment, so one
        # setting reaches every store the experiment sections build
        import os

        os.environ["RIPPLE_RUNTIME"] = args.runtime
    scale = bench_scale()
    only = args.only
    print(f"# Ripple evaluation harness (scale={scale})\n")
    if only in ("all", "table1"):
        print_table1(scale)
    if only in ("all", "table2"):
        print_table2()
    if only in ("all", "summa"):
        print_summa(scale)
    if only in ("all", "sssp"):
        print_sssp(scale)
    trace_dir = args.trace_dir
    if trace_dir is None:
        from repro.bench.harness import bench_trace_dir

        trace_dir = bench_trace_dir()
    if trace_dir:
        import os

        os.makedirs(trace_dir, exist_ok=True)
        export_traces(trace_dir, scale, only)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
