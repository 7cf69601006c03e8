"""Inspect a persistent store from the command line.

Usage::

    python -m repro.tools.inspect DIR                    # list tables
    python -m repro.tools.inspect DIR TABLE              # table summary
    python -m repro.tools.inspect DIR TABLE --items N    # peek at pairs
    python -m repro.tools.inspect DIR TABLE --get KEY    # one lookup
    python -m repro.tools.inspect DIR TABLE --range LO HI  # ordered scan
    python -m repro.tools.inspect DIR --stats            # log I/O counters
    python -m repro.tools.inspect DIR --stats --json     # same, as JSON
    python -m repro.tools.inspect DIR trace [JOB]        # traced-run summary
    python -m repro.tools.inspect DIR trace [JOB] --out F  # write Perfetto JSON
    python -m repro.tools.inspect DIR metrics [JOB]      # job metrics dump

Works on directories created by
:class:`~repro.kvstore.persistent.PersistentKVStore` — the on-disk
store (the HBase-analog).  Keys given on the command line are parsed
as int when possible, else used as strings.

``trace`` and ``metrics`` read the ``__ripple_job_traces`` table that
traced runs (``trace=True`` or ``RIPPLE_TRACE=1``) leave behind; JOB is
the cumulative job sequence number shown by ``--stats``, defaulting to
the most recent traced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NoSuchTableError, StoreError
from repro.kvstore.persistent import PersistentKVStore


def _parse_key(raw: str) -> Any:
    try:
        return int(raw)
    except ValueError:
        return raw


def _stats_doc(store: PersistentKVStore) -> Dict[str, Any]:
    """Collect everything ``--stats`` reports as one JSON-able document."""
    from repro.ebsp.results import JOB_STATS_TABLE

    doc: Dict[str, Any] = {"serde": store.stats.snapshot()}
    runtime = getattr(store, "runtime", None)
    if runtime is not None:
        doc["runtime"] = runtime.stats()
    if store.has_table(JOB_STATS_TABLE):
        jobs = dict(store.get_table(JOB_STATS_TABLE).items())
        if jobs:
            doc["jobs"] = jobs
    checkpoints = _checkpoint_markers(store)
    if checkpoints:
        doc["checkpoints"] = checkpoints
    return doc


def _checkpoint_markers(store: PersistentKVStore) -> Dict[str, Dict[str, Any]]:
    """Last-checkpoint markers by job key (blobs elided — only the
    ``step``/``bytes`` facts are reportable)."""
    from repro.ebsp.checkpoint import CHECKPOINT_TABLE

    if not store.has_table(CHECKPOINT_TABLE):
        return {}
    return {
        str(job_key): {"step": marker["step"], "bytes": marker["bytes"]}
        for job_key, marker in store.get_table(CHECKPOINT_TABLE).items()
        if isinstance(marker, dict) and "step" in marker
    }


def _print_stats(store: PersistentKVStore) -> None:
    """Print the store's serde/batching counters.

    For a freshly opened directory the interesting number is *frames
    replayed* — the recovery cost; after this process has written,
    *batched requests* vs *batched records* shows how well bulk loads
    amortized their log flushes.
    """
    snap = store.stats.snapshot()
    batches = snap["batched_requests"]
    print("store I/O stats:")
    print(f"  frames written:   {snap['marshalled_objects']}"
          f" ({snap['marshalled_bytes']} bytes)")
    print(f"  frames replayed:  {snap['unmarshalled_objects']}")
    print(f"  batched requests: {batches}")
    if batches:
        per_batch = snap["batched_records"] / batches
        print(f"  batched records:  {snap['batched_records']}"
              f" ({per_batch:.1f} per request)")
    else:
        print(f"  batched records:  {snap['batched_records']}")
    runtime = getattr(store, "runtime", None)
    if runtime is not None:
        rt = runtime.stats()
        print("worker runtime:")
        print(f"  kind:             {rt['runtime']} ({rt['n_workers']} workers)")
        print(f"  tasks run:        {rt['tasks']}")
        print(f"  busy seconds:     {rt['busy_seconds']:.3f}")
        print(f"  gang tasks:       {rt['gang_tasks']}")
        if rt["steals"]:
            print(f"  messages stolen:  {rt['steals']}")
        if rt.get("respawns"):
            print(f"  worker respawns:  {rt['respawns']}")
        if rt.get("worker_timeouts"):
            print(f"  task timeouts:    {rt['worker_timeouts']}")
        if rt.get("degraded"):
            print(f"  degraded workers: {sorted(rt['degraded'])}")
        if rt.get("pids"):
            pairs = ", ".join(
                f"{worker}→{pid}" for worker, pid in sorted(rt["pids"].items())
            )
            print(f"  worker pids:      {pairs}")
    _print_job_stats(store)


def _print_job_stats(store: PersistentKVStore) -> None:
    """Print the cumulative job counters the engines left behind, if any."""
    from repro.ebsp.results import JOB_STATS_TABLE

    if not store.has_table(JOB_STATS_TABLE):
        return
    stats = dict(store.get_table(JOB_STATS_TABLE).items())
    if not stats:
        return
    print("job counters (cumulative):")
    print(f"  jobs run:              {stats.get('jobs', 0)}")
    print(f"  steps:                 {stats.get('steps', 0)}")
    print(f"  compute invocations:   {stats.get('compute_invocations', 0)}")
    print(f"  part-steps run:        {stats.get('part_steps_run', 0)}")
    print(f"  parts skipped:         {stats.get('parts_skipped', 0)}")
    print(f"  writeback batches:     {stats.get('state_writeback_batches', 0)}")
    if stats.get("part_step_retries"):
        print(f"  part-step retries:     {stats['part_step_retries']}")
    if stats.get("worker_respawns"):
        print(f"  worker respawns:       {stats['worker_respawns']}")
    if stats.get("worker_timeouts"):
        print(f"  worker timeouts:       {stats['worker_timeouts']}")
    if stats.get("checkpoints_written"):
        print(f"  checkpoints written:   {stats['checkpoints_written']}"
              f" ({stats.get('checkpoint_bytes', 0)} bytes)")
    for job_key, marker in sorted(_checkpoint_markers(store).items()):
        print(f"  last checkpoint:       {job_key!r} @ step {marker['step']}"
              f" ({marker['bytes']} bytes)")


def _load_job_record(
    store: PersistentKVStore, job: Optional[str]
) -> Tuple[Optional[int], Optional[Dict[str, Any]]]:
    """Resolve a ``trace``/``metrics`` JOB argument to its stored record.

    Returns ``(job_seq, record)``; prints the reason and returns
    ``(None, None)`` when nothing matches.
    """
    from repro.ebsp.results import JOB_TRACES_TABLE

    if not store.has_table(JOB_TRACES_TABLE):
        print("no traced jobs recorded (run with trace=True or RIPPLE_TRACE=1)",
              file=sys.stderr)
        return None, None
    table = store.get_table(JOB_TRACES_TABLE)
    if job is None or job == "latest":
        job_seq = table.get("latest")
        if job_seq is None:
            print("no traced jobs recorded yet", file=sys.stderr)
            return None, None
    else:
        try:
            job_seq = int(job)
        except ValueError:
            print(f"bad job id {job!r}: expected an integer or 'latest'",
                  file=sys.stderr)
            return None, None
    record = table.get(job_seq)
    if record is None:
        print(f"no trace recorded for job {job_seq}", file=sys.stderr)
        return None, None
    return job_seq, record


def _cmd_trace(store: PersistentKVStore, args: argparse.Namespace) -> int:
    """``inspect DIR trace [JOB]`` — summarize or export a recorded trace."""
    job_seq, record = _load_job_record(store, args.job)
    if record is None:
        return 1
    trace = record.get("trace") or {}
    events = trace.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    # otherData.lanes maps tid -> lane label.
    lanes = sorted((trace.get("otherData") or {}).get("lanes", {}).values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        print(f"job {job_seq}: wrote {len(events)} trace events to {args.out}")
        return 0
    if args.json:
        json.dump(trace, sys.stdout)
        print()
        return 0
    print(f"trace for job {job_seq}:")
    print(f"  events:  {len(events)} ({len(spans)} spans)")
    print(f"  lanes:   {', '.join(lanes) if lanes else '(none)'}")
    by_name: Dict[str, Tuple[int, float]] = {}
    for event in spans:
        count, total = by_name.get(event["name"], (0, 0.0))
        by_name[event["name"]] = (count + 1, total + event.get("dur", 0))
    for name, (count, total_us) in sorted(
        by_name.items(), key=lambda item: -item[1][1]
    ):
        print(f"  {name:<16} {count:>6} spans  {total_us / 1e6:.3f}s total")
    print("  (use --out FILE to write Perfetto-loadable JSON)")
    return 0


def _cmd_metrics(store: PersistentKVStore, args: argparse.Namespace) -> int:
    """``inspect DIR metrics [JOB]`` — dump a traced run's metrics."""
    job_seq, record = _load_job_record(store, args.job)
    if record is None:
        return 1
    metrics = record.get("metrics") or {}
    if args.json:
        json.dump({"job": job_seq, "metrics": metrics}, sys.stdout)
        print()
        return 0
    print(f"metrics for job {job_seq}:")
    for name in sorted(metrics):
        entry = metrics[name]
        value = entry["value"]
        if isinstance(value, float):
            value = round(value, 6)
        print(f"  {name:<32} {value!r:>16}  ({entry['type']}, {entry['unit']})")
    return 0


def _summarize(store: PersistentKVStore, table_name: str, args: argparse.Namespace) -> int:
    table = store.get_table(table_name)
    print(f"table {table_name!r}: {table.size()} entries, {table.n_parts} parts"
          f"{', ordered' if table.ordered else ''}"
          f"{', ubiquitous' if table.ubiquitous else ''}")
    if args.get is not None:
        key = _parse_key(args.get)
        value = table.get(key)
        if value is None:
            print(f"  {key!r}: <absent>")
            return 1
        print(f"  {key!r}: {value!r}")
    if args.range is not None:
        lo, hi = (_parse_key(raw) for raw in args.range)
        try:
            for key, value in table.range_scan(lo, hi):
                print(f"  {key!r}: {value!r}")
        except StoreError as exc:
            print(f"  error: {exc}", file=sys.stderr)
            return 1
    if args.items:
        shown = 0
        for key, value in table.items():
            print(f"  {key!r}: {value!r}")
            shown += 1
            if shown >= args.items:
                remaining = table.size() - shown
                if remaining > 0:
                    print(f"  ... and {remaining} more")
                break
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.inspect", description="Inspect a persistent Ripple store."
    )
    parser.add_argument("directory", help="store directory")
    parser.add_argument(
        "table", nargs="?",
        help="table to summarize, or the subcommand 'trace' / 'metrics'",
    )
    parser.add_argument(
        "job", nargs="?",
        help="job sequence number for trace/metrics (default: latest)",
    )
    parser.add_argument("--items", type=int, default=0, metavar="N", help="show up to N pairs")
    parser.add_argument("--get", metavar="KEY", help="look up one key")
    parser.add_argument("--range", nargs=2, metavar=("LO", "HI"), help="ordered range scan")
    parser.add_argument(
        "--stats", action="store_true", help="show serde/batching counters"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON (with --stats, trace, or metrics)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="with 'trace': write the Perfetto trace JSON to FILE",
    )
    args = parser.parse_args(argv)

    try:
        store = PersistentKVStore(args.directory)
    except Exception as exc:
        print(f"cannot open store at {args.directory!r}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.table == "trace":
            return _cmd_trace(store, args)
        if args.table == "metrics":
            return _cmd_metrics(store, args)
        if args.job is not None:
            print("a JOB argument only applies to 'trace' and 'metrics'",
                  file=sys.stderr)
            return 2
        if args.table is None:
            if args.stats and args.json:
                json.dump(_stats_doc(store), sys.stdout)
                print()
                return 0
            tables = store.list_tables()
            if not tables:
                print("(no tables)")
            for name in tables:
                table = store.get_table(name)
                print(f"{name}: {table.size()} entries, {table.n_parts} parts")
            if args.stats:
                _print_stats(store)
            return 0
        try:
            status = _summarize(store, args.table, args)
        except NoSuchTableError:
            print(f"no such table: {args.table!r}", file=sys.stderr)
            return 1
        if args.stats:
            if args.json:
                json.dump(_stats_doc(store), sys.stdout)
                print()
            else:
                _print_stats(store)
        return status
    finally:
        store.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
