"""Compare two sides of ``run.py --out`` results, metric by metric.

    python3 perf/compare.py A.json[,A2.json,...] B.json[,B2.json,...]

One row per workload and end-to-end metric: each side's median (and
quartiles when a side has several files), the ratio B/A with its base,
the bound ``BENCHMARK.json`` fixes, and a verdict:

    unresolved  A's own run-to-run spread is wider than the bound
    worse       B's median is worse than A's by more than the bound
    ok          otherwise

``failed_share`` gets a row too and may not rise at all.  Exits
non-zero when any row is ``worse``.  A/A: give the same commit on both
sides; parent-vs-change: the parent's files first.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional

import spec


def _load(side: str) -> List[dict]:
    documents = []
    for path in side.split(","):
        with open(path) as handle:
            document = json.load(handle)
        if document["trace"]:
            sys.exit(f"{path} holds a traced pass; end-to-end numbers come from --trace 0")
        documents.append(document)
    return documents


def _values(documents: List[dict], workload: str, metric: str) -> List[float]:
    out = []
    for document in documents:
        result = document["workloads"].get(workload)
        if result is None:
            continue
        if metric == "failed_share":
            out.append(result["detail"]["failed_share"])
        else:
            out.append(result["metrics"][metric]["value"])
    return out


def _spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _describe(values: List[float]) -> str:
    text = f"{statistics.median(values):.5g}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" [{q1:.5g}..{q3:.5g}]"
    return text


def compare(base: List[dict], new: List[dict]) -> List[Dict[str, str]]:
    rows = []
    metrics = {**spec.END_TO_END,
               "failed_share": {"unit": "share", "better": "lower", "bound": 0.0}}
    for workload in spec.WORKLOAD_NAMES:
        for name, declared in metrics.items():
            a, b = _values(base, workload, name), _values(new, workload, name)
            if not a or not b:
                continue
            a_med, b_med = statistics.median(a), statistics.median(b)
            bound = declared["bound"]
            if name == "failed_share":
                worse_by, ratio = b_med - a_med, "-"
            else:
                change = (b_med - a_med) / a_med
                worse_by = change if declared["better"] == "lower" else -change
                ratio = f"{b_med / a_med:.3f} of {a_med:.5g} {declared['unit']}"
            spread = _spread(a)
            if spread is not None and spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "A": _describe(a),
                "B": _describe(b), "B/A": ratio, "bound": f"{bound:g}",
                "A spread": "-" if spread is None else f"{spread:.3f}",
                "verdict": verdict,
            })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    rows = compare(_load(argv[0]), _load(argv[1]))
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(row[c]) for row in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(row[c].ljust(widths[c]) for c in columns))
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
