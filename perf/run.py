"""The request-path benchmark: one command, every metric by name.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--out FILE]

With ``--trace 0`` (the default) each workload is a timed closed loop
of HTTP jobs against a fresh ``serve.py`` process and the end-to-end
metrics are reported; ``--trace 1`` is the separate traced pass that
reports the per-layer metrics (see ``tracepass.py``).  Every result is
checked for correctness.  Per workload, the last line printed is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import spec

if not (spec.ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no Ripple source tree at {spec.ROOT / 'src'}")
# the checkout's own source, ahead of any installed copy
sys.path.insert(0, str(spec.ROOT / "src"))

from harness import run_workload  # noqa: E402
from tracepass import trace_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Chrome traces of the traced pass land here (gitignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


def _print_report(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} jobs attempted, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:16.6g} {entry['unit']}")
    for key, value in result["detail"].items():
        print(f"  ({key}: {json.dumps(value)})")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="length of one timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, reporting per-layer metrics")
    parser.add_argument("--out", help="write every workload's result to this JSON file")
    args = parser.parse_args(argv)

    results = {}
    for name in args.workload or spec.WORKLOAD_NAMES:
        workload = WORKLOADS[name]
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"{name}.seed{args.seed}.trace.json"
            result = trace_workload(workload, args.seed, args.seconds, trace_path)
        else:
            result = run_workload(workload, args.seed, args.seconds)
        results[name] = result
        _print_report(name, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        sys.stdout.flush()
    if args.out:
        document = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                    "workloads": results}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
