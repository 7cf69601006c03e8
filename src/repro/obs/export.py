"""Exporters: Chrome/Perfetto trace-event JSON and flat metrics dumps.

A recorded trace exports to the Chrome trace-event format (the JSON
flavor Perfetto's UI at https://ui.perfetto.dev opens directly): one
process, one numbered thread ("lane") per tracer lane, spans as ``X``
(complete) events with microsecond timestamps.  Lane labels are
attached as ``thread_name`` metadata events and ordered driver →
workers → rpc lanes → any other via ``thread_sort_index``.

:func:`validate_chrome_trace` is the schema check the tests and the CI
smoke step run against an exported document: required keys, numeric
non-negative timestamps, and proper span nesting per lane.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import DRIVER_LANE, RecordingTracer, TraceEvent

_PID = 1
_US = 1_000_000.0


def _lane_sort_key(lane: str) -> Tuple[int, int, str]:
    """Deterministic lane ordering: driver, workers, rpc lanes, others."""

    def _index(label: str) -> int:
        match = re.search(r"(\d+)$", label)
        return int(match.group(1)) if match else 0

    if lane == DRIVER_LANE:
        return (0, 0, lane)
    if lane.startswith("worker-"):
        return (1, _index(lane), lane)
    if lane.startswith("rpc-"):
        return (2, _index(lane), lane)
    return (3, _index(lane), lane)


def lane_tids(lanes: Iterable[str]) -> Dict[str, int]:
    """Assign a stable numeric thread id to each lane label."""
    ordered = sorted(set(lanes), key=_lane_sort_key)
    return {lane: tid for tid, lane in enumerate(ordered)}


def to_chrome_trace(
    events: List[TraceEvent], extra_metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Render recorded events as a Chrome/Perfetto trace-event document."""
    tids = lane_tids(event.lane for event in events)
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "ripple"},
        }
    ]
    for lane, tid in sorted(tids.items(), key=lambda item: item[1]):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": lane},
            }
        )
        trace_events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    for event in events:
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.cat or "default",
            "ph": "X" if event.duration > 0 else "i",
            "ts": event.start * _US,
            "pid": _PID,
            "tid": tids[event.lane],
        }
        if event.duration > 0:
            record["dur"] = event.duration * _US
        else:
            record["s"] = "t"  # instant scope: thread
        if event.args:
            record["args"] = dict(event.args)
        trace_events.append(record)
    doc: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "lanes": {v: k for k, v in tids.items()}},
    }
    if extra_metadata:
        doc["otherData"].update(extra_metadata)
    return doc


def export_tracer(
    tracer: RecordingTracer, extra_metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Chrome trace-event document for everything *tracer* recorded."""
    return to_chrome_trace(tracer.events(), extra_metadata)


def write_chrome_trace(path: str, doc: Dict[str, Any]) -> None:
    """Write a trace document as JSON (open the file in Perfetto)."""
    with open(path, "w") as fh:
        json.dump(doc, fh)


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a Chrome trace-event document.

    Returns the list of violations (empty means valid): structural
    keys, numeric non-negative ``ts``/``dur``, lane metadata present
    for every referenced tid, and — the property the engines must
    uphold — spans on one lane nest properly (no partial overlap).
    """
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not a dict with a traceEvents list"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    named_tids = set()
    spans_by_tid: Dict[int, List[Tuple[float, float, str]]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"event {i} has unsupported phase {ph!r}")
            continue
        if "name" not in event or "pid" not in event or "tid" not in event:
            problems.append(f"event {i} lacks name/pid/tid")
            continue
        if ph == "M":
            if event["name"] == "thread_name":
                named_tids.add(event["tid"])
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} ({event['name']!r}) has bad ts {ts!r}")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i} ({event['name']!r}) has negative or missing dur {dur!r}"
                )
                continue
            spans_by_tid.setdefault(event["tid"], []).append(
                (float(ts), float(ts) + float(dur), event["name"])
            )
    for tid, spans in spans_by_tid.items():
        if tid not in named_tids:
            problems.append(f"tid {tid} has spans but no thread_name metadata")
        # Sorted by (start, -end): a parent precedes its children.  With
        # a stack, proper nesting means each span starts at or after the
        # top's start and ends at or before the top's end.
        stack: List[Tuple[float, float, str]] = []
        for start, end, name in sorted(spans, key=lambda s: (s[0], -s[1])):
            while stack and start >= stack[-1][1] - 1e-9:
                stack.pop()
            if stack and end > stack[-1][1] + 1e-9:
                problems.append(
                    f"lane tid {tid}: span {name!r} [{start}, {end}] overlaps "
                    f"{stack[-1][2]!r} [{stack[-1][0]}, {stack[-1][1]}] without nesting"
                )
                continue
            stack.append((start, end, name))
    return problems


def metrics_dump(registry: Any) -> Dict[str, Any]:
    """Flat metrics JSON: ``{name: {type, unit, value}}``."""
    return registry.dump()


def write_metrics(path: str, registry: Any) -> None:
    with open(path, "w") as fh:
        json.dump(metrics_dump(registry), fh, indent=2, sort_keys=True, default=str)
