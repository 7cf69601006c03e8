"""``BENCHMARK.json`` as the single list of metric names and units."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS: int = BENCHMARK["run_seconds"]
END_TO_END: Dict[str, Dict[str, Any]] = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER: Dict[str, Dict[str, Any]] = {m["name"]: m for m in BENCHMARK["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def metric(name: str, value: float) -> Dict[str, Any]:
    """One reported value, with the unit ``BENCHMARK.json`` declares."""
    declared = END_TO_END.get(name) or PER_LAYER[name]
    return {"value": value, "unit": declared["unit"]}
