"""Self-test of the benchmark (``python -m pytest perf -q``; not part of
tier-1).  The two subprocess tests run every workload for one second."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spec  # noqa: E402
from harness import Completed, failure_reasons  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
EXACT_COUNTERS = ("cache.hit_ratio", "engine.steps", "transport.spills_written")


def _run(tmp_path: Path, *args: str) -> dict:
    out = tmp_path / "result.json"
    done = subprocess.run(
        [*RUN, *args, "--out", str(out)], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text())
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return document["workloads"]


def test_workloads_are_those_of_benchmark_json():
    assert list(WORKLOADS) == spec.WORKLOAD_NAMES


def test_same_seed_same_request_sequence():
    for workload in WORKLOADS.values():
        indices = list(workload.warmups) + list(range(60))
        first = [workload.request(5, i) for i in indices]
        assert first == [workload.request(5, i) for i in indices]
        assert first != [workload.request(6, i) for i in indices]


def test_mix_hot_misses_one_job_in_fifty():
    mix = WORKLOADS["mix.hot"]
    pool = {json.dumps(mix.generate(5, i), sort_keys=True) for i in mix.warmups}
    hits = [json.dumps(mix.generate(5, i), sort_keys=True) in pool for i in range(500)]
    assert all(sum(hits[block:block + 50]) == 49 for block in range(0, 500, 50))


def _summa_job(cached: bool = False, spoil: float = 0.0) -> Completed:
    request = {"app": "summa", "tenant": "t",
               "params": {"m": 4, "n": 4, "inner": 4, "seed": 1}}
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    c = a @ b
    c[0, 0] += spoil
    body = json.dumps(
        {"cached": cached, "job_id": "some-job", "result": {"c": c.tolist()}},
        sort_keys=True,
    ).encode()
    return Completed(request, 0.1, "done", cached, body)


def test_corrupted_payload_is_counted_as_a_failure():
    warm = _summa_job()
    good, wrong = _summa_job(), _summa_job(spoil=1e-3)
    truncated = _summa_job()
    truncated.body = truncated.body[:40]
    refused = Completed(warm.request, 0.1, "http 429")
    hit, stale_hit = _summa_job(cached=True), _summa_job(cached=True, spoil=1e-3)
    reasons = failure_reasons([warm], [good, wrong, truncated, refused, hit, stale_hit])
    assert [r is None for r in reasons] == [True, True, False, False, False, True, False]


def test_run_names_exactly_the_declared_metrics(tmp_path):
    results = _run(tmp_path, "--seconds", "1", "--seed", "3")
    assert list(results) == spec.WORKLOAD_NAMES
    for result in results.values():
        assert set(result["metrics"]) == set(spec.END_TO_END)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
        for name, entry in result["metrics"].items():
            assert entry["unit"] == spec.END_TO_END[name]["unit"] and entry["value"] > 0


def test_traced_pass_counters_repeat_exactly(tmp_path):
    args = ("--trace", "1", "--seconds", "2", "--seed", "3",
            "--workload", "sssp.wave", "--workload", "mix.hot")
    first, second = _run(tmp_path, *args), _run(tmp_path, *args)
    for name in ("sssp.wave", "mix.hot"):
        assert set(first[name]["metrics"]) == set(spec.PER_LAYER)
        assert first[name]["correct"] and second[name]["correct"]
        for counter in EXACT_COUNTERS:
            assert first[name]["metrics"][counter] == second[name]["metrics"][counter]
    assert first["mix.hot"]["metrics"]["cache.hit_ratio"]["value"] > 0.4
    trace = json.loads((spec.ROOT / first["sssp.wave"]["detail"]["trace_file"]).read_text())
    assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(trace["traceEvents"][0])
    assert first["sssp.wave"]["metrics"]["walk.layers_share_pct"]["value"] >= 95.0
