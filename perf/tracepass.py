"""The traced pass: per-layer numbers for one workload.

Three phases replay the same job indices, each on a fresh system after
the workload's warm-ups:

A. *walk* — no HTTP, no front door: each layer's public function is
   called in request-path order inside a span of the recorder below.
B. *front door* — the same requests through ``FrontDoor.submit``, so
   front-door overhead is a difference, not a guess.
C. *HTTP* — the same requests against ``serve.py``, so ``server.http_s``
   is job time over HTTP minus job time at the front door; and the bare
   round trip of ``GET /healthz``, with the client ACKing at once as in
   every timed run and with the kernel's default delayed ACK.

A layer's self time is its span minus its child spans.  Engine-internal
shares come from ``JobResult`` as the engine reports them today; no
span is recorded inside ``src/``.  ``trace_overhead_pct`` is the
recorder's own cost (the time of an empty span, times the spans of a
job) as a share of the traced job: two runs' difference cannot resolve
tens of microseconds in a 0.3 s job.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.ebsp import JobResult, JobScheduler, JobState
from repro.kvstore import PartitionedKVStore
from repro.service import FrontDoor, JobRequest, JobStatus, ResultCache, default_catalog

import layers
from harness import JobClient, Server, failure_reasons
from serve import MAX_CONCURRENT, N_PARTITIONS
from spec import ROOT, metric
from workloads import Request, Workload, check_result, request_key

JOB_TIMEOUT_S = 60.0

#: Traced job indices per workload at ``--seconds 10`` (scaled linearly
#: with ``--seconds``).  A fixed count, so counters that repeat exactly
#: (cache hit ratio, engine steps, spills) compare across commits.
#: Calibrated so the whole pass lasts about ``--seconds``.
TRACED_JOBS = {
    "pagerank.sync": 6,
    "pagerank.proc": 6,
    "sssp.wave": 12,
    "kmeans.agg": 6,
    "summa.nosync": 6,
    "mix.hot": 200,
}


class _Span:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "Recorder", index: int):
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> None:
        self._recorder._open.append(self._index)

    def __exit__(self, *exc: Any) -> None:
        self._recorder._open.pop()
        self._recorder.spans[self._index][4] = time.monotonic()


class Recorder:
    """Spans in memory as ``[name, job, parent, start, end]`` (monotonic
    seconds; parent is an index into ``spans``).  One walk runs on one
    thread, so a stack finds parents."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    def add(self, name: str, job: int, start: float, end: float) -> None:
        """A span timed elsewhere (by callbacks on scheduler threads)."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, job, parent, start, end])

    def span(self, name: str, job: int) -> _Span:
        self.add(name, job, time.monotonic(), 0.0)
        return _Span(self, len(self.spans) - 1)

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per job: span name -> seconds not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[int, Dict[str, float]] = {}
        for (name, job, _, start, end), inside in zip(self.spans, covered):
            by_name = out.setdefault(job, {})
            by_name[name] = by_name.get(name, 0.0) + (end - start - inside)
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        """Trace-event JSON (Perfetto / chrome://tracing): one complete
        event per span, one track per job."""
        origin = min((span[3] for span in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": name, "cat": "perf", "ph": "X", "pid": 1, "tid": job,
                 "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                 "args": {"job": job, "parent": parent}}
                for name, job, parent, start, end in self.spans
            ],
        }


def _span_cost_s() -> float:
    """Seconds one empty span costs."""
    scratch = Recorder()
    started = time.monotonic()
    for _ in range(2000):
        with scratch.span("empty", 0):
            pass
    return (time.monotonic() - started) / 2000


def _result_body(job_id: Any, cached: bool, payload: Any) -> bytes:
    """What ``GET /v1/jobs/{id}/result`` serializes."""
    return json.dumps(
        {"job_id": job_id, "cached": cached, "result": payload}, sort_keys=True
    ).encode("utf-8")


# -- phase A: the walk ---------------------------------------------------------------
class Walk:
    """The request path, layer by layer, over one store."""

    def __init__(self, runtime: str):
        self.store = PartitionedKVStore(n_partitions=N_PARTITIONS, runtime=runtime)
        self.catalog = default_catalog()
        self.cache = ResultCache()
        self.scheduler = JobScheduler(
            self.store, max_concurrent=MAX_CONCURRENT, runtime=runtime
        )

    def close(self) -> None:
        self.scheduler.close()
        self.store.close()

    def job(self, rec: Any, i: int, wire: Request) -> Tuple[Any, Optional[JobResult], int]:
        """One job; returns (payload, engine result or None on a hit,
        result-body bytes)."""
        result = None
        with rec.span("job", i):
            with rec.span("spec.from_wire", i):
                request = JobRequest.from_wire(wire)
            with rec.span("spec.fingerprint", i):
                request.validate()
                fingerprint = request.fingerprint()
            with rec.span("catalog.validate", i):
                self.catalog.validate(request)
            with rec.span("cache.lookup", i):
                payload = self.cache.lookup(self.store, fingerprint)
            if payload is None:
                with rec.span("catalog.prepare", i):
                    prepared = self.catalog.prepare(self.store, request)
                with rec.span("scheduler.run", i):
                    started: List[float] = []
                    handle = self.scheduler.submit(
                        prepared.job,
                        on_start=lambda handle: started.append(time.monotonic()),
                        **prepared.engine_kwargs,
                    )
                    if not handle.wait(JOB_TIMEOUT_S):
                        raise RuntimeError(f"job {i} did not finish")
                    rec.add("scheduler.handoff", i, handle.submitted_at, started[0])
                    rec.add("ebsp.run_job", i, started[0], handle.finished_at)
                if handle.state is not JobState.SUCCEEDED:
                    raise RuntimeError(f"job {i} {handle.state.value}: {handle.error}")
                result = handle.result
                with rec.span("catalog.collect", i):
                    for name in prepared.input_tables:
                        self.store.get_table(name).note_mutation()
                    payload = prepared.collect(self.store, result)
                with rec.span("cache.put", i):
                    self.cache.put(self.store, fingerprint, prepared.input_tables, payload)
            with rec.span("server.json_dumps", i):
                body = _result_body(i, result is None, payload)
        return payload, result, len(body)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _roundtrip_s(netloc: str, quick_ack: bool) -> float:
    """Median time of ``GET /healthz`` on one keep-alive connection."""
    client = JobClient(netloc, quick_ack)
    times = []
    for _ in range(15):
        started = time.monotonic()
        client.get_json("/healthz")
        times.append(time.monotonic() - started)
    client.close()
    return statistics.median(times)


def _engine_metrics(results: List[JobResult]) -> Dict[str, float]:
    """Medians over the traced jobs that reached the engine."""

    def med(read: Any) -> float:
        return _median([float(read(r)) for r in results])

    return {
        "engine.elapsed_s": med(lambda r: r.elapsed_seconds),
        "engine.steps": med(lambda r: r.steps),
        "engine.part_steps_run": med(lambda r: r.part_steps_run),
        "engine.parts_skipped": med(lambda r: r.parts_skipped),
        # worker-seconds summed over parts, so they can exceed elapsed_s
        "engine.compute_parts_s": med(lambda r: r.phase_seconds["compute"]),
        "engine.flush_parts_s": med(lambda r: r.phase_seconds.get("flush", 0.0)),
        "engine.barrier_wait_parts_s": med(
            lambda r: r.phase_seconds.get("barrier_wait", 0.0)
        ),
        "engine.part_step_retries": med(lambda r: r.part_step_retries),
        "runtime.respawns": med(lambda r: r.worker_respawns),
        "async.queue_wait_parts_s": med(lambda r: r.phase_seconds.get("queue_wait", 0.0)),
        "async.messages_sent": med(
            lambda r: 0 if r.synchronized else r.messages_sent
        ),
        "transport.marshalled_bytes": med(lambda r: r.marshalled_bytes),
        "transport.spills_written": med(lambda r: r.spills_written),
        "transport.batches": med(lambda r: r.transport_batches),
    }


class _Tally:
    """Jobs attempted across the phases, and why some failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {}

    def note(self, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures[reason] = self.failures.get(reason, 0) + 1

    def check(self, warmed: Dict[str, Any], wire: Request, payload: Any, hit: bool,
              thorough: bool) -> None:
        """In-process twin of ``harness.failure_reasons``."""
        if hit and request_key(wire) in warmed:
            same = warmed[request_key(wire)] == payload
            self.note(None if same else "cache hit differs from the warmed payload")
        else:
            self.note(check_result(wire, payload, thorough))


def _walk_phase(
    workload: Workload, seed: int, n: int, tally: _Tally, recorder: Recorder
) -> Dict[str, float]:
    walls: List[float] = []
    engine_results: List[JobResult] = []
    body_bytes: List[float] = []
    walk = Walk(workload.runtime)
    try:
        warmed = {}
        for i in workload.warmups:
            wire = workload.request(seed, i)
            payload, _, _ = walk.job(Recorder(), i, wire)  # spans thrown away
            warmed[request_key(wire)] = payload
            tally.check(warmed, wire, payload, False, True)
        for i in range(n):
            wire = workload.request(seed, i)
            started = time.monotonic()
            payload, result, size = walk.job(recorder, i, wire)
            walls.append(time.monotonic() - started)
            tally.check(warmed, wire, payload, result is None, i in (0, n - 1))
            body_bytes.append(size)
            if result is not None:
                engine_results.append(result)
    finally:
        walk.close()

    per_job = recorder.self_times().values()
    self_s = {
        name: _median([by_name.get(name, 0.0) for by_name in per_job])
        for name in {name for by_name in per_job for name in by_name}
    }
    # a job's self times add up to its root span; the root's own self
    # time is what no layer span covers
    covered = [1.0 - by_name["job"] / sum(by_name.values()) for by_name in per_job]

    def self_of(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    wall = _median(walls)
    return {
        "walk.job_s": wall,
        "walk.layers_share_pct": 100.0 * _median(covered),
        "trace_overhead_pct": 100.0 * _span_cost_s() * len(recorder.spans) / n / wall,
        "spec.parse_s": self_of("spec.from_wire", "spec.fingerprint", "catalog.validate"),
        "cache.lookup_s": self_of("cache.lookup", "cache.put"),
        "catalog.prepare_s": self_of("catalog.prepare"),
        "catalog.collect_s": self_of("catalog.collect"),
        "scheduler.handoff_s": self_of("scheduler.handoff"),
        "scheduler.wait_s": self_of("scheduler.run"),
        "ebsp.run_job_s": self_of("ebsp.run_job"),
        "server.json_dumps_s": self_of("server.json_dumps"),
        "server.result_bytes": _median(body_bytes),
        **_engine_metrics(engine_results),
    }


def _frontdoor_phase(workload: Workload, seed: int, n: int, tally: _Tally) -> Dict[str, float]:
    submit_s: List[float] = []
    queue_wait_s: List[float] = []
    job_s: List[float] = []
    with PartitionedKVStore(n_partitions=N_PARTITIONS, runtime=workload.runtime) as store:
        with FrontDoor(
            store, runtime=workload.runtime, max_concurrent=MAX_CONCURRENT
        ) as front_door:
            warmed = {}
            for i in list(workload.warmups) + list(range(n)):
                wire = workload.request(seed, i)
                started = time.monotonic()
                record = front_door.submit(JobRequest.from_wire(wire))
                submitted = time.monotonic()
                if not record.wait(JOB_TIMEOUT_S) or record.status is not JobStatus.DONE:
                    tally.note(f"front door: {record.status.value}")
                    continue
                _result_body(record.job_id, record.cached, record.payload)
                done = time.monotonic()
                if i < 0:
                    warmed[request_key(wire)] = record.payload
                else:
                    submit_s.append(submitted - started)
                    job_s.append(done - started)
                    if record.started_at is not None:
                        queue_wait_s.append(record.started_at - record.created_at)
                tally.check(warmed, wire, record.payload, record.cached, i < 0)
            cache = front_door.cache_stats()
    return {
        "frontdoor.submit_s": _median(submit_s),
        "frontdoor.queue_wait_s": _median(queue_wait_s),
        "frontdoor.job_s": _median(job_s),
        "cache.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
    }


def _http_phase(workload: Workload, seed: int, n: int, tally: _Tally) -> Dict[str, float]:
    server = Server(workload.runtime)
    try:
        client = JobClient(server.netloc)
        warmups = [client.run(workload.request(seed, i)) for i in workload.warmups]
        timed = [client.run(workload.request(seed, i)) for i in range(n)]
        client.close()
        roundtrip_s = {
            quick_ack: _roundtrip_s(server.netloc, quick_ack) for quick_ack in (True, False)
        }
        server.stop()
    finally:
        server.kill()
    for reason in failure_reasons(warmups, timed):
        tally.note(reason)
    return {
        "http.job_s": _median([job.seconds for job in timed if job.status == "done"]),
        "server.roundtrip_s": roundtrip_s[True],
        "server.roundtrip_delayed_ack_s": roundtrip_s[False],
        "admission.refused": sum(1.0 for job in warmups + timed if job.status == "http 429"),
    }


def trace_workload(
    workload: Workload, seed: int, seconds: float, trace_path: Path
) -> Dict[str, Any]:
    """Run the three phases plus the microprobes; write the Chrome
    trace of the walk to *trace_path* (under the repo root)."""
    n = max(2, round(TRACED_JOBS[workload.name] * seconds / 10.0))
    tally = _Tally()
    recorder = Recorder()
    values = _walk_phase(workload, seed, n, tally, recorder)
    with open(trace_path, "w") as out:
        json.dump(recorder.chrome_trace(), out)
    values.update(_frontdoor_phase(workload, seed, n, tally))
    values.update(_http_phase(workload, seed, n, tally))
    values["frontdoor.overhead_s"] = values["frontdoor.job_s"] - values["walk.job_s"]
    values["server.http_s"] = values.pop("http.job_s") - values["frontdoor.job_s"]

    metrics = {name: metric(name, value) for name, value in values.items()}
    metrics.update(layers.probe_all())
    failed = sum(tally.failures.values())
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"traced_jobs": n, "failures": tally.failures,
                   "trace_file": str(trace_path.relative_to(ROOT))},
    }
