"""The load generator: server process hygiene, the HTTP job client, and
the timed closed loop of one workload."""

from __future__ import annotations

import http.client
import itertools
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional
from urllib.parse import urlparse

from spec import metric
from workloads import Request, Workload, check_result, request_key

PERF_DIR = Path(__file__).resolve().parent

#: Fresh servers set up per run; ``setup_s`` is their median and the
#: timed loop runs against the last one.
SETUP_REPS = 3
#: Wall-clock allowance per run on top of ``--seconds``: when it runs
#: out the server's process group is killed, which fails every job in
#: flight and ends the run.
DEADLINE_SLACK_S = 90.0
POLL_S = 10.0
_TERMINAL = ("done", "failed", "cancelled")


# -- the server process -------------------------------------------------------------
def _group_pids(pgid: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited while we were listing
            continue
        # "pid (comm) state ppid pgrp ...": comm may hold spaces
        if int(stat.rsplit(")", 1)[1].split()[2]) == pgid:
            pids.append(int(entry))
    return pids


class Server:
    """One ``serve.py`` process in a process group of its own, so its
    worker children can be measured and killed with it."""

    def __init__(self, runtime: str):
        self._proc = subprocess.Popen(
            [sys.executable, str(PERF_DIR / "serve.py"), runtime],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        url = self._proc.stdout.readline().strip()
        if not url:
            self.kill()
            raise RuntimeError("the server exited before printing its URL")
        self.netloc = urlparse(url).netloc

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the server and its worker children."""
        total_kb = 0
        for pid in _group_pids(self._proc.pid):
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def kill(self) -> None:
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._proc.wait()
        self._proc.stdout.close()

    def stop(self) -> None:
        """SIGTERM drain; anything left in the group afterwards is an
        error (a worker that outlived its server would load the next
        workload's cores)."""
        self._proc.send_signal(signal.SIGTERM)
        try:
            code = self._proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            code = None
        survivors = _group_pids(self._proc.pid)
        self.kill()
        if code != 0:
            raise RuntimeError(f"the server did not drain cleanly (exit code {code})")
        if survivors:
            raise RuntimeError(f"worker processes outlived the server: {survivors}")


# -- one job over HTTP ----------------------------------------------------------------
@dataclass
class Completed:
    request: Request
    #: Submit-to-last-result-byte seconds.
    seconds: float
    #: ``done``, another terminal status, or ``http <code>``.
    status: str
    cached: bool = False
    body: bytes = b""


class JobClient:
    """One keep-alive connection; one job at a time.

    The server writes a response's header and body as two segments and
    leaves Nagle on, so the body waits for the client's ACK of the
    header; with the kernel's default delayed ACK that is a 40 ms stall
    per response, which turns job time into a 40 ms staircase that
    hides the server's own work.  The client therefore ACKs at once
    (``TCP_QUICKACK``); the traced pass measures the stall by itself
    (``server.roundtrip_delayed_ack_s``) with *quick_ack* off.
    """

    def __init__(self, netloc: str, quick_ack: bool = True):
        self._conn = http.client.HTTPConnection(netloc, timeout=60.0)
        self._quick_ack = quick_ack

    def close(self) -> None:
        self._conn.close()

    def _call(self, method: str, path: str, body: Optional[bytes] = None):
        self._conn.request(method, path, body, {"Content-Type": "application/json"})
        if self._quick_ack:  # the kernel clears the flag as it sees fit: set it per call
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        response = self._conn.getresponse()
        return response.status, response.read()

    def run(self, request: Request) -> Completed:
        """Submit, long-poll to a terminal status, fetch the result."""
        started = time.perf_counter()
        code, raw = self._call("POST", "/v1/jobs", json.dumps(request).encode())
        if code != 202:
            return Completed(request, time.perf_counter() - started, f"http {code}")
        record = json.loads(raw)
        job_id, status, cursor = record["job_id"], record["status"], 0
        while status not in _TERMINAL:
            code, raw = self._call(
                "GET", f"/v1/jobs/{job_id}/events?since={cursor}&timeout={POLL_S}"
            )
            if code != 200:
                return Completed(request, time.perf_counter() - started, f"http {code}")
            for event in json.loads(raw)["events"]:
                cursor = event["seq"] + 1
                if event["kind"] == "status":
                    status = event["data"]["status"]
        body = b""
        if status == "done":
            code, body = self._call("GET", f"/v1/jobs/{job_id}/result")
            if code != 200:
                status = f"http {code}"
        return Completed(
            request, time.perf_counter() - started, status, record["cached"], body
        )

    def get_json(self, path: str) -> Any:
        code, raw = self._call("GET", path)
        if code != 200:
            raise RuntimeError(f"GET {path}: http {code}")
        return json.loads(raw)


_RESULT_KEY = b'"result": '


def result_bytes(body: bytes) -> bytes:
    """The payload part of a result body (which also names the job)."""
    return body[body.index(_RESULT_KEY) + len(_RESULT_KEY):-1]


# -- checking ---------------------------------------------------------------------------
def failure_reasons(warmups: List[Completed], timed: List[Completed]) -> List[Optional[str]]:
    """Per job of ``warmups + timed``: why it failed, or ``None``.

    Every body gets the cheap checks; warm-ups and the first and last
    timed job are also compared with the reference implementation, and
    a cache hit on a warmed request must equal, byte for byte, the body
    that warmed it (any other cache hit is checked like a fresh result).
    """
    warmed = {request_key(job.request): job for job in warmups}
    thorough = {id(job) for job in warmups + timed[:1] + timed[-1:]}
    reasons: List[Optional[str]] = []
    for job in warmups + timed:
        if job.status != "done":
            reason = job.status
        elif job.cached and request_key(job.request) in warmed:
            warm = warmed[request_key(job.request)]
            same = result_bytes(warm.body) == result_bytes(job.body)
            reason = None if same else "cache hit differs from the warmed body"
        else:
            try:
                result = json.loads(job.body)["result"]
            except (ValueError, KeyError, TypeError):
                reason = "result body is not the expected JSON"
            else:
                reason = check_result(job.request, result, id(job) in thorough)
        reasons.append(reason)
    return reasons


# -- the timed run ------------------------------------------------------------------------
def tail(sorted_values: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    if n < 20:
        return {}
    return {"tail_s": sorted_values[n - 11], "tail_pct": 100.0 * (n - 10) / n}


def run_workload(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """Set up ``SETUP_REPS`` fresh servers, run the closed loop against
    the last for *seconds*, check every result, stop the server."""
    server: Optional[Server] = None
    watchdog = threading.Timer(
        seconds + DEADLINE_SLACK_S, lambda: server is not None and server.kill()
    )
    watchdog.daemon = True
    watchdog.start()
    setups: List[float] = []
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(workload.runtime)
            clients = [JobClient(server.netloc) for _ in range(workload.clients)]
            warmups = [clients[0].run(workload.request(seed, i)) for i in workload.warmups]
            setups.append(time.perf_counter() - started)
            if rep < SETUP_REPS - 1:
                for client in clients:
                    client.close()

        timed: List[Completed] = []
        errors: List[BaseException] = []
        next_index = itertools.count().__next__  # atomic under the GIL
        lock = threading.Lock()
        rss_mb = 0.0
        loop_started = time.perf_counter()
        loop_until = loop_started + seconds

        def client_loop(client: JobClient) -> None:
            nonlocal rss_mb
            while time.perf_counter() < loop_until:
                try:
                    job = client.run(workload.request(seed, next_index()))
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    # the connection is gone; this client cannot go on
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    timed.append(job)
                    sample = len(timed) == workload.rss_after
                if sample:
                    rss_mb = server.peak_rss_mb()

        threads = [
            threading.Thread(target=client_loop, args=(c,), daemon=True) for c in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loop_seconds = time.perf_counter() - loop_started
        if not rss_mb:  # the loop ended before the sampling point
            rss_mb = server.peak_rss_mb()
        cache = clients[0].get_json("/v1/cache") if not errors else {}
        for client in clients:
            client.close()
        server.stop()
    finally:
        watchdog.cancel()
        if server is not None:
            server.kill()

    reasons = failure_reasons(warmups, timed)
    reasons += ["connection lost"] * len(errors)
    failures = {r: reasons.count(r) for r in set(reasons) if r is not None}
    failed = sum(failures.values())
    good = [job for job, r in zip(timed, reasons[len(warmups):]) if r is None]
    if not good:
        raise RuntimeError(f"{workload.name}: no timed job succeeded: {failures}")
    latencies = sorted(job.seconds for job in good)
    return {
        "correct": failed == 0,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {
            "job_s": metric("job_s", statistics.median(latencies)),
            "jobs_per_s": metric("jobs_per_s", len(good) / loop_seconds),
            "setup_s": metric("setup_s", statistics.median(setups)),
            "server_rss_mb": metric("server_rss_mb", rss_mb),
        },
        "detail": {
            "n": len(latencies),
            **tail(latencies),
            "failed_share": failed / len(reasons),
            "failures": failures,
            "loop_s": loop_seconds,
            "setup_s_all": setups,
            "warmup_job_s": [job.seconds for job in warmups],
            "cache": cache,
            "result_bytes": statistics.median(len(job.body) for job in good),
        },
    }
