"""HTTP surface for the front door (``http.server``).

A thin translation layer: JSON bodies become :class:`JobRequest`
objects, front-door errors become status codes (400 for bad specs,
429 + ``Retry-After`` for backpressure, 404 for unknown ids, 409 for
a result that is not ready), and the progress board becomes a
long-poll endpoint plus a Server-Sent-Events stream.  One thread per
connection (``ThreadingHTTPServer``) — long-polls and SSE streams
park their thread on the board's condition variable, not the front
door's lock, so they never block submissions.  Every body is encoded by
:func:`repro.service.wire.encode`; a result body is the fixed envelope
around the bytes the job was encoded to at completion, never
re-encoded per request.

Routes::

    GET  /healthz                      liveness
    GET  /v1/apps                      catalog
    POST /v1/jobs                      submit (202 / 400 / 429)
    GET  /v1/jobs                      list all job records
    GET  /v1/jobs/{id}                 one record
    GET  /v1/jobs/{id}/result          payload (200 / 409)
    POST /v1/jobs/{id}/cancel          best-effort cancel
    GET  /v1/jobs/{id}/events          long-poll: ?since=N&timeout=S
    GET  /v1/jobs/{id}/stream          SSE: ?since=N
    GET  /v1/tenants                   admission accounting
    GET  /v1/cache                     result-cache stats
    GET  /v1/metrics                   registry dump
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    BadRequestError,
    QuotaExceededError,
    ServiceError,
    UnknownServiceJobError,
)
from repro.service.frontdoor import FrontDoor
from repro.service.spec import JobRequest, JobStatus
from repro.service.wire import encode, result_body

#: Cap on one long-poll / SSE wait; clients just reconnect.
MAX_POLL_SECONDS = 30.0


class _Handler(BaseHTTPRequestHandler):
    # set by ServiceServer
    front_door: FrontDoor = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: header and body go out as two writes, and with Nagle
    # on the body would wait for the client's (delayed) ACK of the header.
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args: Any) -> None:  # keep tests quiet
        pass

    # -- plumbing ----------------------------------------------------------------
    def _send_json(self, code: int, payload: Any, headers: Optional[dict] = None) -> None:
        self._send_body(code, encode(payload), headers)

    def _send_body(self, code: int, body: bytes, headers: Optional[dict] = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, headers: Optional[dict] = None) -> None:
        self._send_json(code, {"error": message}, headers)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError:
            raise BadRequestError("request body is not valid JSON")

    def _route(self) -> Tuple[str, dict]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # -- dispatch ----------------------------------------------------------------
    def do_GET(self) -> None:
        path, query = self._route()
        try:
            if path == "/healthz":
                self._send_json(200, {"ok": True})
            elif path == "/v1/apps":
                self._send_json(200, {"apps": self.front_door._catalog.apps()})
            elif path == "/v1/jobs":
                self._send_json(
                    200, {"jobs": [r.describe() for r in self.front_door.jobs()]}
                )
            elif path == "/v1/tenants":
                self._send_json(200, {"tenants": self.front_door.tenants()})
            elif path == "/v1/cache":
                self._send_json(200, self.front_door.cache_stats())
            elif path == "/v1/metrics":
                self._send_json(200, self.front_door.metrics().dump())
            elif path.startswith("/v1/jobs/"):
                self._job_get(path, query)
            else:
                self._error(404, f"no such route: {path}")
        except UnknownServiceJobError as exc:
            self._error(404, str(exc))
        except BadRequestError as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass
        except ServiceError as exc:
            self._error(500, str(exc))

    def _job_get(self, path: str, query: dict) -> None:
        parts = path.split("/")  # ['', 'v1', 'jobs', id, (sub)]
        job_id = parts[3]
        sub = parts[4] if len(parts) > 4 else ""
        if sub == "":
            self._send_json(200, self.front_door.job(job_id).describe())
        elif sub == "result":
            record = self.front_door.job(job_id)
            if record.status is not JobStatus.DONE:
                self._error(
                    409,
                    f"job {job_id} is {record.status.value}"
                    + (f": {record.error}" if record.error else ""),
                )
            else:
                self._send_body(
                    200, result_body(record.job_id, record.cached, record.result_json)
                )
        elif sub == "events":
            since = int(query.get("since", 0))
            timeout = min(float(query.get("timeout", 0.0)), MAX_POLL_SECONDS)
            events = self.front_door.board.events_since(job_id, since, timeout)
            self._send_json(200, {"job_id": job_id, "events": events})
        elif sub == "stream":
            self._stream(job_id, int(query.get("since", 0)))
        else:
            self._error(404, f"no such route: {path}")

    def _stream(self, job_id: str, since: int) -> None:
        """SSE: every board event as one ``data:`` frame, until the job
        is terminal (or the client goes away)."""
        record = self.front_door.job(job_id)  # 404 before committing to SSE
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = since
        terminal = False
        while not terminal:
            events = self.front_door.board.events_since(
                job_id, cursor, timeout=MAX_POLL_SECONDS
            )
            if not events:
                # idle keep-alive; also notices a silently-gone client
                self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
                continue
            for event in events:
                cursor = event["seq"] + 1
                self.wfile.write(
                    b"id: %d\ndata: %s\n\n" % (event["seq"], encode(event))
                )
                if event["kind"] == "status" and JobStatus(
                    event["data"]["status"]
                ).terminal:
                    terminal = True
            self.wfile.flush()
        del record

    def do_POST(self) -> None:
        path, _ = self._route()
        try:
            if path == "/v1/jobs":
                request = JobRequest.from_wire(self._read_body())
                record = self.front_door.submit(request)
                self._send_json(202, record.describe())
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path.split("/")[3]
                self._send_json(
                    200, {"job_id": job_id, "cancelled": self.front_door.cancel(job_id)}
                )
            else:
                self._error(404, f"no such route: {path}")
        except QuotaExceededError as exc:
            self._error(
                429, str(exc), headers={"Retry-After": str(int(exc.retry_after + 0.5))}
            )
        except UnknownServiceJobError as exc:
            self._error(404, str(exc))
        except BadRequestError as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass
        except ServiceError as exc:
            self._error(503, str(exc))


class ServiceServer:
    """Owns the HTTP listener; serve in a daemon thread or foreground."""

    def __init__(self, front_door: FrontDoor, host: str = "127.0.0.1", port: int = 0):
        self._front_door = front_door
        handler = type("BoundHandler", (_Handler,), {"front_door": front_door})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="ripple-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def close(self, timeout: Optional[float] = None) -> bool:
        """Stop the listener, then drain the front door gracefully."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return self._front_door.close(timeout)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
