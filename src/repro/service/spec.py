"""Declarative job specifications for the service front door.

A :class:`JobRequest` is what crosses the wire: which catalog app to
run, for which tenant, with what parameters and engine options.  It is
pure data — JSON in, JSON out — so the same spec can arrive over HTTP,
from the CLI, or be built in-process, and two textually different but
semantically identical specs hash to the same :meth:`fingerprint` (the
result-cache key).
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.ebsp.properties import ALLOWED_ENGINE_OPTIONS, SYNC_ONLY_ENGINE_OPTIONS, EngineOptions
from repro.errors import BadRequestError, JobSpecError


class JobStatus(enum.Enum):
    """Lifecycle of a service job, as surfaced to clients.

    ``QUEUED`` means admission control is holding the job (quota or
    conflict); ``ADMITTED`` means it has been handed to the scheduler
    but has not started executing; the rest are self-describing.
    """

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


_TENANT_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

_MAX_PRIORITY = 1000


def _canonical(value: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace variance."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobRequest:
    """One tenant's request to run one catalog app."""

    app: str
    tenant: str = "public"
    params: Mapping[str, Any] = field(default_factory=dict)
    engine: Mapping[str, Any] = field(default_factory=dict)
    #: Lower runs first.  Admission ages queued jobs so a low-priority
    #: job cannot starve behind a stream of high-priority arrivals.
    priority: int = 100

    def validate(self) -> None:
        """Raise :class:`~repro.errors.BadRequestError` on a bad spec.

        App-specific parameter validation happens later, in the
        catalog; this checks only the spec's own shape.
        """
        if not isinstance(self.app, str) or not self.app:
            raise BadRequestError("app must be a non-empty string")
        if not isinstance(self.tenant, str) or not _TENANT_RE.match(self.tenant):
            raise BadRequestError(
                f"tenant {self.tenant!r} is not a valid tenant id "
                "(1-64 chars of [A-Za-z0-9_.-])"
            )
        if not isinstance(self.priority, int) or isinstance(self.priority, bool) or not (
            0 <= self.priority <= _MAX_PRIORITY
        ):
            raise BadRequestError(f"priority must be an int in [0, {_MAX_PRIORITY}]")
        if not isinstance(self.params, Mapping):
            raise BadRequestError("params must be a JSON object")
        try:
            _canonical(dict(self.params))
        except (TypeError, ValueError):
            raise BadRequestError("params must be JSON-serializable")
        if not isinstance(self.engine, Mapping):
            raise BadRequestError("engine must be a JSON object")
        # the whitelist keeps objects (tracers, injectors, callbacks) off
        # the wire; the values are checked where every caller's are
        for key in self.engine:
            if key not in ALLOWED_ENGINE_OPTIONS:
                allowed = ", ".join(sorted(ALLOWED_ENGINE_OPTIONS))
                raise BadRequestError(
                    f"engine option {key!r} is not allowed (allowed: {allowed})"
                )
        try:
            EngineOptions(**self.engine)
        except JobSpecError as exc:
            raise BadRequestError(str(exc)) from None

    def fingerprint(self) -> str:
        """Cache key: sha256 over the canonical (app, params, engine).

        The tenant and priority are deliberately excluded — identical
        work submitted by different tenants is the cache's best case.
        """
        payload = _canonical(
            {"app": self.app, "params": dict(self.params), "engine": dict(self.engine)}
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- wire form -----------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "tenant": self.tenant,
            "params": dict(self.params),
            "engine": dict(self.engine),
            "priority": self.priority,
        }

    @classmethod
    def from_wire(cls, data: Any) -> "JobRequest":
        """Parse and validate a wire-form (JSON-decoded) request."""
        if not isinstance(data, Mapping):
            raise BadRequestError("request body must be a JSON object")
        unknown = set(data) - {"app", "tenant", "params", "engine", "priority"}
        if unknown:
            raise BadRequestError(f"unknown request fields: {sorted(unknown)}")
        if "app" not in data:
            raise BadRequestError("request is missing 'app'")
        request = cls(
            app=data["app"],
            tenant=data.get("tenant", "public"),
            params=data.get("params") or {},
            engine=data.get("engine") or {},
            priority=data.get("priority", 100),
        )
        request.validate()
        return request


def require_params(
    params: Mapping[str, Any],
    required: Mapping[str, type],
    optional: Optional[Mapping[str, type]] = None,
) -> Dict[str, Any]:
    """Catalog-side parameter checking shared by every registered app.

    Returns a plain dict of the validated values with optional keys
    left absent when unset.  ``float`` accepts ints (JSON has one
    number type); ``bool`` is never accepted where a number is wanted.
    """
    optional = optional or {}
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise BadRequestError(f"unknown params: {sorted(unknown)}")
    missing = set(required) - set(params)
    if missing:
        raise BadRequestError(f"missing params: {sorted(missing)}")
    out: Dict[str, Any] = {}
    for name, expected in list(required.items()) + list(optional.items()):
        if name not in params:
            continue
        value = params[name]
        if isinstance(value, bool) and expected is not bool:
            raise BadRequestError(f"param {name!r} must be a {expected.__name__}")
        if expected is float:
            if not isinstance(value, (int, float)):
                raise BadRequestError(f"param {name!r} must be a number")
            value = float(value)
        elif not isinstance(value, expected):
            raise BadRequestError(f"param {name!r} must be a {expected.__name__}")
        out[name] = value
    return out
