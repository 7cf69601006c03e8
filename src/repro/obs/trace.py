"""Span tracing: where superstep time actually goes.

The paper's argument rests on attributing superstep time to compute,
barrier waits, and message transport.  This module provides the span
tracer the engines, the spill transport, the worker runtime, and the
stores are instrumented with:

- :class:`Tracer` is the **no-op default** — a shared singleton span
  object, no allocation, no clock reads — so instrumented hot paths
  cost one attribute load and an empty context-manager protocol when
  tracing is off.
- :class:`RecordingTracer` is the thread-safe recording implementation:
  spans carry a wall-clock interval (``time.perf_counter`` relative to
  the tracer's epoch), a category, free-form arguments, and a *lane*.

Lanes
-----

A lane is one horizontal track in the exported trace.  Lane labels are
strings resolved per *executing thread*:

- ``driver`` — the engine's own thread (supersteps, barriers,
  aggregation);
- ``worker-<i>`` — runtime worker *i*'s compute track (part-steps,
  no-sync drains, long operations, and the store requests they issue);
- ``rpc-<i>`` — runtime worker *i*'s short-op service lane (the
  request/response table operations it executes for remote callers).

Each lane is written to by at most one thread at a time (lane threads
are single threads; long operations are serialized one-at-a-time per
worker), so spans on a lane always nest
properly — the invariant the Perfetto exporter and the trace-schema
tests rely on.

Activation
----------

Tracing is opt-in per job: engines accept a ``trace=`` kwarg (or the
``RIPPLE_TRACE`` environment variable) and *activate* their tracer for
the duration of the run.  The active tracer is processwide —
instrumented layers fetch it with :func:`get_tracer` — because spans
are emitted from runtime threads the engine does not own.  Concurrent
*traced* jobs therefore share one tracer; concurrent untraced jobs are
unaffected (they see the no-op tracer).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

#: Lane label for code not running on any runtime worker.
DRIVER_LANE = "driver"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded span: a named interval on a lane.

    Times are seconds relative to the tracer's epoch (its construction
    time), so every event in one trace shares a clock.
    """

    name: str
    cat: str
    lane: str
    start: float
    duration: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class _NullSpan:
    """The shared do-nothing span (the disabled path's entire cost)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **args: Any) -> None:
        """Attach arguments to the span (no-op here)."""


NULL_SPAN = _NullSpan()


class Tracer:
    """The no-op tracer: the zero-overhead default.

    Every method is safe to call unconditionally; hot paths may
    additionally guard on :attr:`enabled` to skip argument
    construction entirely.
    """

    enabled = False

    def span(self, name: str, cat: str = "", lane: Optional[str] = None, **args: Any) -> Any:
        """A context manager timing the enclosed block; here, a no-op."""
        return NULL_SPAN

    def instant(self, name: str, cat: str = "", lane: Optional[str] = None, **args: Any) -> None:
        """Record a zero-duration marker; here, a no-op."""

    def push_lane(self, lane: str) -> Any:
        """Bind this thread's spans to *lane*; returns a restore token."""
        return None

    def pop_lane(self, token: Any) -> None:
        """Undo a :meth:`push_lane` with its token."""

    def current_lane(self) -> str:
        return DRIVER_LANE


#: The module-level no-op tracer instance layers default to.
NULL_TRACER = Tracer()


class _RecordingSpan:
    """A live span: clock on entry, event appended on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_lane", "_args", "_start")

    def __init__(
        self,
        tracer: "RecordingTracer",
        name: str,
        cat: str,
        lane: Optional[str],
        args: Dict[str, Any],
    ):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._lane = lane
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_RecordingSpan":
        if self._lane is None:
            self._lane = self._tracer.current_lane()
        self._start = self._tracer._clock()
        return self

    def annotate(self, **args: Any) -> None:
        self._args.update(args)

    def __exit__(self, *exc: Any) -> bool:
        end = self._tracer._clock()
        self._tracer._append(
            TraceEvent(
                name=self._name,
                cat=self._cat,
                lane=self._lane or DRIVER_LANE,
                start=self._start - self._tracer.epoch,
                duration=end - self._start,
                args=self._args,
            )
        )
        return False


class RecordingTracer(Tracer):
    """Thread-safe recording tracer.

    Spans may be opened and closed from any thread; the event list is
    appended under a lock at span *exit* only, so an open span costs
    one clock read and no synchronization.
    """

    enabled = True

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self.epoch = self._clock()
        self._lock = threading.Lock()
        self._events: List[TraceEvent] = []
        self._tls = threading.local()

    # -- recording ---------------------------------------------------------
    def span(self, name: str, cat: str = "", lane: Optional[str] = None, **args: Any) -> _RecordingSpan:
        return _RecordingSpan(self, name, cat, lane, args)

    def instant(self, name: str, cat: str = "", lane: Optional[str] = None, **args: Any) -> None:
        self._append(
            TraceEvent(
                name=name,
                cat=cat,
                lane=lane if lane is not None else self.current_lane(),
                start=self._clock() - self.epoch,
                duration=0.0,
                args=args,
            )
        )

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def record_event(
        self,
        name: str,
        cat: str,
        lane: str,
        start: float,
        duration: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append an already-measured span (*start* relative to this
        tracer's epoch).  The replay hook the process runtime uses to
        merge spans recorded in worker processes — ``perf_counter`` is
        CLOCK_MONOTONIC processwide on Linux, so child events rebase
        onto the parent epoch losslessly — into one timeline."""
        self._append(
            TraceEvent(
                name=name,
                cat=cat,
                lane=lane,
                start=start,
                duration=duration,
                args=args if args is not None else {},
            )
        )

    # -- lanes -------------------------------------------------------------
    def push_lane(self, lane: str) -> Any:
        previous = getattr(self._tls, "lane", None)
        self._tls.lane = lane
        return previous

    def pop_lane(self, token: Any) -> None:
        self._tls.lane = token

    def current_lane(self) -> str:
        lane = getattr(self._tls, "lane", None)
        return lane if lane is not None else DRIVER_LANE

    # -- reading -----------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """Snapshot of all recorded events, in completion order."""
        with self._lock:
            return list(self._events)

    def lanes(self) -> List[str]:
        """All lane labels that recorded at least one event."""
        seen: Dict[str, None] = {}
        for event in self.events():
            seen.setdefault(event.lane, None)
        return list(seen)


# -- the processwide active tracer ------------------------------------------

_active: Tracer = NULL_TRACER
_active_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The currently active tracer (the no-op tracer by default)."""
    return _active


class _Activation:
    """Context manager installing a tracer as the processwide active one."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        global _active
        with _active_lock:
            self._previous = _active
            _active = self._tracer
        return self._tracer

    def __exit__(self, *exc: Any) -> bool:
        global _active
        with _active_lock:
            _active = self._previous if self._previous is not None else NULL_TRACER
        return False


def activate(tracer: Tracer) -> _Activation:
    """``with activate(tracer):`` — install *tracer* for the block."""
    return _Activation(tracer)


# -- opt-in resolution -------------------------------------------------------

_TRUTHY = ("1", "true", "yes", "on")


def env_trace_enabled() -> bool:
    """Whether ``RIPPLE_TRACE`` asks for tracing."""
    return os.environ.get("RIPPLE_TRACE", "").strip().lower() in _TRUTHY


def resolve_tracer(trace: Union[bool, Tracer, None]) -> Tracer:
    """Resolve an engine's ``trace=`` kwarg to a tracer instance.

    ``None`` defers to the ``RIPPLE_TRACE`` environment variable;
    ``True`` builds a fresh :class:`RecordingTracer`; ``False`` forces
    the no-op tracer; a :class:`Tracer` instance is used as-is.
    """
    if isinstance(trace, Tracer):
        return trace
    if trace is None:
        trace = env_trace_enabled()
    return RecordingTracer() if trace else NULL_TRACER
