"""The unified metrics registry.

One home, with explicit units, for the engines' job counters, the
stores' serde statistics and the runtime's per-worker stats, so a
benchmark (or ``inspect metrics``) reads every number from one
namespace:

- :class:`Counter` — monotonically increasing sum (``add``);
- :class:`Gauge` — last-written value (``set``), with a
  ``record_max`` variant for high-water marks;
- :class:`Histogram` — count/total/min/max of observed values.

Metric names are dotted paths (``engine.compute_seconds``,
``serde.marshalled_bytes``, ``runtime.tasks``); units are free-form
strings (``"count"``, ``"bytes"``, ``"seconds"``).  All operations are
thread-safe.  Each job's engine writes one registry directly; its
un-dotted names (``messages_sent``, ``spill_in_flight_hwm``) are the
job's ``JobResult.counters``.  ``repro.serde.SerdeStats`` is a facade
over a registry that keeps the stores' ``snapshot()`` key set.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional


class Metric:
    """Base: a named, unit-annotated instrument."""

    kind = "metric"

    __slots__ = ("name", "unit", "_lock")

    def __init__(self, name: str, unit: str):
        self.name = name
        self.unit = unit
        self._lock = threading.Lock()

    def value(self) -> Any:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """A monotone sum.  ``add`` accepts ints or floats."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self, name: str, unit: str):
        super().__init__(name, unit)
        self._value: Any = 0

    def add(self, amount: Any = 1) -> None:
        with self._lock:
            self._value += amount

    def value(self) -> Any:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge(Metric):
    """A last-value instrument, with a max-tracking write mode."""

    kind = "gauge"

    __slots__ = ("_value", "_fn")

    def __init__(self, name: str, unit: str, fn: Optional[Callable[[], Any]] = None):
        super().__init__(name, unit)
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        with self._lock:
            self._value = value

    def record_max(self, value: Any) -> None:
        """Keep the largest reported value (high-water-mark semantics)."""
        with self._lock:
            if value > self._value:
                self._value = value

    def value(self) -> Any:
        if self._fn is not None:
            return self._fn()
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Histogram(Metric):
    """Summary statistics over observed values (no buckets: count, sum,
    min, max are what the benchmarks consume)."""

    kind = "histogram"

    __slots__ = ("count", "total", "min", "max")

    def __init__(self, name: str, unit: str):
        super().__init__(name, unit)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def value(self) -> Dict[str, Any]:
        with self._lock:
            mean = self.total / self.count if self.count else 0.0
            return {
                "count": self.count,
                "total": self.total,
                "mean": mean,
                "min": self.min,
                "max": self.max,
            }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None


class MetricsRegistry:
    """A thread-safe namespace of metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated
    lookups of one name return the same instrument, so callers can
    resolve by name on the hot path without holding references.
    Re-registering a name as a different kind is an error — units,
    however, follow the first registration.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls: type, unit: str, **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, unit, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str, unit: str = "count") -> Counter:
        return self._get_or_create(name, Counter, unit)

    def gauge(self, name: str, unit: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, unit)

    def gauge_fn(self, name: str, fn: Callable[[], Any], unit: str = "") -> Gauge:
        """A callback gauge: reads *fn()* at snapshot time.  Lets
        single-writer counters (the worker runtime's) surface through
        the registry without adding locks to their hot paths."""
        return self._get_or_create(name, Gauge, unit, fn=fn)

    def histogram(self, name: str, unit: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, unit)

    @staticmethod
    def labeled(name: str, **labels: Any) -> str:
        """Canonical labeled metric name: ``name{k=v,...}``, keys sorted.

        The registry is a flat namespace; labels are a naming
        convention, not a dimension model.  Sorting the keys makes the
        name deterministic, so ``labeled("jobs", tenant="a")`` resolves
        to the same instrument from every call site.
        """
        if not labels:
            return name
        inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
        return f"{name}{{{inner}}}"

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """``{name: value}`` for every registered metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.value() for metric in metrics}

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """The full machine-readable form: name → type, unit, value."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            metric.name: {
                "type": metric.kind,
                "unit": metric.unit,
                "value": metric.value(),
            }
            for metric in metrics
        }

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()
