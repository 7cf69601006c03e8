"""Individual aggregators (paper Section II, "As in Pregel...").

Each aggregator has a name and an aggregation technique.  Compute
invocations contribute values by name; the global aggregation result
becomes readable (by name) in the *following* step.

The implementation follows Section IV-A: partial aggregations are done
independently in each part as components are invoked, then the partials
are returned to the client through the step barrier, merged there and
finished (:mod:`repro.ebsp.engine`).

An aggregator is a fold: ``create`` makes the identity partial, ``add``
folds one contributed value in, ``merge`` combines two partials (must
be associative and commutative — partials arrive in arbitrary order),
and ``finish`` converts the final partial into the value components
read.
"""

from __future__ import annotations

import abc
import heapq
from typing import Any, Callable, Optional

import numpy as np


class Aggregator(abc.ABC):
    """One named aggregation technique."""

    @abc.abstractmethod
    def create(self) -> Any:
        """Return the identity partial."""

    @abc.abstractmethod
    def add(self, partial: Any, value: Any) -> Any:
        """Fold one contributed value into a partial; returns the new partial."""

    @abc.abstractmethod
    def merge(self, a: Any, b: Any) -> Any:
        """Combine two partials; associative and commutative."""

    def finish(self, partial: Any) -> Any:
        """Convert the final partial into the readable result."""
        return partial

    def add_many(self, partial: Any, values: Any) -> Any:
        """Fold a column of contributed values into a partial.

        The batch data plane contributes whole columns at once.  The
        default is the sequential fold; numpy-aware aggregators
        override it with a vectorized reduction (which, like
        :meth:`merge`, may reassociate — contributions must tolerate
        reassociation anyway because partials merge in arbitrary
        order across parts).
        """
        for value in values:
            partial = self.add(partial, value)
        return partial


def _is_typed_column(values: Any) -> bool:
    return isinstance(values, np.ndarray) and values.dtype != object


class SumAggregator(Aggregator):
    """Sum of contributed numbers; identity 0 (or a supplied zero)."""

    def __init__(self, zero: Any = 0):
        self._zero = zero

    def create(self) -> Any:
        return self._zero

    def add(self, partial: Any, value: Any) -> Any:
        return partial + value

    def add_many(self, partial: Any, values: Any) -> Any:
        if _is_typed_column(values):
            if len(values) == 0:
                return partial
            return partial + values.sum()
        return super().add_many(partial, values)

    def merge(self, a: Any, b: Any) -> Any:
        return a + b


class CountAggregator(Aggregator):
    """Number of contributions (the contributed values are ignored)."""

    def create(self) -> int:
        return 0

    def add(self, partial: int, value: Any) -> int:
        return partial + 1

    def add_many(self, partial: int, values: Any) -> int:
        return partial + len(values)

    def merge(self, a: int, b: int) -> int:
        return a + b


#: Types whose mutual comparisons are well-defined orderings.  bool is
#: deliberately in the numeric family (Python's own semantics).
_NUMERIC_FAMILY = (bool, int, float, np.bool_, np.integer, np.floating)
_STR_FAMILY = (str, np.str_)
_BYTES_FAMILY = (bytes, np.bytes_)


def _check_comparable(aggregator: "Aggregator", a: Any, b: Any) -> None:
    """Reject cross-family comparisons before they go silently wrong.

    ``min``/``max`` over mixed types either raises an opaque built-in
    error (str vs int) or — worse — *succeeds* with an order-dependent
    answer (sets under partial ordering, numpy arrays broadcasting).
    Both become a ``TypeError`` that names the aggregator at fault.
    """
    for family in (_NUMERIC_FAMILY, _STR_FAMILY, _BYTES_FAMILY):
        if isinstance(a, family):
            if isinstance(b, family):
                return
            break
    else:
        if type(a) is type(b) and not isinstance(a, (set, frozenset, np.ndarray)):
            return
    raise TypeError(
        f"{type(aggregator).__name__} cannot order "
        f"{type(a).__name__} and {type(b).__name__} contributions; "
        "mixed-type min/max would be silently order-dependent — "
        "contribute values of one comparable type"
    )


class MinAggregator(Aggregator):
    """Minimum of contributed values; ``None`` when nothing contributed.

    Contributions must share one comparable type family; mixing (say)
    strings and numbers raises ``TypeError`` instead of producing an
    order-dependent answer.
    """

    def create(self) -> Any:
        return None

    def add(self, partial: Any, value: Any) -> Any:
        if partial is None:
            return value
        _check_comparable(self, partial, value)
        return min(partial, value)

    def add_many(self, partial: Any, values: Any) -> Any:
        if _is_typed_column(values):
            if len(values) == 0:
                return partial
            low = values.min()
            return low if partial is None else self.add(partial, low)
        return super().add_many(partial, values)

    def merge(self, a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        _check_comparable(self, a, b)
        return min(a, b)


class MaxAggregator(Aggregator):
    """Maximum of contributed values; ``None`` when nothing contributed.

    Contributions must share one comparable type family; mixing (say)
    strings and numbers raises ``TypeError`` instead of producing an
    order-dependent answer.
    """

    def create(self) -> Any:
        return None

    def add(self, partial: Any, value: Any) -> Any:
        if partial is None:
            return value
        _check_comparable(self, partial, value)
        return max(partial, value)

    def add_many(self, partial: Any, values: Any) -> Any:
        if _is_typed_column(values):
            if len(values) == 0:
                return partial
            high = values.max()
            return high if partial is None else self.add(partial, high)
        return super().add_many(partial, values)

    def merge(self, a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        _check_comparable(self, a, b)
        return max(a, b)


class AndAggregator(Aggregator):
    """Logical AND of contributed booleans; identity True."""

    def create(self) -> bool:
        return True

    def add(self, partial: bool, value: Any) -> bool:
        return partial and bool(value)

    def merge(self, a: bool, b: bool) -> bool:
        return a and b


class OrAggregator(Aggregator):
    """Logical OR of contributed booleans; identity False."""

    def create(self) -> bool:
        return False

    def add(self, partial: bool, value: Any) -> bool:
        return partial or bool(value)

    def merge(self, a: bool, b: bool) -> bool:
        return a or b


class TopKAggregator(Aggregator):
    """The k largest contributed values (ties arbitrary), as a sorted list.

    Contributions may be plain comparables or ``(score, payload)``
    tuples when *key* extracts the score.
    """

    def __init__(self, k: int, key: Optional[Callable[[Any], Any]] = None):
        if k <= 0:
            raise ValueError("k must be positive")
        self._k = k
        self._key = key if key is not None else (lambda v: v)

    def create(self) -> list:
        return []

    def add(self, partial: list, value: Any) -> list:
        entry = (self._key(value), id(value), value)
        if len(partial) < self._k:
            heapq.heappush(partial, entry)
        else:
            heapq.heappushpop(partial, entry)
        return partial

    def merge(self, a: list, b: list) -> list:
        merged = list(a)
        for entry in b:
            if len(merged) < self._k:
                heapq.heappush(merged, entry)
            else:
                heapq.heappushpop(merged, entry)
        return merged

    def finish(self, partial: list) -> list:
        return [value for _, _, value in sorted(partial, reverse=True)]


class CollectAggregator(Aggregator):
    """Collect up to *limit* contributed values into a list.

    Useful for debugging and small gather operations; not meant for
    high-volume data movement (use messages or direct output instead).
    """

    def __init__(self, limit: int = 10_000):
        if limit <= 0:
            raise ValueError("limit must be positive")
        self._limit = limit

    def create(self) -> list:
        return []

    def add(self, partial: list, value: Any) -> list:
        if len(partial) < self._limit:
            partial.append(value)
        return partial

    def merge(self, a: list, b: list) -> list:
        room = self._limit - len(a)
        return a + b[:room] if room > 0 else a
