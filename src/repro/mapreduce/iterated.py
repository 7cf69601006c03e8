"""Iterated MapReduce: chained couplets with a convergence test.

This is the baseline architecture the paper improves on: every
iteration costs two synchronizations (map→reduce and the inter-job
barrier) and a full round of table I/O between reduce and the next map.
No benchmark drives it: the Table I MapReduce baseline is
:func:`~repro.apps.pagerank.mapreduce_variant.pagerank_mapreduce`, one
EBSP job that alternates map-like and reduce-like steps.  This driver
is library API for iterating any couplet (the layering integration
test builds PageRank on it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.kvstore.api import KVStore
from repro.mapreduce.api import MapReduceSpec
from repro.mapreduce.engine import MapReduceResult, run_mapreduce


class IterationDecision(enum.Enum):
    """What the convergence test tells the iterated driver to do."""

    CONTINUE = "continue"
    STOP = "stop"


@dataclass
class IteratedResult:
    """Outcome of an iterated run."""

    iterations: int
    couplet_results: List[MapReduceResult] = field(default_factory=list)

    @property
    def total_barriers(self) -> int:
        return sum(r.barriers for r in self.couplet_results)


class IteratedMapReduce:
    """Drives a map-reduce couplet until convergence or an iteration cap.

    Parameters
    ----------
    spec_factory:
        Called with the iteration number, returns that iteration's
        :class:`MapReduceSpec` (pass ``lambda i: spec`` for a fixed
        couplet).
    table:
        The dataset table, read by every map phase and rewritten by
        every reduce phase (the in-place pattern of the paper's
        MapReduce variants).
    until:
        Called after each iteration with ``(store, iteration,
        last_result)``; return :data:`IterationDecision.STOP` to
        finish.  When omitted, the driver runs exactly
        ``max_iterations``.
    """

    def __init__(
        self,
        spec_factory: Callable[[int], MapReduceSpec],
        table: str,
        max_iterations: int,
        until: Optional[
            Callable[[KVStore, int, MapReduceResult], IterationDecision]
        ] = None,
    ):
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        self._spec_factory = spec_factory
        self._table = table
        self._max_iterations = max_iterations
        self._until = until

    def run(self, store: KVStore, **engine_kwargs: Any) -> IteratedResult:
        results: List[MapReduceResult] = []
        for iteration in range(self._max_iterations):
            spec = self._spec_factory(iteration)
            result = run_mapreduce(
                store, spec, self._table, self._table, **engine_kwargs
            )
            results.append(result)
            if self._until is not None:
                decision = self._until(store, iteration, result)
                if decision is IterationDecision.STOP:
                    return IteratedResult(iteration + 1, results)
        return IteratedResult(self._max_iterations, results)
