"""The SUMMA EBSP job: same component logic, with or without barriers.

In synchronized mode each compute invocation performs one step of the
schedule in :mod:`repro.apps.summa.schedule` — at most one multiply and
one send per direction, each of the three action streams independently
ordered by batch.  In non-synchronized mode (the job declares
``incremental`` and has neither aggregators nor an aborter, so the
paper's ``no-sync`` rule applies) an invocation simply does *all* the
work its currently held blocks allow: the per-step throttles existed
only to respect barrier semantics, and "each component is able to deal
with blocks as they arrive, regardless of when they arrive".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ebsp.job import Compute, ComputeContext, Job
from repro.ebsp.loaders import EnableKeysLoader, Loader
from repro.ebsp.results import JobResult
from repro.ebsp.runner import run_job
from repro.ebsp.properties import JobProperties
from repro.kvstore.api import KVStore, TableSpec
from repro.obs.metrics import MetricsRegistry
from repro.apps.summa.blocks import BlockGrid, assemble, split
from repro.apps.summa.schedule import _needs_forward

_A = "A"
_B = "B"


class _SummaState:
    """One component's private state: the running C total plus the
    blocks it currently holds and its progress along the three streams."""

    __slots__ = ("c_block", "held_a", "held_b", "sent_a", "sent_b", "next_mul")

    def __init__(self, c_block: np.ndarray, held_a: Dict[int, np.ndarray], held_b: Dict[int, np.ndarray]):
        self.c_block = c_block
        self.held_a = held_a
        self.held_b = held_b
        self.sent_a: set = set()
        self.sent_b: set = set()
        self.next_mul = 0

    def __getstate__(self) -> tuple:
        return (self.c_block, self.held_a, self.held_b, self.sent_a, self.sent_b, self.next_mul)

    def __setstate__(self, state: tuple) -> None:
        (self.c_block, self.held_a, self.held_b, self.sent_a, self.sent_b, self.next_mul) = state


class _SummaCompute(Compute):
    def __init__(
        self,
        grid: BlockGrid,
        synchronized: bool,
        counters: Optional[MetricsRegistry],
        simulated_multiply_seconds: float = 0.0,
    ):
        self._grid = grid
        self._synchronized = synchronized
        self._counters = counters
        self._simulated_multiply_seconds = simulated_multiply_seconds

    # -- stream primitives ----------------------------------------------------
    def _next_unsent(self, holder: int, extent: int, sent: set) -> int:
        """Lowest batch whose forward duty at *holder* is unmet."""
        batch = 0
        while batch < self._grid.batches and (
            not _needs_forward(holder, batch, extent) or batch in sent
        ):
            batch += 1
        return batch

    def _try_send_a(self, ctx: ComputeContext, state: _SummaState, i: int, j: int) -> bool:
        batch = self._next_unsent(j, self._grid.n_cols, state.sent_a)
        if batch < self._grid.batches and batch in state.held_a:
            state.sent_a.add(batch)
            dest = self._grid.key_of(i, (j + 1) % self._grid.n_cols)
            ctx.output_message(dest, (_A, batch, state.held_a[batch]))
            return True
        return False

    def _try_send_b(self, ctx: ComputeContext, state: _SummaState, i: int, j: int) -> bool:
        batch = self._next_unsent(i, self._grid.m_rows, state.sent_b)
        if batch < self._grid.batches and batch in state.held_b:
            state.sent_b.add(batch)
            dest = self._grid.key_of((i + 1) % self._grid.m_rows, j)
            ctx.output_message(dest, (_B, batch, state.held_b[batch]))
            return True
        return False

    def _try_multiply(self, ctx: ComputeContext, state: _SummaState) -> bool:
        batch = state.next_mul
        if batch < self._grid.batches and batch in state.held_a and batch in state.held_b:
            if self._simulated_multiply_seconds > 0.0:
                # Model each component as its own machine whose block
                # multiply takes this long: the sleep releases the GIL,
                # so concurrently-enabled components overlap exactly as
                # the paper's 10 data-container processes did.  (This
                # host has a single core; see DESIGN.md substitutions.)
                import time

                time.sleep(self._simulated_multiply_seconds)
            state.c_block = state.c_block + state.held_a[batch] @ state.held_b[batch]
            state.next_mul += 1
            if self._counters is not None:
                self._counters.counter(f"muls_step_{ctx.step_num}").add()
                self._counters.counter("muls_total").add()
            return True
        return False

    def _drop_spent_blocks(self, state: _SummaState, i: int, j: int) -> None:
        """Release blocks that have been both forwarded (or carry no
        duty) and multiplied — the bounded-buffering virtue of SUMMA."""
        grid = self._grid
        for batch in [b for b in state.held_a if b < state.next_mul]:
            if not _needs_forward(j, batch, grid.n_cols) or batch in state.sent_a:
                del state.held_a[batch]
        for batch in [b for b in state.held_b if b < state.next_mul]:
            if not _needs_forward(i, batch, grid.m_rows) or batch in state.sent_b:
                del state.held_b[batch]

    def _finished(self, state: _SummaState, i: int, j: int) -> bool:
        if state.next_mul < self._grid.batches:
            return False
        a_done = self._next_unsent(j, self._grid.n_cols, state.sent_a) >= self._grid.batches
        b_done = self._next_unsent(i, self._grid.m_rows, state.sent_b) >= self._grid.batches
        return a_done and b_done

    # -- the compute method -------------------------------------------------------
    def compute(self, ctx: ComputeContext) -> bool:
        state: _SummaState = ctx.read_state(0)
        i, j = self._grid.coord_of(ctx.key)
        for message in ctx.input_messages():
            kind, batch, block = message
            (state.held_a if kind == _A else state.held_b)[batch] = block

        if self._synchronized:
            # one schedule step: ≤1 action per stream
            self._try_send_a(ctx, state, i, j)
            self._try_send_b(ctx, state, i, j)
            self._try_multiply(ctx, state)
        else:
            # no barriers: do everything the held blocks allow
            progress = True
            while progress:
                progress = False
                while self._try_send_a(ctx, state, i, j):
                    progress = True
                while self._try_send_b(ctx, state, i, j):
                    progress = True
                while self._try_multiply(ctx, state):
                    progress = True

        self._drop_spent_blocks(state, i, j)
        ctx.write_state(0, state)
        if self._synchronized:
            return not self._finished(state, i, j)
        return False  # no-continue: arrivals drive everything


class _SummaJob(Job):
    def __init__(
        self,
        table_name: str,
        grid: BlockGrid,
        synchronized: bool,
        counters: Optional[MetricsRegistry],
        simulated_multiply_seconds: float = 0.0,
    ):
        self._table_name = table_name
        self._grid = grid
        self._synchronized = synchronized
        self._counters = counters
        self._simulated_multiply_seconds = simulated_multiply_seconds

    def state_table_names(self) -> List[str]:
        return [self._table_name]

    def reference_table(self) -> str:
        return self._table_name

    def get_compute(self) -> Compute:
        return _SummaCompute(
            self._grid,
            self._synchronized,
            self._counters,
            self._simulated_multiply_seconds,
        )

    def loaders(self) -> List[Loader]:
        return [
            EnableKeysLoader(
                self._grid.key_of(i, j) for i, j in self._grid.components
            )
        ]

    def properties(self) -> JobProperties:
        if self._synchronized:
            return JobProperties()
        # messages may be delivered in any grouping as long as each
        # (sender, receiver) channel stays ordered — the SUMMA pattern's
        # exact requirement, hence `incremental`
        return JobProperties(incremental=True, no_continue=True, rare_state=False)


def load_summa_blocks(
    store: KVStore,
    a: np.ndarray,
    b: np.ndarray,
    grid: BlockGrid,
    table_name: str = "summa_blocks",
) -> None:
    """Split ``a`` and ``b`` and seed the component state table.

    Drops and recreates *table_name*: every run starts from the same
    initial block placement (block ``(i, j)`` of A at column holder j,
    of B at row holder i, per the SUMMA distribution).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    a_blocks = split(a, grid.m_rows, grid.batches)
    b_blocks = split(b, grid.batches, grid.n_cols)
    if store.has_table(table_name):
        store.drop_table(table_name)
    table = store.create_table(TableSpec(name=table_name))
    row_sizes = [a_blocks[(i, 0)].shape[0] for i in range(grid.m_rows)]
    col_sizes = [b_blocks[(0, j)].shape[1] for j in range(grid.n_cols)]
    for i, j in grid.components:
        held_a = {j: a_blocks[(i, j)]} if j < grid.batches else {}
        held_b = {i: b_blocks[(i, j)]} if i < grid.batches else {}
        state = _SummaState(
            c_block=np.zeros((row_sizes[i], col_sizes[j])), held_a=held_a, held_b=held_b
        )
        table.put(grid.key_of(i, j), state)


def summa_job(
    table_name: str,
    grid: BlockGrid,
    synchronized: bool = True,
    counters: Optional[MetricsRegistry] = None,
    simulated_multiply_seconds: float = 0.0,
) -> Job:
    """The SUMMA :class:`Job` object, unexecuted.

    Expects the state table seeded by :func:`load_summa_blocks`; read
    the product back with :func:`assemble_summa_result`.
    """
    return _SummaJob(table_name, grid, synchronized, counters, simulated_multiply_seconds)


def assemble_summa_result(
    store: KVStore, grid: BlockGrid, table_name: str = "summa_blocks"
) -> np.ndarray:
    """Assemble the C matrix from a finished SUMMA run's state table."""
    table = store.get_table(table_name)
    c_blocks = {grid.coord_of(key): state.c_block for key, state in table.items()}
    return assemble(c_blocks, grid.m_rows, grid.n_cols)


def summa_multiply(
    store: KVStore,
    a: np.ndarray,
    b: np.ndarray,
    grid: BlockGrid,
    *,
    synchronize: bool = True,
    table_name: str = "summa_blocks",
    counters: Optional[MetricsRegistry] = None,
    simulated_multiply_seconds: float = 0.0,
    **engine_kwargs: Any,
) -> Tuple[np.ndarray, JobResult]:
    """Compute ``a @ b`` with the SUMMA EBSP job; return (C, job result).

    With ``synchronize=True`` the run takes exactly
    :func:`~repro.apps.summa.schedule.schedule_length` steps; with
    ``synchronize=False`` the same job runs barrier-free on the no-sync
    engine (the paper's §V-B speedup).  Pass a
    :class:`~repro.obs.MetricsRegistry` as *counters* to record the
    per-step multiply counts (``muls_step_<n>``, ``muls_total``: the
    Table II instrumentation).

    *simulated_multiply_seconds* > 0 gives each block multiply a fixed
    wall-clock duration (a GIL-releasing sleep), modelling a dedicated
    machine per component — how the timing benchmark surfaces the
    barrier cost on a single-core host (DESIGN.md §2).
    """
    load_summa_blocks(store, a, b, grid, table_name)
    job = summa_job(table_name, grid, synchronize, counters, simulated_multiply_seconds)
    result = run_job(store, job, synchronize=synchronize, **engine_kwargs)
    return assemble_summa_result(store, grid, table_name), result
