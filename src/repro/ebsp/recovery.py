"""Failure injection and the fault-tolerance bookkeeping (paper §IV-A).

The paper outlines recovery for synchronized jobs: keep "a table that
maps shard ID to completed step number, and commit transactions in the
right order; recover from primary shard failure by deleting writes done
by the failed shard(s) and retry."

The synchronous engine implements exactly that shape when constructed
with ``fault_tolerance=True``, as one policy for every failed part-step
— a simulated failure and a lost worker process alike, on every store:

- every part-step buffers its state writes and outgoing spills until a
  single *commit point* at the end of the part-step;
- a progress table maps part → completed step, updated at commit (a
  shipped part-step also retains its result there);
- the driver waits on one future per part-step; a failed one is
  re-driven alone — from its retained partial when the progress table
  says it committed, else after deleting the spills the failed attempt
  shipped, from its retained input spills ("deleting writes done by the
  failed shard and retry").

:class:`FailureInjector` is the testing hook that makes a chosen
part-step raise, lose its worker process, hang, or straggle.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.kvstore.api import KVStore, Table, TableSpec


class SimulatedFailure(Exception):
    """Raised inside a part-step to emulate a primary shard crash."""

    def __init__(self, part: int, step: int):
        super().__init__(f"simulated failure of part {part} at step {step}")
        self.part = part
        self.step = step

    def __reduce__(self):
        return (SimulatedFailure, (self.part, self.step))


class FailureInjector:
    """Schedules part-step failures for tests and ablation benches.

    ``schedule(part, step, times)`` makes the given part-step raise
    :class:`SimulatedFailure` the first *times* times it is attempted;
    ``schedule_kill`` SIGKILLs the worker process running it (a raise
    off the process runtime, where killing the pid would take the whole
    job down); ``schedule_hang`` and ``schedule_delay`` sleep mid-step,
    past or under the runtime's task deadline.  The engine consults
    :meth:`check` once per invocation, *mid-step* — after some state
    writes have been buffered, so recovery has something to discard.

    The ledger is one claim token per scheduled occurrence, created
    with ``O_EXCL`` in a private temporary directory: a claim survives
    the claiming process's own SIGKILL, and a re-driven shipped
    part-step — a fresh pickle of the parent's engine — sees what every
    earlier attempt claimed.  The parent removes the directory when it
    is collected; unpickled copies never do.
    """

    def __init__(self) -> None:
        self._plan: Dict[Tuple[int, int], List[Tuple[str, float, str]]] = {}
        self._dir: Optional[str] = None

    def schedule(self, part: int, step: int, times: int = 1) -> None:
        """Raise :class:`SimulatedFailure` in this part-step, *times* times."""
        self._schedule("raise", part, step, 0.0, times)

    def schedule_kill(self, part: int, step: int, times: int = 1) -> None:
        """SIGKILL the worker running this part-step, *times* times."""
        self._schedule("kill", part, step, 0.0, times)

    def schedule_hang(self, part: int, step: int, seconds: float, times: int = 1) -> None:
        """Sleep *seconds* mid-part-step (pick it past the task deadline)."""
        self._schedule("hang", part, step, seconds, times)

    def schedule_delay(self, part: int, step: int, seconds: float, times: int = 1) -> None:
        """Sleep *seconds* mid-part-step (pick it under the task deadline)."""
        self._schedule("delay", part, step, seconds, times)

    def _schedule(self, kind: str, part: int, step: int, seconds: float, times: int) -> None:
        if times <= 0:
            raise ValueError("times must be positive")
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="ripple_faults_")
            weakref.finalize(self, shutil.rmtree, self._dir, True)
        entries = self._plan.setdefault((part, step), [])
        for _ in range(times):
            token = os.path.join(self._dir, f"{kind}_{part}_{step}_{len(entries)}")
            entries.append((kind, seconds, token))

    def check(self, part: int, step: int) -> None:
        """Fire the first unclaimed occurrence scheduled for this part-step."""
        for kind, seconds, token in self._plan.get((part, step), ()):
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # claimed by an earlier attempt (possibly pre-crash)
            if kind == "kill":
                from repro.runtime.process import current_child_context

                if current_child_context() is not None:
                    os.kill(os.getpid(), signal.SIGKILL)
            elif kind != "raise":
                time.sleep(seconds)
                return
            raise SimulatedFailure(part, step)

    def claimed(self, kind: Optional[str] = None) -> int:
        """How many scheduled occurrences (of *kind*) actually fired."""
        return sum(
            os.path.exists(token)
            for entries in self._plan.values()
            for entry_kind, _, token in entries
            if kind is None or entry_kind == kind
        )

    @property
    def failures_injected(self) -> int:
        """Claimed tokens of every kind (durable across worker deaths)."""
        return self.claimed()


def _progress_part(key: Any) -> int:
    """Progress-table key hash (module-level so the spec pickles).

    Plain int keys are completion marks; ``("partial", part, step)``
    tuples are retained part-step results.  Both hash to the part so a
    part's whole recovery record lives in one partition.
    """
    return key[1] if isinstance(key, tuple) else key


class ProgressTable:
    """The part → completed-step table from the recovery outline."""

    def __init__(self, store: KVStore, name: str, n_parts: int):
        self._table = store.create_table(
            TableSpec(name=name, n_parts=n_parts, key_hash=_progress_part)
        )
        self._n_parts = n_parts

    def mark_completed(self, part: int, step: int) -> None:
        previous = self._table.get(part)
        if previous is not None and previous >= step:
            raise RecoveryError(
                f"part {part} completed step {step} after already completing {previous};"
                " commits are out of order"
            )
        self._table.put(part, step)

    def mark_completed_many(self, parts: List[int], step: int) -> None:
        """Record many parts as having completed *step* in one batch.

        Used for parts skipped by active-part scheduling: a part with no
        inputs for a step is trivially complete, and recording that in
        bulk keeps the bookkeeping cost proportional to activity too.
        """
        if not parts:
            return
        previous = self._table.get_many(parts)
        for part, prev in previous.items():
            if prev is not None and prev >= step:
                raise RecoveryError(
                    f"part {part} completed step {step} after already completing "
                    f"{prev}; commits are out of order"
                )
        self._table.put_many((part, step) for part in parts)

    def completed_step(self, part: int) -> int:
        value = self._table.get(part)
        return -1 if value is None else value

    def min_completed_step(self) -> int:
        # One batched get (one marshalled request per touched partition)
        # instead of a round-trip per part.
        parts = list(range(self._n_parts))
        found = self._table.get_many(parts)
        return min(-1 if found.get(part) is None else found[part] for part in parts)

    def record_partial(self, part: int, step: int, result: Any) -> None:
        """Retain a committed part-step's result.

        Written just *before* the completion mark, on the worker that ran
        the part-step: if the worker dies after committing but before its
        result frame reaches the parent, the engine folds the result from
        here instead of re-driving inputs it already deleted.
        """
        self._table.put(("partial", part, step), result)

    def recorded_partial(self, part: int, step: int) -> Optional[Any]:
        return self._table.get(("partial", part, step))

    def clear_partials(self, parts: List[int], step: int) -> None:
        """Drop retained results once the superstep's fold has consumed them."""
        if parts:
            self._table.delete_many(("partial", part, step) for part in parts)

    @property
    def table(self) -> Table:
        return self._table
