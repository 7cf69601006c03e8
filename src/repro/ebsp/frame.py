"""The job frame both EBSP engines run inside (paper Sections II and IV-A).

The paper has one K/V EBSP model and two ways to drive its computes:
through synchronization barriers (:class:`~repro.ebsp.engine.SyncEngine`)
or without them, on queue sets under Huang termination
(:class:`~repro.ebsp.async_engine.AsyncEngine`).  Everything that does
not depend on *how* the computes are driven is written once, here:

* construction — the job's :class:`~repro.ebsp.properties.EngineOptions`,
  tracer, compute, aggregators, the job id, the metrics registry, the
  store's worker runtime and the direct exporter, with the job's state
  exporters checked before anything runs;
* the state tables (names, part count, creation), the job's stats
  window, and the broadcast snapshot (:meth:`JobFrame._open`);
* key → part routing, memoized (:meth:`JobFrame._part_of`);
* finishing a run — ``store_*`` deltas, ``runtime.*`` gauges and crash
  counters, the :class:`JobResult` with the engine's plan, trace export,
  the store's job-stats and trace tables, state exporters,
  ``on_complete`` (:meth:`JobFrame._finish_run`);
* the per-invocation state buffer and the write-back cache of every
  compute context (:class:`FrameContext`).

An engine subclasses :class:`JobFrame`, keeps its driving loop, and
sets ``_plan`` from :func:`~repro.ebsp.properties.plan_for`.  The
frame stores no bound method on ``self``: an engine in a reference cycle
outlives its last reference until the cyclic collector runs.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import JobSpecError
from repro.ebsp.job import ComputeContext, Job
from repro.ebsp.properties import EngineOptions
from repro.ebsp.results import JobResult, record_job_stats, record_job_trace
from repro.kvstore.api import FnPairConsumer, KVStore, Table, TableSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, resolve_tracer

_job_ids = itertools.count()


def _job_counters(dump: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The job counters of a registry dump: its un-dotted instruments —
    engine counters and high-water marks, as opposed to the dotted
    per-layer ones (``engine.*``, ``runtime.*``).  They are what
    ``JobResult.counters`` reports and what a checkpoint carries."""
    return {name: entry for name, entry in dump.items() if "." not in name}


class FrameContext(ComputeContext):
    """The per-invocation half of both engines' compute contexts.

    Rebound per component by :meth:`_bind`.  State writes collect in a
    per-invocation buffer (``tab_idx → value``, :attr:`_ABSENT` marking
    a delete); :meth:`_finish_invocation` stages it into a *write-back
    cache* that lives as long as the context — one part-step of the
    synchronous engine, one drain of the no-sync engine.  Reads hit the
    cache after first touch, and every dirtied state table commits as
    one batched ``put_many`` (plus one ``delete_many``) in
    :meth:`commit_state` — which also gives fault tolerance its
    deferral for free, since nothing reaches a state table before it.
    """

    _ABSENT = object()

    def __init__(self, engine: "JobFrame"):
        self._engine = engine
        self._key: Any = None
        self._messages: List[Any] = []
        self._state_buffer: Dict[int, Any] = {}
        self._dirty: set = set()
        self.invocations = 0
        # write-back cache: (tab_idx, key) -> value/_ABSENT; holds both
        # read-through results and staged writes
        self._cache: Dict[Tuple[int, Any], Any] = {}
        # staged writes awaiting commit: tab_idx -> {key: value/_ABSENT}
        self._dirty_tabs: Dict[int, Dict[Any, Any]] = {}

    def _bind(self, key: Any, messages: List[Any]) -> None:
        self._key = key
        self._messages = messages
        self._state_buffer = {}
        self._dirty = set()
        self.invocations += 1

    def _finish_invocation(self) -> None:
        """Stage this component's state buffer into the write-back cache."""
        for tab_idx in self._dirty:
            self._stage(tab_idx, self._key, self._state_buffer[tab_idx])

    def _stage(self, tab_idx: int, key: Any, value: Any) -> None:
        self._cache[(tab_idx, key)] = value
        self._dirty_tabs.setdefault(tab_idx, {})[key] = value

    def _stage_many(self, tab_idx: int, keys: List[Any], values: List[Any]) -> None:
        """:meth:`_stage` per aligned ``(key, value)``, in order."""
        self._cache.update(zip(zip(itertools.repeat(tab_idx), keys), values))
        self._dirty_tabs.setdefault(tab_idx, {}).update(zip(keys, values))

    def commit_state(self) -> Tuple[int, int]:
        """Flush staged writes: one batched put (and one batched delete)
        per dirtied state table.  Returns (batches, records)."""
        batches = records = 0
        for tab_idx, pending in self._dirty_tabs.items():
            puts = [
                (key, value)
                for key, value in pending.items()
                if value is not FrameContext._ABSENT
            ]
            deletes = [
                key for key, value in pending.items()
                if value is FrameContext._ABSENT
            ]
            table = self._engine._state_tables[tab_idx]
            if puts:
                table.put_many(puts)
                batches += 1
                records += len(puts)
            if deletes:
                table.delete_many(deletes)
                batches += 1
                records += len(deletes)
        self._dirty_tabs = {}
        return batches, records

    @property
    def key(self) -> Any:
        return self._key

    def _check_tab(self, tab_idx: int) -> None:
        if not 0 <= tab_idx < len(self._engine._state_tables):
            raise IndexError(
                f"state table index {tab_idx} out of range "
                f"(job has {len(self._engine._state_tables)} state tables)"
            )

    def read_state(self, tab_idx: int) -> Any:
        self._check_tab(tab_idx)
        if tab_idx in self._state_buffer:
            value = self._state_buffer[tab_idx]
            return None if value is FrameContext._ABSENT else value
        cache_key = (tab_idx, self._key)
        try:
            value = self._cache[cache_key]
        except KeyError:
            value = self._engine._state_tables[tab_idx].get(self._key)
            # negative results cache too (as _ABSENT), so a re-read of a
            # missing key stays local to the context
            self._cache[cache_key] = FrameContext._ABSENT if value is None else value
            return value
        return None if value is FrameContext._ABSENT else value

    def write_state(self, tab_idx: int, state: Any) -> None:
        self._check_tab(tab_idx)
        if state is None:
            raise ValueError("None is not a storable state; use delete_state()")
        self._state_buffer[tab_idx] = state
        self._dirty.add(tab_idx)

    def read_write_state(self, tab_idx: int) -> Any:
        state = self.read_state(tab_idx)
        if state is not None:
            self._state_buffer[tab_idx] = state
            self._dirty.add(tab_idx)
        return state

    def delete_state(self, tab_idx: int) -> None:
        self._check_tab(tab_idx)
        self._state_buffer[tab_idx] = FrameContext._ABSENT
        self._dirty.add(tab_idx)

    def input_messages(self) -> Iterator[Any]:
        return iter(self._messages)

    def get_broadcast_datum(self, key: Any) -> Any:
        return self._engine._broadcast.get(key)


class JobFrame:
    """One job's engine-independent lifecycle over a given store."""

    def __init__(self, store: KVStore, job: Job, options: EngineOptions):
        self._store = store
        self._job = job
        self._options = options
        self._tracer: Tracer = resolve_tracer(options.trace)
        self._compute = job.get_compute()
        self._aggs = dict(job.aggregators())
        # a misnamed exporter is a spec error: refuse before any compute
        # runs or any table is created
        names = job.state_table_names()
        for table_name in job.state_exporters():
            if table_name not in names:
                raise JobSpecError(
                    f"state exporter for {table_name!r}, which is not a state table"
                )
        self._metrics = MetricsRegistry()
        self._direct_exporter = job.direct_output_exporter()
        self._jid = next(_job_ids)
        self._runtime = getattr(store, "runtime", None)
        # key -> part memo for the engine-side routing lookup
        self._part_cache: Dict[Any, int] = {}

    # -- setup -----------------------------------------------------------------
    def _open(self) -> None:
        """Resolve the state tables, open the job's stats window, and
        snapshot the broadcast table — in that order, so the job's
        counters include the broadcast read but not table creation."""
        self._resolve_tables()
        # Baselines for the store's marshalling/batching statistics and
        # the worker runtime's counters, so the result reports this
        # job's own I/O and execution profile rather than lifetime
        # totals.  A stats window scopes windowed maxima (queue depth)
        # to this job.
        store_stats = getattr(self._store, "stats", None)
        self._stats_baseline = store_stats.snapshot() if store_stats is not None else None
        if self._runtime is not None:
            begin_window = getattr(self._runtime, "begin_stats_window", None)
            if begin_window is not None:
                begin_window()
        self._runtime_baseline = self._runtime.stats() if self._runtime is not None else None
        self._broadcast = self._snapshot_broadcast()

    def _resolve_tables(self) -> None:
        names = self._job.state_table_names()
        if len(set(names)) != len(names):
            raise JobSpecError(f"duplicate state table names: {names}")
        reference_name = self._job.reference_table()
        n_parts: Optional[int] = None
        if reference_name is not None:
            n_parts = self._store.get_table(reference_name).n_parts
        else:
            for name in names:
                if self._store.has_table(name):
                    n_parts = self._store.get_table(name).n_parts
                    break
        if n_parts is None:
            n_parts = self._store.default_n_parts
        self.n_parts = n_parts

        self._state_tables: List[Table] = []
        for name in names:
            if self._store.has_table(name):
                table = self._store.get_table(name)
                if table.n_parts != n_parts:
                    raise JobSpecError(
                        f"state table {name!r} has {table.n_parts} parts; "
                        f"the job is partitioned into {n_parts}"
                    )
            else:
                table = self._store.create_table(TableSpec(name=name, n_parts=n_parts))
            self._state_tables.append(table)

    def _snapshot_broadcast(self) -> Dict[Any, Any]:
        name = self._job.broadcast_table()
        if name is None:
            return {}
        return dict(self._store.get_table(name).items())

    # -- routing ---------------------------------------------------------------
    def _part_of(self, key: Any) -> int:
        try:
            return self._part_cache[key]
        except KeyError:
            pass
        except TypeError:  # unhashable key: route without caching
            return self._compute_part_of(key)
        part = self._compute_part_of(key)
        self._part_cache[key] = part
        return part

    def _compute_part_of(self, key: Any) -> int:
        if self._state_tables:
            return self._state_tables[0].part_of(key)
        from repro.util.hashing import part_for_key

        return part_for_key(key, self.n_parts)

    # -- finishing a run -------------------------------------------------------
    def _finish_run(self, started: float, **fields: Any) -> JobResult:
        """Assemble this run's :class:`JobResult` from the engine's own
        *fields* (steps, aggregates, …) and the frame's metrics; record
        it with the store, export outputs, and call ``on_complete``."""
        self._capture_store_stats()
        worker_stats = self._capture_runtime_stats()
        metrics = self._metrics.dump()
        result = JobResult(
            counters={
                name: entry["value"] for name, entry in _job_counters(metrics).items()
            },
            elapsed_seconds=time.monotonic() - started,
            worker_stats=worker_stats,
            metrics=metrics,
            plan=self._plan.as_dict(),
            **fields,
        )
        if self._tracer.enabled:
            from repro.obs.export import export_tracer

            metadata = {"engine": result.plan["engine"], "steps": result.steps}
            result.trace = export_tracer(self._tracer, extra_metadata=metadata)
        job_seq = record_job_stats(self._store, result)
        record_job_trace(self._store, job_seq, result)
        self._export_outputs()
        self._job.on_complete(result)
        return result

    def _capture_store_stats(self) -> None:
        """Record this run's store serde/batching deltas as counters."""
        stats = getattr(self._store, "stats", None)
        if stats is None or self._stats_baseline is None:
            return
        for name, value in stats.snapshot().items():
            delta = value - self._stats_baseline.get(name, 0)
            if delta:
                self._metrics.counter(f"store_{name}").add(delta)

    def _capture_runtime_stats(self) -> Dict[str, Any]:
        """This job's per-worker execution profile (delta over the
        baseline), also surfaced through the registry as gauges — the
        runtime's single-writer hot paths stay lock-free."""
        if self._runtime is None or self._runtime_baseline is None:
            return {}
        from repro.runtime import stats_delta

        stats = stats_delta(self._runtime_baseline, self._runtime.stats())
        if not stats:
            return stats
        self._metrics.gauge("runtime.tasks").set(stats.get("tasks", 0))
        self._metrics.gauge("runtime.busy_seconds", unit="seconds").set(
            stats.get("busy_seconds", 0.0)
        )
        self._metrics.gauge("runtime.steals").set(stats.get("steals", 0))
        # Crash-tolerance counters: how many workers this job lost (and
        # got back), and how many it killed for blowing a task deadline.
        if stats.get("respawns"):
            self._metrics.counter("worker_respawns").add(stats["respawns"])
        if stats.get("worker_timeouts"):
            self._metrics.counter("worker_timeouts").add(stats["worker_timeouts"])
        if stats.get("degraded"):
            self._metrics.gauge("workers_degraded").record_max(len(stats["degraded"]))
        return stats

    def _export_outputs(self) -> None:
        for table_name, exporter in self._job.state_exporters().items():
            table = self._store.get_table(table_name)
            exporter.begin()
            table.enumerate_pairs(
                FnPairConsumer(lambda key, value: exporter.export(key, value))
            )
            exporter.end()
        if self._direct_exporter is not None:
            self._direct_exporter.end()
