"""Thread-hygiene regression tests (issue: lossy/leaky shutdown).

Closing any store variant must (a) not drop in-flight async writes and
(b) return the process to its pre-construction thread count — no
orphaned lane threads or long-pool threads.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.ebsp.scheduler import JobScheduler
from repro.kvstore.api import FnPartConsumer, TableSpec

from tests.conftest import STORE_KINDS, make_store


def _thread_count_returns_to(baseline: int, timeout: float = 5.0) -> bool:
    """Poll until the interpreter's thread count drops back to *baseline*
    (finished daemon threads may need a moment to be reaped)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if threading.active_count() <= baseline:
            return True
        time.sleep(0.01)
    return False


def _exercise(store) -> None:
    """Touch every execution path that historically owned threads."""
    table = store.create_table(TableSpec(name="t", n_parts=4))
    table.put_many((i, i) for i in range(32))
    for i in range(8):
        table.put(100 + i, i)
    if hasattr(table, "put_async"):
        table.put_async(200, "x").result()
    if hasattr(table, "put_many_async"):
        for future in table.put_many_async((300 + i, i) for i in range(16)):
            future.result()
    total = table.enumerate_parts(FnPartConsumer(lambda i, v: len(v), lambda a, b: a + b))
    assert total > 0
    table.run_collocated(1, lambda i, v: v.get(101))


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_store_close_leaves_no_threads(kind, tmp_path):
    baseline = threading.active_count()
    store = make_store(kind, tmp_path)
    _exercise(store)
    store.close()
    assert _thread_count_returns_to(baseline), (
        f"{kind} store leaked threads: "
        f"{[t.name for t in threading.enumerate()]}"
    )


@pytest.mark.parametrize("kind", ["partitioned", "replicated"])
def test_close_drains_in_flight_writes(kind, tmp_path):
    """close() must apply writes accepted before it was called, not
    drop them (the old ``shutdown(wait=False)`` behaviour)."""
    store = make_store(kind, tmp_path)
    table = store.create_table(TableSpec(name="t", n_parts=4))
    futures = list(table.put_many_async((i, i * 2) for i in range(500)))
    store.close()
    assert all(f.done() for f in futures)
    for f in futures:
        assert f.exception() is None


def test_store_close_is_idempotent_everywhere(tmp_path):
    for kind in STORE_KINDS:
        store = make_store(kind, tmp_path / kind)
        store.close()
        store.close()


def test_context_manager_closes_runtime(tmp_path):
    baseline = threading.active_count()
    for kind in STORE_KINDS:
        with make_store(kind, tmp_path / kind) as store:
            _exercise(store)
    assert _thread_count_returns_to(baseline)


def test_scheduler_shutdown_leaves_no_threads(tmp_path):
    baseline = threading.active_count()
    store = make_store("local", tmp_path)
    scheduler = JobScheduler(store, max_concurrent=2)
    scheduler.shutdown(wait=True)
    store.close()
    assert _thread_count_returns_to(baseline)
