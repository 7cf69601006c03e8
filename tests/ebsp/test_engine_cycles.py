"""No reference cycle through a finished SyncEngine, on every part-step shape.

An engine that sits in a cycle (say, a bound method of its own stored
on itself) is freed only by the cyclic collector, so engines — and the
copy a worker unpickles per shipped part-step — pile up between
collections and job time follows the collector's schedule.  With the
collector off, a finished engine must die with its last reference.
Each case runs one shape of part-step: per-key, columnar, the columnar
shape falling back to per-key, and no-collect.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.ebsp.engine import (
    SyncEngine,
    _ColumnarShape,
    _NoCollectShape,
    _PerKeyShape,
)
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.properties import JobProperties
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob
from tests.ebsp.test_batch_compute import DualFaceJob, MixedKeyJob


def _relay(ctx):
    # one message in, at most one message out: a no-collect job
    for value in ctx.input_messages():
        ctx.write_state(0, value)
        if value < 4:
            ctx.output_message(ctx.key + 1, value + 1)
    return False


def _no_collect_job():
    return TestJob(
        _relay,
        loaders=[MessageListLoader([(0, 1), (10, 1)])],
        properties=JobProperties(one_msg=True, no_continue=True),
    )


PLANS = {
    "per-key": (lambda: DualFaceJob(24), {"batch_compute": False}, _PerKeyShape),
    "columnar": (lambda: DualFaceJob(24), {}, _ColumnarShape),
    "fallback": (MixedKeyJob, {}, _ColumnarShape),
    "no-collect": (_no_collect_job, {}, _NoCollectShape),
}


@pytest.mark.parametrize("runtime", ["inline", "threaded"])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_finished_engine_dies_with_its_last_reference(plan, runtime):
    make_job, options, shape = PLANS[plan]
    n_partitions = 1 if plan == "fallback" else 2
    store = PartitionedKVStore(n_partitions=n_partitions, runtime=runtime)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = SyncEngine(store, make_job(), **options)
        assert engine._shape is shape
        result = engine.run()
        assert result.steps > 0
        if plan == "fallback":
            assert result.counters["batch_fallbacks"] == 1
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
        store.close()
