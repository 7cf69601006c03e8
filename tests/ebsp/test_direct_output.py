"""Direct outputs reach the exporter from the driver, after each barrier.

A synchronous job's part-steps buffer their ``direct_job_output`` pairs
on their results, and the driver exports them once the barrier has
joined every part, in part order.  So the exporter runs on the thread
running the job and sees the inline runtime's sequence on every
runtime, with or without fault tolerance.
"""

from __future__ import annotations

import threading

import pytest

from repro.ebsp.runner import run_job
from repro.kvstore.partitioned import PartitionedKVStore
from tests.ebsp.test_recovery_policy import ChainJob, ListExporter


class ThreadRecordingExporter(ListExporter):
    """Records every export call and the thread that made it."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: set = set()

    def export(self, key, value) -> None:
        super().export(key, value)
        self.threads.add(threading.get_ident())


def _exports(runtime: str, fault_tolerance: bool) -> ThreadRecordingExporter:
    exporter = ThreadRecordingExporter()
    with PartitionedKVStore(n_partitions=4, runtime=runtime) as store:
        run_job(
            store, ChainJob(exporter), synchronize=True, fault_tolerance=fault_tolerance
        )
    return exporter


@pytest.mark.parametrize("fault_tolerance", [False, True], ids=["plain", "fault-tolerant"])
@pytest.mark.parametrize("runtime", ["threaded", "process"])
def test_exports_run_on_the_driver_in_part_order(runtime, fault_tolerance):
    expected = _exports("inline", fault_tolerance).calls
    exporter = _exports(runtime, fault_tolerance)
    assert exporter.threads == {threading.get_ident()}
    assert exporter.calls == expected
