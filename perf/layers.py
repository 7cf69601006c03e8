"""Microprobes of the layers a caller cannot reach per job.

Each probe calls one layer's public function on records shaped like
the workloads' own (PageRank contribution messages, ``Vertex`` rows, a
SUMMA block) and reports a rate.  A probe repeats its operation for
about ``PROBE_S`` seconds and reports the median repetition.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict

import numpy as np

from repro.apps.pagerank.common import C_TAG, Vertex
from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.transport import MSG, SpillWriter, create_transport_table, encode_spill
from repro.kvstore import KVStore, LocalKVStore, PartitionedKVStore, TableSpec
from repro.runtime import resolve_runtime, shippable
from repro.serde import Codec, pack_payload_column

from serve import N_PARTITIONS
from spec import metric

PROBE_S = 0.15


def _median_seconds(op: Callable[[], Any]) -> float:
    """Median wall time of *op*, repeated for about ``PROBE_S``."""
    times = []
    until = time.perf_counter() + PROBE_S
    while len(times) < 3 or time.perf_counter() < until:
        started = time.perf_counter()
        op()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _pagerank_records(n: int) -> list:
    """Contribution messages as PageRank's compute emits them."""
    return [(MSG, key, (C_TAG, 1.0 / (key + 1))) for key in range(n)]


# -- serde --------------------------------------------------------------------------
def probe_serde() -> Dict[str, Any]:
    codec = Codec()
    out = {}
    shapes = {
        "pagerank": encode_spill(_pagerank_records(512)),  # one sealed spill
        "summa": np.random.default_rng(0).standard_normal((160, 160)),  # one block
    }
    for shape, value in shapes.items():
        data = codec.dumps(value)
        mb = len(data) / 1e6
        for op, run in (("dumps", lambda: codec.dumps(value)),
                        ("loads", lambda: codec.loads(data))):
            name = f"serde.{op}_mb_s.{shape}"
            out[name] = metric(name, mb / _median_seconds(run))
    column = list(np.random.default_rng(0).standard_normal(4096))  # numpy scalars
    out["serde.column_pack_mb_s"] = metric(
        "serde.column_pack_mb_s",
        len(column) * 8 / 1e6 / _median_seconds(lambda: pack_payload_column(column)),
    )
    return out


# -- transport ----------------------------------------------------------------------
def probe_transport() -> Dict[str, Any]:
    records = _pagerank_records(4096)
    steps = iter(range(10**9))
    with PartitionedKVStore(n_partitions=N_PARTITIONS, runtime="threaded") as store:
        transport = create_transport_table(store, "probe_transport", N_PARTITIONS)

        def spill() -> None:
            writer = SpillWriter(
                transport, src_part=0, step=next(steps), n_parts=N_PARTITIONS,
                part_of=lambda key: key % N_PARTITIONS, compact=True,
            )
            for record in records:
                writer.add(record)
            writer.flush_all()

        seconds = _median_seconds(spill)
    name = "transport.spill_records_s"
    return {name: metric(name, len(records) / seconds)}


# -- kvstore ------------------------------------------------------------------------
def _probe_table(store: KVStore) -> Dict[str, float]:
    n = 2000
    pairs = [(key, Vertex(np.arange(8, dtype=np.int64), 1.0 / n)) for key in range(n)]
    keys = [key for key, _ in pairs]
    table = store.create_table(TableSpec(name="probe_table"))
    return {
        "put_many": n / _median_seconds(lambda: table.put_many(pairs)),
        "get_many": n / _median_seconds(lambda: table.get_many(keys)),
        "scan": n / _median_seconds(lambda: table.items()),
    }


def probe_kvstore() -> Dict[str, Any]:
    out = {}
    stores = {
        "local": LocalKVStore,
        "threaded": lambda: PartitionedKVStore(n_partitions=N_PARTITIONS, runtime="threaded"),
        "process": lambda: PartitionedKVStore(n_partitions=N_PARTITIONS, runtime="process"),
    }
    for kind, make in stores.items():
        with make() as store:
            for op, rate in _probe_table(store).items():
                name = f"kvstore.{op}_keys_s.{kind}"
                out[name] = metric(name, rate)
    return out


# -- runtime ------------------------------------------------------------------------
@shippable
def _noop() -> None:
    return None


def probe_runtime() -> Dict[str, Any]:
    out = {}
    for kind in ("inline", "threaded", "process"):
        with resolve_runtime(kind, n_workers=2, name="probe") as runtime:
            seconds = _median_seconds(lambda: runtime.submit(0, _noop).result())
        name = f"runtime.roundtrip_us.{kind}"
        out[name] = metric(name, seconds * 1e6)
    return out


# -- aggregators --------------------------------------------------------------------
def probe_aggregators() -> Dict[str, Any]:
    aggregator = SumAggregator()
    column = np.random.default_rng(0).standard_normal(100_000)
    seconds = _median_seconds(lambda: aggregator.add_many(aggregator.create(), column))
    name = "aggregators.add_many_values_s"
    return {name: metric(name, len(column) / seconds)}


def probe_all() -> Dict[str, Any]:
    """Every probe's metrics, by per-layer metric name."""
    out: Dict[str, Any] = {}
    for probe in (probe_serde, probe_transport, probe_kvstore, probe_runtime,
                  probe_aggregators):
        out.update(probe())
    return out

