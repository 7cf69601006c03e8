"""§V-B — SUMMA matrix multiply with and without synchronization.

Paper: on a 3×3 grid over WebSphere eXtreme Scale, 8 trials each:
90 ± 0.5 s with synchronization vs 51 ± 0.5 s without (1.76×, bounded
by the schedule's 7/3 ≈ 2.33×).  "The computation can finish much
sooner" once the unnecessary global synchronizations are removed.

We run the same job over the WXS-analog store.  The shape assertions:
no-sync is strictly faster, and the speedup does not exceed the 7/3
bound by more than measurement noise.

Each mode gets :data:`WARMUP_ROUNDS` untimed rounds first.  In a fresh
process the first one or two synchronized runs — nine part-steps each
doing a real block multiply at once through multithreaded OpenBLAS —
sometimes take twice as long (0.70–0.86 s instead of 0.40 s on a 2-core
box; never with ``OPENBLAS_NUM_THREADS=1``, never past the second run),
which alone pushed the measured ratio over the bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.summa import BlockGrid, summa_multiply
from repro.bench.experiments import time_summa
from repro.kvstore.replicated import ReplicatedKVStore

from benchmarks.conftest import bench_rounds

GRID = BlockGrid(3, 3, 3)
WARMUP_ROUNDS = 2
_MEANS: dict = {}


@pytest.fixture(scope="module")
def matrix_size(scale) -> int:
    return int(960 * scale ** 0.5)


def test_summa_synchronized(benchmark, matrix_size):
    benchmark.pedantic(
        lambda: time_summa(matrix_size, synchronize=True, grid=GRID),
        rounds=bench_rounds(),
        iterations=1,
        warmup_rounds=WARMUP_ROUNDS,
    )
    _MEANS["sync"] = benchmark.stats.stats.mean


def test_summa_no_synchronization(benchmark, matrix_size):
    benchmark.pedantic(
        lambda: time_summa(matrix_size, synchronize=False, grid=GRID),
        rounds=bench_rounds(),
        iterations=1,
        warmup_rounds=WARMUP_ROUNDS,
    )
    _MEANS["nosync"] = benchmark.stats.stats.mean
    if "sync" in _MEANS:
        speedup = _MEANS["sync"] / _MEANS["nosync"]
        assert speedup > 1.0, (
            f"removing synchronization must help (measured {speedup:.2f}x; "
            "paper: 1.76x)"
        )
        assert speedup < 7 / 3 + 0.5, (
            f"speedup {speedup:.2f}x exceeds the 7/3 schedule bound"
        )
