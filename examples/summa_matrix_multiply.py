"""Dense matrix multiply by the SUMMA pattern — with the barriers
switched on and off (paper §V-B).

The job pipelines block multicasts along grid rows and columns.  Under
BSP synchronization, the 3×3 example needs 7 steps even though each
component multiplies only 3 blocks (Table II: 1,3,6,3,6,3,5).  Because
the computation only needs per-channel FIFO (the `incremental`
property), Ripple can simply switch the barriers off — "the computation
can finish much sooner".

Run:  python examples/summa_matrix_multiply.py [matrix_size]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.apps.summa import BlockGrid, multiplications_per_step, summa_multiply
from repro.kvstore.replicated import ReplicatedKVStore
from repro.obs import MetricsRegistry


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 240
    grid = BlockGrid(3, 3, 3)
    simulated_t = 0.04  # each component is "a machine" whose multiply takes 40 ms

    print("analytic schedule (Table II):", multiplications_per_step(3, 3, 3))

    rng = np.random.default_rng(42)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    expected = a @ b

    for label, synchronize in [("synchronized", True), ("no-sync", False)]:
        store = ReplicatedKVStore(n_shards=9, replication=0)  # the paper used 10 WXS containers
        counters = MetricsRegistry()
        start = time.monotonic()
        c, result = summa_multiply(
            store,
            a,
            b,
            grid,
            synchronize=synchronize,
            counters=counters,
            simulated_multiply_seconds=simulated_t,
        )
        elapsed = time.monotonic() - start
        store.close()
        assert np.allclose(c, expected), "wrong product!"
        muls = counters.snapshot()
        steps = f"{result.steps} steps" if synchronize else "no steps (event-driven)"
        print(
            f"{label:>12}: {elapsed:5.2f}s | {steps} | "
            f"{muls['muls_total']} block multiplies | correct ✓"
        )
        if synchronize:
            per_step = [muls.get(f"muls_step_{s}", 0) for s in range(result.steps)]
            print(f"{'':>12}  multiplies per step: {per_step}  <- live Table II")
            sync_time = elapsed
        else:
            print(
                f"{'':>12}  speedup from removing barriers: "
                f"{sync_time / elapsed:.2f}x (paper: 1.76x, schedule bound 7/3 ≈ 2.33x)"
            )


if __name__ == "__main__":
    main()
