"""SUMMA: Table II schedule, block plumbing, sync & no-sync execution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.summa import (
    BlockGrid,
    assemble,
    multiplications_per_step,
    schedule_length,
    split,
    summa_multiply,
)
from repro.kvstore.local import LocalKVStore
from repro.kvstore.replicated import ReplicatedKVStore
from repro.obs.metrics import MetricsRegistry


class TestSchedule:
    def test_table_two_exact(self):
        """The paper's Table II: 1, 3, 6, 3, 6, 3, 5 for M = N = 3."""
        assert multiplications_per_step(3, 3, 3) == [1, 3, 6, 3, 6, 3, 5]

    def test_total_is_grid_times_batches(self):
        for m, n, l in [(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 2), (4, 2, 2)]:
            assert sum(multiplications_per_step(m, n, l)) == m * n * l

    def test_seven_steps_for_three_by_three(self):
        assert schedule_length(3, 3, 3) == 7

    def test_slowdown_factor(self):
        """7/3: the sync schedule serializes 7 rounds of multiplies even
        though a single component only ever does 3."""
        assert schedule_length(3, 3, 3) / 3 == pytest.approx(7 / 3)

    def test_trivial_grid(self):
        assert multiplications_per_step(1, 1, 1) == [1]

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            multiplications_per_step(0, 3, 3)


class TestBlocks:
    def test_split_assemble_roundtrip(self):
        matrix = np.arange(35.0).reshape(5, 7)
        blocks = split(matrix, 2, 3)
        assert np.array_equal(assemble(blocks, 2, 3), matrix)

    def test_uneven_split_sizes(self):
        blocks = split(np.zeros((7, 5)), 3, 2)
        assert blocks[(0, 0)].shape == (3, 3)
        assert blocks[(2, 1)].shape == (2, 2)

    def test_split_rejects_1d(self):
        with pytest.raises(ValueError):
            split(np.zeros(5), 1, 1)

    def test_grid_key_roundtrip(self):
        grid = BlockGrid(3, 4, 3)
        for i, j in grid.components:
            assert grid.coord_of(grid.key_of(i, j)) == (i, j)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BlockGrid(0, 1, 1)
        with pytest.raises(ValueError):
            BlockGrid(2, 2, 5)


class TestExecution:
    @pytest.fixture
    def store(self):
        instance = LocalKVStore(default_n_parts=3)
        yield instance
        instance.close()

    def test_sync_correct_and_step_count_matches_schedule(self, store):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 24))
        b = rng.standard_normal((24, 27))
        c, result = summa_multiply(store, a, b, BlockGrid(3, 3, 3), synchronize=True)
        assert np.allclose(c, a @ b)
        assert result.steps == schedule_length(3, 3, 3)
        assert result.synchronized

    def test_sync_per_step_multiplications_match_table_two(self, store):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((18, 18))
        b = rng.standard_normal((18, 18))
        counters = MetricsRegistry()
        _, result = summa_multiply(
            store, a, b, BlockGrid(3, 3, 3), synchronize=True, counters=counters
        )
        muls = counters.snapshot()
        observed = [muls.get(f"muls_step_{s}", 0) for s in range(result.steps)]
        assert observed == [1, 3, 6, 3, 6, 3, 5]

    def test_nosync_correct(self, store):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 16))
        b = rng.standard_normal((16, 22))
        c, result = summa_multiply(store, a, b, BlockGrid(3, 3, 3), synchronize=False)
        assert np.allclose(c, a @ b)
        assert not result.synchronized

    def test_nosync_same_multiplication_count(self, store):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        counters = MetricsRegistry()
        summa_multiply(
            store, a, b, BlockGrid(3, 3, 3), synchronize=False, counters=counters
        )
        assert counters.counter("muls_total").value() == 27

    def test_rectangular_grids(self, store):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 6))
        b = rng.standard_normal((6, 10))
        c, _ = summa_multiply(store, a, b, BlockGrid(2, 4, 2), synchronize=True)
        assert np.allclose(c, a @ b)

    def test_shape_mismatch_rejected(self, store):
        with pytest.raises(ValueError):
            summa_multiply(store, np.zeros((3, 4)), np.zeros((5, 3)), BlockGrid(1, 1, 1))

    def test_on_replicated_store(self):
        """The paper ran SUMMA on WXS; we run it on the WXS analog."""
        store = ReplicatedKVStore(n_shards=3, replication=1)
        try:
            rng = np.random.default_rng(6)
            a = rng.standard_normal((15, 15))
            b = rng.standard_normal((15, 15))
            c, _ = summa_multiply(store, a, b, BlockGrid(3, 3, 3), synchronize=False)
            assert np.allclose(c, a @ b)
        finally:
            store.close()

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=3),
        rows=st.integers(min_value=3, max_value=12),
        inner=st.integers(min_value=3, max_value=12),
        cols=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_matches_numpy_for_arbitrary_shapes(self, m, n, rows, inner, cols, seed):
        batches = min(m, n)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        store = LocalKVStore(default_n_parts=2)
        try:
            c, _ = summa_multiply(store, a, b, BlockGrid(m, n, batches), synchronize=True)
            assert np.allclose(c, a @ b)
        finally:
            store.close()
