"""``stable_argsort`` is ``np.argsort(kind="stable")``, faster or not."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.sorting import stable_argsort

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _reference(values):
    return np.argsort(values, kind="stable")


@pytest.mark.parametrize("dtype", INT_DTYPES)
@given(data=st.data())
def test_integer_columns_sort_like_numpy(dtype, data):
    values = data.draw(hnp.arrays(dtype, st.integers(0, 1200)))
    np.testing.assert_array_equal(stable_argsort(values), _reference(values))


@pytest.mark.parametrize("low", [np.iinfo(np.int64).min, -70_000, 0, np.iinfo(np.int64).max - 65_535])
@pytest.mark.parametrize("span", [1, 2, 65_535, 65_536, 1 << 40])
def test_spans_at_the_radix_boundary_and_the_dtype_extremes(low, span):
    rng = np.random.default_rng(span)
    high = min(int(low) + span, np.iinfo(np.int64).max)
    values = np.array(
        [low, high] + rng.integers(low, high, size=1000, endpoint=True).tolist(),
        dtype=np.int64,
    )
    np.testing.assert_array_equal(stable_argsort(values), _reference(values))


def test_floats_and_empty_columns_pass_through():
    floats = np.array([0.5, -1.0, 0.5, np.nan, -0.0, 0.0])
    np.testing.assert_array_equal(stable_argsort(floats), _reference(floats))
    empty = np.empty(0, dtype=np.int64)
    assert stable_argsort(empty).tolist() == []


def test_unorderable_object_keys_still_raise():
    keys = np.empty(3, dtype=object)
    keys[:] = [1, "a", (2,)]
    with pytest.raises(TypeError):
        stable_argsort(keys)
