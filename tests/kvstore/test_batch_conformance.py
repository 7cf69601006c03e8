"""Batch operations are their per-key loops, on every store.

``put_many`` must leave a table exactly as a ``put`` per pair would: the
same items in the same per-part insertion order, a key repeated in one
batch at its first position with its last value.  A ``None`` anywhere
is rejected before anything is applied, and one call bumps the
mutation epoch once.  ``get_many`` and ``delete_many`` agree with their
per-key calls across parts.  The ``store`` fixture covers all four
stores; ``RIPPLE_RUNTIME=inline|threaded|process`` re-runs the file on
each worker runtime.

``Table.part_of_many`` routes whole key columns; it must agree with
``part_of`` key by key, or a batch lands away from its key's state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore.api import FnPairConsumer, TableSpec
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.runtime import ProcessRuntime


def part_items(table) -> list:
    """Each part's pairs, in the part's own enumeration order."""
    out = []
    for part in range(table.n_parts):
        pairs: list = []
        table.enumerate_pairs(
            FnPairConsumer(lambda k, v: pairs.append((k, v))), parts=[part]
        )
        out.append(pairs)
    return out


def looped_and_batched(store, pairs, seed=(), **spec):
    """Two tables seeded alike: one fed *pairs* per put, one by put_many."""
    looped = store.create_table(TableSpec(name="looped", **spec))
    batched = store.create_table(TableSpec(name="batched", **spec))
    for table in (looped, batched):
        for key, value in seed:
            table.put(key, value)
    for key, value in pairs:
        looped.put(key, value)
    return looped, batched


INT_PAIRS = [(k, k * 10) for k in range(40)]
MIXED_PAIRS = [(3, "a"), ("s", 1.5), ((1, "x"), [1]), (True, "t"), (7, "b"), (b"raw", 2)]
REPEATS = [(1, "first"), (2, "x"), (1, "second"), (3, "y"), (1, "last"), (2, "z")]


class TestPutMany:
    @pytest.mark.parametrize(
        "pairs", [INT_PAIRS, MIXED_PAIRS, REPEATS], ids=["int", "mixed", "repeats"]
    )
    def test_pairs_equal_the_put_loop(self, store, pairs):
        looped, batched = looped_and_batched(store, pairs, seed=[(5, "old"), (1, "old")])
        batched.put_many(pairs)
        assert part_items(batched) == part_items(looped)

    def test_numpy_integer_keys_equal_the_put_loop(self, store):
        keys = np.arange(-20, 60, 3, dtype=np.int64)
        pairs = [(key, float(key)) for key in keys]
        looped, batched = looped_and_batched(store, pairs)
        batched.put_many(pairs)
        assert part_items(batched) == part_items(looped)

    def test_single_part_batch_equals_the_put_loop(self, store):
        probe = store.create_table(TableSpec(name="probe"))
        keys = [k for k in range(200) if probe.part_of(k) == 2][:25]
        pairs = [(k, str(k)) for k in reversed(keys)]
        looped, batched = looped_and_batched(store, pairs)
        batched.put_many(pairs)
        items = part_items(batched)
        assert items == part_items(looped)
        assert [len(part) for part in items] == [0, 0, len(keys), 0]

    def test_repeated_key_keeps_first_position_and_last_value(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=1))
        table.put_many(REPEATS)
        assert part_items(table) == [[(1, "last"), (2, "z"), (3, "y")]]

    def test_none_anywhere_rejected_with_nothing_applied(self, store):
        table = store.create_table(TableSpec(name="t"))
        table.put(0, "kept")
        before, epoch = part_items(table), table.mutation_epoch
        pairs = [(k, k) for k in range(1, 30)] + [(99, None)] + [(k, k) for k in range(30, 40)]
        with pytest.raises(ValueError):
            table.put_many(pairs)
        assert part_items(table) == before
        assert table.mutation_epoch == epoch

    def test_one_epoch_bump_per_call(self, store):
        table = store.create_table(TableSpec(name="t"))
        epoch = table.mutation_epoch
        table.put_many(INT_PAIRS)
        assert table.mutation_epoch == epoch + 1
        table.get_many(range(40))
        assert table.mutation_epoch == epoch + 1
        table.delete_many(range(0, 40, 2))
        assert table.mutation_epoch == epoch + 2

    def test_ordered_table_stays_sorted(self, store):
        pairs = [(k, k) for k in (17, 3, 11, 3, 40, 8)]
        looped, batched = looped_and_batched(store, pairs, seed=[(5, 5)], ordered=True)
        batched.put_many(pairs)
        assert part_items(batched) == part_items(looped)
        assert batched.range_scan() == looped.range_scan()

    def test_custom_key_hash_routes_per_key(self, store):
        spec = {"key_hash": lambda key: len(str(key))}
        pairs = [(k, k) for k in (1, 22, 333, 4444, 5, 66)]
        looped, batched = looped_and_batched(store, pairs, **spec)
        batched.put_many(pairs)
        assert part_items(batched) == part_items(looped)


class TestGetAndDeleteMany:
    # no key equals another (True == 1), so the result dict keeps each
    KEYS = [0, 2, 3, 5, 9, 13, 21, "s", (1, 2), True, 1000, -4, 77]

    def _filled(self, store, name="t"):
        table = store.create_table(TableSpec(name=name))
        table.put_many([(k, repr(k)) for k in range(0, 30, 3)] + [("s", "S"), ((1, 2), "T")])
        return table

    def test_get_many_agrees_with_get(self, store):
        table = self._filled(store)
        fetched = table.get_many(self.KEYS)
        assert fetched == {key: table.get(key) for key in self.KEYS}

    def test_get_many_of_an_ndarray(self, store):
        table = self._filled(store)
        keys = np.arange(-3, 31, dtype=np.int64)
        assert table.get_many(keys) == {int(k): table.get(int(k)) for k in keys}

    def test_delete_many_agrees_with_delete(self, store):
        table, reference = self._filled(store), self._filled(store, "reference")
        table.delete_many(self.KEYS)
        for key in self.KEYS:
            reference.delete(key)
        assert part_items(table) == part_items(reference)


def test_crash_tolerant_mirror_equals_the_resident_parts():
    """Batch writes journal every pair in applied order, so the parent
    mirror replays into exactly the parts the workers hold."""
    with PartitionedKVStore(
        n_partitions=2, runtime=ProcessRuntime(2), crash_tolerance=True
    ) as store:
        table = store.create_table(TableSpec(name="t", n_parts=4))
        table.put_many([(k, k) for k in range(50)])
        table.put_many([(k, str(k)) for k in range(25, 75)])
        table.put_many(REPEATS)
        table.delete_many(range(0, 75, 7))
        resident = part_items(table)
        mirrors = [
            list(store._mirrors.get((table._uid, part), {}).items())
            for part in range(table.n_parts)
        ]
    assert mirrors == resident
    assert sum(map(len, resident)) == 75 - len(range(0, 75, 7))


# -- part_of_many ---------------------------------------------------------------

KEY = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**63, max_value=2**64 - 1),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.text(max_size=4),
    st.tuples(st.integers(), st.text(max_size=2)),
)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(KEY, max_size=12), n_parts=st.integers(min_value=1, max_value=7))
def test_part_of_many_is_part_of_per_key(keys, n_parts):
    store = LocalKVStore(default_n_parts=n_parts)
    table = store.create_table(TableSpec(name="t"))
    assert table.part_of_many(keys).tolist() == [table.part_of(k) for k in keys]


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=12),
    dtype=st.sampled_from([np.int64, np.int32, np.uint64, np.uint8]),
    n_parts=st.integers(min_value=1, max_value=7),
)
def test_part_of_many_of_an_integer_array_is_part_of_per_key(values, dtype, n_parts):
    keys = np.asarray(values).astype(dtype)
    table = LocalKVStore(default_n_parts=n_parts).create_table(TableSpec(name="t"))
    assert table.part_of_many(keys).tolist() == [table.part_of(k) for k in keys]


def test_a_bool_among_ints_routes_as_a_bool():
    table = LocalKVStore(default_n_parts=3).create_table(TableSpec(name="t"))
    keys = [1, True, 2]
    expected = [table.part_of(k) for k in keys]
    assert table.part_of(True) != table.part_of(1)  # the case np.asarray gets wrong
    assert table.part_of_many(keys).tolist() == expected
    assert table.part_of_many([1, np.True_, 2]).tolist() == expected
    assert table.part_of_many(np.asarray([True, False])).tolist() == [
        table.part_of(True),
        table.part_of(False),
    ]
