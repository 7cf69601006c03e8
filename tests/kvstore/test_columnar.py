"""Key and value columns through the narrow Table SPI.

The columnar plane hands a part-step's states to the store as columns:
a numpy key column and its value column, converted with ``tolist()``
and written with one ``put_many`` (``BatchComputeContext.write_states``),
read back with ``get_many`` and removed with ``delete_many``, each
batch routed by ``part_of_many``.  Rows stay plain scalars or tuples,
so per-key readers of the same table keep working.  The ``store``
fixture runs every case on all four stores.
"""

from __future__ import annotations

import numpy as np

from repro.kvstore.api import FnPairConsumer, TableSpec


def _table(store, name="cols"):
    return store.create_table(TableSpec(name=name, n_parts=4))


def _put_columns(table, keys, *columns):
    """Write one row per key: a bare scalar for one column, else a tuple."""
    lists = [np.asarray(column).tolist() for column in columns]
    rows = lists[0] if len(lists) == 1 else list(zip(*lists))
    table.put_many(zip(np.asarray(keys).tolist(), rows))


class TestSingleField:
    def test_put_get_roundtrip(self, store):
        table = _table(store)
        keys = np.arange(32, dtype=np.int64)
        _put_columns(table, keys, keys * 0.5)
        values = table.get_many(keys.tolist())
        np.testing.assert_array_equal(
            np.asarray([values[k] for k in keys.tolist()]), keys * 0.5
        )

    def test_rows_store_bare_scalars(self, store):
        table = _table(store)
        _put_columns(table, [3, 4], np.asarray([0.25, 0.75]))
        # per-key readers of the same table see plain floats, not tuples
        assert table.get(3) == 0.25
        assert type(table.get(4)) is float

    def test_delete_batch(self, store):
        table = _table(store)
        keys = np.arange(8, dtype=np.int64)
        _put_columns(table, keys, np.ones(8))
        table.delete_many(keys[:4].tolist())
        assert table.size() == 4
        assert sorted(key for key, _ in table.items()) == [4, 5, 6, 7]


class TestMultiField:
    def test_roundtrip_and_tuple_storage(self, store):
        table = _table(store)
        keys = np.asarray([5, 2, 9], dtype=np.int64)
        _put_columns(table, keys, [0.1, 0.2, 0.3], [10, 20, 30])
        assert table.get(2) == (0.2, 20)
        assert table.get_many([2, 5, 9]) == {2: (0.2, 20), 5: (0.1, 10), 9: (0.3, 30)}


class TestPartReads:
    def test_read_part_covers_the_table(self, store):
        table = _table(store)
        keys = np.arange(40, dtype=np.int64)
        _put_columns(table, keys, keys.astype(np.float64))
        seen = []
        for part in range(table.n_parts):
            pairs = []
            table.enumerate_pairs(
                FnPairConsumer(lambda k, v: pairs.append((k, v))), parts=[part]
            )
            part_keys = np.asarray([k for k, _ in pairs], dtype=np.int64)
            # a batch routed by part_of_many lands where its rows live
            assert (table.part_of_many(part_keys) == part).all()
            assert all(value == float(key) for key, value in pairs)
            seen.extend(part_keys.tolist())
        assert sorted(seen) == keys.tolist()


class TestPartOfMany:
    def test_matches_per_key_routing(self, store):
        table = store.create_table(TableSpec(name="routing", n_parts=4))
        keys = np.arange(-50, 50, dtype=np.int64)
        vector = table.part_of_many(keys)
        assert vector.tolist() == [table.part_of(int(k)) for k in keys]

    def test_string_keys_fall_back_per_key(self, store):
        table = store.create_table(TableSpec(name="routing_s", n_parts=4))
        keys = np.asarray(["a", "bb", "ccc"], dtype=object)
        vector = table.part_of_many(keys)
        assert vector.tolist() == [table.part_of(k) for k in keys.tolist()]

    def test_single_part_is_all_zeros(self, store):
        table = store.create_table(TableSpec(name="one_part", n_parts=1))
        assert table.part_of_many(np.arange(10)).tolist() == [0] * 10
