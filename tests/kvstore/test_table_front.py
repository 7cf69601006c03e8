"""The rules the table front owns, identical on every store.

Dropped tables, mutation epochs and the ubiquity limit are enforced once,
in :class:`repro.kvstore.api.Table`, above each store's part back-end;
these tests pin that every store answers every entry point the same way.
"""

from __future__ import annotations

import pytest

from repro.errors import TableDroppedError, UbiquityViolationError
from repro.kvstore.api import FnPairConsumer, FnPartConsumer, TableSpec


def _gather(result):
    """Wait for whatever an entry point returned (a future, a list of
    futures, or a plain value)."""
    if isinstance(result, list):
        return [_gather(item) for item in result]
    if hasattr(result, "result") and callable(result.result):
        return result.result(timeout=10)
    return result


#: Every public table operation, as a call on a table holding keys 0..7.
OPERATIONS = {
    "get": lambda t: t.get(1),
    "contains": lambda t: t.contains(1),
    "put": lambda t: t.put(1, "x"),
    "delete": lambda t: t.delete(1),
    "put_async": lambda t: t.put_async(1, "x"),
    "delete_async": lambda t: t.delete_async(1),
    "put_many": lambda t: t.put_many([(1, "x"), (2, "y")]),
    "put_many_async": lambda t: t.put_many_async([(1, "x"), (2, "y")]),
    "get_many": lambda t: t.get_many([1, 2]),
    "delete_many": lambda t: t.delete_many([1, 2]),
    "delete_many_async": lambda t: t.delete_many_async([1, 2]),
    "enumerate_parts": lambda t: t.enumerate_parts(
        FnPartConsumer(lambda i, view: len(view), lambda a, b: a + b)
    ),
    "enumerate_pairs": lambda t: t.enumerate_pairs(FnPairConsumer(lambda k, v: None)),
    "run_collocated": lambda t: t.run_collocated(0, lambda i, view: len(view)),
    "range_scan": lambda t: t.range_scan(0, 4),
    "items": lambda t: t.items(),
    "size": lambda t: t.size(),
    "clear": lambda t: t.clear(),
}

WRITES = [
    "put",
    "delete",
    "put_async",
    "delete_async",
    "put_many",
    "put_many_async",
    "delete_many",
    "delete_many_async",
    "clear",
]


def _filled(store, name="front"):
    table = store.create_table(TableSpec(name=name, n_parts=3, ordered=True))
    table.put_many((i, i) for i in range(8))
    return table


class TestTableFront:
    @pytest.mark.parametrize("op", sorted(OPERATIONS))
    def test_dropped_table_raises_synchronously(self, store, op):
        table = _filled(store)
        epoch = table.mutation_epoch
        store.drop_table("front")
        with pytest.raises(TableDroppedError):
            OPERATIONS[op](table)  # raised by the call, not by a future
        assert table.mutation_epoch == epoch

    @pytest.mark.parametrize("op", WRITES)
    def test_every_write_entry_point_advances_the_epoch(self, store, op):
        table = _filled(store)
        epoch = table.mutation_epoch
        _gather(OPERATIONS[op](table))
        assert table.mutation_epoch > epoch

    @pytest.mark.parametrize(
        "put",
        [
            lambda t, k, v: t.put(k, v),
            lambda t, k, v: t.put_async(k, v),
            lambda t, k, v: t.put_many([(k, v)]),
            lambda t, k, v: t.put_many_async([(k, v)]),
        ],
        ids=["put", "put_async", "put_many", "put_many_async"],
    )
    def test_ubiquity_limit_holds_through_every_put(self, store, put):
        table = store.create_table(TableSpec(name="u", ubiquitous=True, ubiquity_limit=2))
        _gather(put(table, "a", 1))
        _gather(put(table, "b", 2))
        with pytest.raises(UbiquityViolationError):
            _gather(put(table, "c", 3))
        _gather(put(table, "a", 10))  # an overwrite is not growth
        assert dict(table.items()) == {"a": 10, "b": 2}
