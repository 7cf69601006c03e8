"""Loaders and exporters as standalone pieces."""

from __future__ import annotations

import pytest

from repro.ebsp.exporters import (
    CallbackExporter,
    CollectingExporter,
    ListExporter,
    TableExporter,
)
from repro.ebsp.loaders import (
    DictStateLoader,
    EnableKeysLoader,
    FunctionLoader,
    LoaderContext,
    MessageListLoader,
    TableScanLoader,
)
from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore


class FakeLoaderContext(LoaderContext):
    def __init__(self):
        self.states = []
        self.messages = []
        self.enabled = []
        self.aggregated = []

    def put_state(self, tab_idx, key, state):
        self.states.append((tab_idx, key, state))

    def send_message(self, key, message):
        self.messages.append((key, message))

    def enable(self, key):
        self.enabled.append(key)

    def aggregate_value(self, name, value):
        self.aggregated.append((name, value))


class TestLoaders:
    def test_dict_state_loader(self):
        ctx = FakeLoaderContext()
        DictStateLoader(1, {"a": 1, "b": 2}).load(ctx)
        assert sorted(ctx.states) == [(1, "a", 1), (1, "b", 2)]
        assert ctx.enabled == []

    def test_dict_state_loader_with_enable(self):
        ctx = FakeLoaderContext()
        DictStateLoader(0, {"a": 1}, enable=True).load(ctx)
        assert ctx.enabled == ["a"]

    def test_message_list_loader(self):
        ctx = FakeLoaderContext()
        MessageListLoader([(1, "x"), (2, "y")]).load(ctx)
        assert ctx.messages == [(1, "x"), (2, "y")]

    def test_enable_keys_loader(self):
        ctx = FakeLoaderContext()
        EnableKeysLoader([3, 4]).load(ctx)
        assert ctx.enabled == [3, 4]

    def test_function_loader(self):
        ctx = FakeLoaderContext()
        FunctionLoader(lambda c: c.aggregate_value("a", 1)).load(ctx)
        assert ctx.aggregated == [("a", 1)]

    def test_table_scan_loader_default_enables_all(self):
        store = LocalKVStore(default_n_parts=2)
        table = store.create_table(TableSpec(name="t"))
        table.put_many([(1, "a"), (2, "b")])
        ctx = FakeLoaderContext()
        TableScanLoader(table).load(ctx)
        assert sorted(ctx.enabled) == [1, 2]

    def test_table_scan_loader_custom_fn(self):
        store = LocalKVStore(default_n_parts=2)
        table = store.create_table(TableSpec(name="t"))
        table.put(5, "payload")
        ctx = FakeLoaderContext()
        TableScanLoader(table, lambda c, k, v: c.send_message(k, v)).load(ctx)
        assert ctx.messages == [(5, "payload")]


class TestExporters:
    def test_collecting(self):
        exporter = CollectingExporter()
        exporter.begin()
        exporter.export("k", "v")
        exporter.end()
        assert exporter.pairs == {"k": "v"}
        assert exporter.began and exporter.ended

    def test_callback(self):
        out = []
        CallbackExporter(lambda k, v: out.append((k, v))).export(1, 2)
        assert out == [(1, 2)]

    def test_table_exporter(self):
        store = LocalKVStore(default_n_parts=2)
        table = store.create_table(TableSpec(name="sink"))
        exporter = TableExporter(table)
        exporter.export("k", 9)
        assert table.get("k") == 9

    def test_list_exporter_keeps_duplicates(self):
        exporter = ListExporter()
        exporter.export("k", 1)
        exporter.export("k", 2)
        assert exporter.pairs == [("k", 1), ("k", 2)]
