"""Store-to-store migration over the SPI."""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore
from repro.kvstore.migrate import copy_store, copy_table, verify_copy
from repro.kvstore.partitioned import PartitionedKVStore
from repro.kvstore.persistent import PersistentKVStore
from repro.kvstore.replicated import ReplicatedKVStore


@pytest.fixture
def populated():
    store = LocalKVStore(default_n_parts=3)
    plain = store.create_table(TableSpec(name="plain", n_parts=3))
    plain.put_many((i, f"v{i}") for i in range(40))
    ordered = store.create_table(TableSpec(name="ordered", n_parts=2, ordered=True))
    ordered.put_many((i, i * i) for i in range(10))
    store.create_table(TableSpec(name="__private", n_parts=2)).put("x", 1)
    yield store
    store.close()


class TestCopyTable:
    def test_contents_and_spec_preserved(self, populated):
        destination = LocalKVStore(default_n_parts=8)
        copied = copy_table(populated, destination, "ordered")
        assert copied == 10
        table = destination.get_table("ordered")
        assert table.n_parts == 2
        assert table.ordered
        assert verify_copy(populated, destination, "ordered")
        # range scans work on the copy, proving ordering carried over
        assert [k for k, _ in table.range_scan(3, 6)] == [3, 4, 5]

    def test_existing_destination_refused(self, populated):
        destination = LocalKVStore()
        destination.create_table(TableSpec(name="plain"))
        with pytest.raises(StoreError):
            copy_table(populated, destination, "plain")

    def test_key_hash_table_refused(self, populated):
        populated.create_table(TableSpec(name="hashed", n_parts=2, key_hash=lambda k: 0))
        with pytest.raises(StoreError):
            copy_table(populated, LocalKVStore(), "hashed")


class TestCopyStore:
    def test_private_tables_skipped(self, populated):
        destination = LocalKVStore()
        report = copy_store(populated, destination)
        assert sorted(report.tables_copied) == ["ordered", "plain"]
        assert "__private" in report.tables_skipped
        assert report.entries_copied == 50
        assert not destination.has_table("__private")

    def test_include_private(self, populated):
        destination = LocalKVStore()
        report = copy_store(populated, destination, include_private=True)
        assert "__private" in report.tables_copied

    @pytest.mark.parametrize("target_kind", ["partitioned", "replicated", "persistent"])
    def test_memory_to_every_store_kind(self, populated, target_kind, tmp_path):
        if target_kind == "partitioned":
            destination = PartitionedKVStore(n_partitions=3)
        elif target_kind == "replicated":
            destination = ReplicatedKVStore(n_shards=3, replication=1)
        else:
            destination = PersistentKVStore(str(tmp_path / "disk"))
        try:
            copy_store(populated, destination)
            assert verify_copy(populated, destination, "plain")
            assert verify_copy(populated, destination, "ordered")
        finally:
            destination.close()

    def test_round_trip_through_disk(self, populated, tmp_path):
        """memory → disk → reopen → memory: everything survives."""
        path = str(tmp_path / "disk")
        disk = PersistentKVStore(path)
        copy_store(populated, disk)
        disk.close()

        reopened = PersistentKVStore(path)
        back = LocalKVStore()
        report = copy_store(reopened, back)
        assert report.entries_copied == 50
        assert verify_copy(populated, back, "plain")
        reopened.close()


class TestTupleRowCopy:
    """Rows are often tuples of scalars (a vertex's rank and degree):
    a copy carries them, and the table's part spec, unchanged."""

    @staticmethod
    def _rows(n):
        return [(k, (k * 0.25, k % 7)) for k in range(n)]

    def test_copy_table_preserves_tuple_rows(self):
        source = LocalKVStore(default_n_parts=3)
        original = source.create_table(TableSpec(name="rows", n_parts=3))
        original.put_many(self._rows(30))

        destination = LocalKVStore()
        assert copy_table(source, destination, "rows") == 30
        assert verify_copy(source, destination, "rows")
        copied = destination.get_table("rows")
        assert copied.n_parts == 3
        keys = range(30)
        assert copied.get_many(keys) == dict(self._rows(30))
        assert [copied.part_of(k) for k in keys] == [original.part_of(k) for k in keys]

    def test_copy_store_carries_tuple_rows_but_skips_private(self):
        source = LocalKVStore(default_n_parts=3)
        source.create_table(TableSpec(name="rows", n_parts=3)).put_many(self._rows(10))
        source.create_table(TableSpec(name="__scratch", n_parts=2)).put("x", 1)

        destination = LocalKVStore()
        report = copy_store(source, destination)
        assert "rows" in report.tables_copied
        assert "__scratch" in report.tables_skipped
        assert not destination.has_table("__scratch")
        assert dict(destination.get_table("rows").items()) == dict(self._rows(10))


class TestVerify:
    def test_detects_difference(self, populated):
        destination = LocalKVStore()
        copy_table(populated, destination, "plain")
        destination.get_table("plain").put(0, "tampered")
        assert not verify_copy(populated, destination, "plain")

    def test_detects_missing_key(self, populated):
        destination = LocalKVStore()
        copy_table(populated, destination, "plain")
        destination.get_table("plain").delete(5)
        assert not verify_copy(populated, destination, "plain")

    def test_numpy_values(self):
        import numpy as np

        a, b = LocalKVStore(), LocalKVStore()
        for store in (a, b):
            store.create_table(TableSpec(name="t")).put("k", np.arange(5))
        assert verify_copy(a, b, "t")
        b.get_table("t").put("k", np.arange(6))
        assert not verify_copy(a, b, "t")
