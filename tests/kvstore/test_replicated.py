"""The WXS-analog store: replication, shard transactions, failure."""

from __future__ import annotations

import pytest

from repro.errors import ShardFailedError, TransactionError
from repro.kvstore.api import TableSpec
from repro.kvstore.replicated import ReplicatedKVStore


@pytest.fixture
def store():
    instance = ReplicatedKVStore(n_shards=4, replication=1)
    yield instance
    instance.close()


class TestReplication:
    def test_sync_replication_survives_failover(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=4))
        table.put_many((i, f"v{i}") for i in range(40))
        for shard in range(4):
            store.fail_primary(shard)
            lost = store.promote_backup(shard)
            assert lost == 0
        for i in range(40):
            assert table.get(i) == f"v{i}"

    def test_failed_shard_rejects_ops(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=4))
        table.put(0, "x")
        store.fail_primary(0)
        with pytest.raises(ShardFailedError):
            table.get(0)
        with pytest.raises(ShardFailedError):
            table.put(0, "y")
        # other shards unaffected
        table.put(1, "ok")
        assert table.get(1) == "ok"

    def test_promote_requires_failure(self, store):
        with pytest.raises(TransactionError):
            store.promote_backup(0)

    def test_promote_without_backup(self):
        bare = ReplicatedKVStore(n_shards=2, replication=0)
        try:
            bare.fail_primary(0)
            with pytest.raises(TransactionError):
                bare.promote_backup(0)
        finally:
            bare.close()

    def test_async_replication_loses_unsynced_writes(self):
        lossy = ReplicatedKVStore(n_shards=1, replication=1, sync_replication=False)
        try:
            table = lossy.create_table(TableSpec(name="t", n_parts=1))
            table.put("a", 1)
            lossy.sync_backups()
            table.put("b", 2)  # queued, never synced
            lossy.fail_primary(0)
            lost = lossy.promote_backup(0)
            assert lost == 1
            assert table.get("a") == 1
            assert table.get("b") is None
        finally:
            lossy.close()

    def test_async_replication_sync_drains(self):
        lossy = ReplicatedKVStore(n_shards=1, replication=1, sync_replication=False)
        try:
            table = lossy.create_table(TableSpec(name="t", n_parts=1))
            table.put("a", 1)
            table.put("b", 2)
            lossy.sync_backups()
            lossy.fail_primary(0)
            assert lossy.promote_backup(0) == 0
            assert table.get("b") == 2
        finally:
            lossy.close()


class TestPromotionDrain:
    """Writes dispatched without waiting, then a failure and a promotion
    with nothing in between, must be on the promoted backup — however
    the runtime schedules them (the replicated table applies async
    writes on the caller's thread, so none is still queued)."""

    @pytest.mark.parametrize("runtime", ["threaded", "inline"])
    def test_async_writes_survive_immediate_promotion(self, runtime):
        with ReplicatedKVStore(n_shards=4, replication=1, runtime=runtime) as store:
            table = store.create_table(TableSpec(name="t", n_parts=4))
            part = table.part_of(0)
            keys = [k for k in range(1, 40) if table.part_of(k) == part]
            futures = [table.put_async(0, "v0")]
            futures += table.put_many_async((k, f"v{k}") for k in keys)
            shard = store.shard_of_part(part)
            store.fail_primary(shard)
            store.promote_backup(shard)
            for future in futures:
                future.result(timeout=5)
            assert table.get_many([0] + keys) == {k: f"v{k}" for k in [0] + keys}


class TestShardTransactions:
    def test_atomic_multi_table_commit(self, store):
        a = store.create_table(TableSpec(name="a", n_parts=4))
        b = store.create_table(TableSpec(name="b", like="a"))
        part = a.part_of(0)
        shard = store.shard_of_part(part)
        with store.shard_transaction(shard) as txn:
            txn.put("a", part, 0, "in-a")
            txn.put("b", part, 0, "in-b")
        assert a.get(0) == "in-a"
        assert b.get(0) == "in-b"

    def test_exception_aborts(self, store):
        a = store.create_table(TableSpec(name="a", n_parts=4))
        part = a.part_of(0)
        shard = store.shard_of_part(part)
        with pytest.raises(RuntimeError):
            with store.shard_transaction(shard) as txn:
                txn.put("a", part, 0, "never")
                raise RuntimeError("boom")
        assert a.get(0) is None

    def test_wrong_shard_rejected(self, store):
        a = store.create_table(TableSpec(name="a", n_parts=4))
        with store.shard_transaction(0) as txn:
            with pytest.raises(TransactionError):
                txn.put("a", 1, "k", "v")  # part 1 is shard 1, not 0
            txn.abort()

    def test_transaction_delete(self, store):
        a = store.create_table(TableSpec(name="a", n_parts=4))
        a.put(0, "x")
        part = a.part_of(0)
        with store.shard_transaction(store.shard_of_part(part)) as txn:
            txn.delete("a", part, 0)
        assert a.get(0) is None

    def test_double_commit_rejected(self, store):
        store.create_table(TableSpec(name="a", n_parts=4))
        txn = store.shard_transaction(0)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_transaction_replicates(self, store):
        a = store.create_table(TableSpec(name="a", n_parts=4))
        part = a.part_of(5)
        shard = store.shard_of_part(part)
        with store.shard_transaction(shard) as txn:
            txn.put("a", part, 5, "replicated")
        store.fail_primary(shard)
        store.promote_backup(shard)
        assert a.get(5) == "replicated"

    def test_none_value_rejected_in_txn(self, store):
        store.create_table(TableSpec(name="a", n_parts=4))
        with store.shard_transaction(0) as txn:
            with pytest.raises(TransactionError):
                txn.put("a", 0, "k", None)
            txn.abort()


class TestCollocatedReplication:
    def test_collocated_writes_survive_failover(self, store):
        """Mobile-code writes go through the replication path (unlike a
        raw part view, which would lose them on promotion)."""
        table = store.create_table(TableSpec(name="t", n_parts=4))
        part = table.part_of(0)

        def mobile(part_index, view):
            view.put(0, "written-collocated")
            view.put(4, "also")  # key 4 → also part 0 of 4
            view.delete(4)

        table.run_collocated(part, mobile)
        shard = store.shard_of_part(part)
        store.fail_primary(shard)
        store.promote_backup(shard)
        assert table.get(0) == "written-collocated"
        assert table.get(4) is None

    def test_collocated_view_reads_and_iterates(self, store):
        table = store.create_table(TableSpec(name="t", n_parts=2))
        table.put(0, "a")

        def mobile(part_index, view):
            assert view.get(0) == "a"
            assert len(view) >= 1
            return sorted(k for k, _ in view.items())

        keys = table.run_collocated(table.part_of(0), mobile)
        assert 0 in keys


class TestConstruction:
    def test_bad_shards(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore(n_shards=0)

    def test_bad_replication(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore(replication=-1)
