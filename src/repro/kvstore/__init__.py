"""Key/value store SPI and its implementations.

The SPI (:mod:`repro.kvstore.api`) is deliberately narrow, following the
paper's Section III: a store provides partitioned (optionally
replicated, optionally ordered, optionally ubiquitous) tables with
get/put/delete, part and pair enumeration driven by client callbacks,
and the ability to run mobile client code collocated with a part.  The
table front and the catalog are written once in the SPI module; each
store below is a thin part back-end under them:

- :class:`~repro.kvstore.local.LocalKVStore` — the simplest store, one
  logical machine, useful for debugging and unit tests.
- :class:`~repro.kvstore.partitioned.PartitionedKVStore` — the paper's
  "parallel debugging store": emulated partitions, each served by its
  own threads, with marshalling on every cross-partition operation.
- :class:`~repro.kvstore.replicated.ReplicatedKVStore` — the
  WebSphere-eXtreme-Scale analog: primary/replica shards, atomic
  per-shard multi-table transactions, failure injection and promotion.
- :class:`~repro.kvstore.persistent.PersistentKVStore` — the HBase
  analog: disk-backed parts with an append log and sorted segments.
"""

from repro.kvstore.api import (
    KVStore,
    PairConsumer,
    PartConsumer,
    Table,
    TableSpec,
    FnPairConsumer,
    FnPartConsumer,
)
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.kvstore.replicated import ReplicatedKVStore
from repro.kvstore.persistent import PersistentKVStore
from repro.kvstore.migrate import MigrationReport, copy_store, copy_table, verify_copy

__all__ = [
    "KVStore",
    "Table",
    "TableSpec",
    "PartConsumer",
    "PairConsumer",
    "FnPartConsumer",
    "FnPairConsumer",
    "LocalKVStore",
    "PartitionedKVStore",
    "ReplicatedKVStore",
    "PersistentKVStore",
    "copy_store",
    "copy_table",
    "verify_copy",
    "MigrationReport",
]
