"""Copying data between stores — the payoff of the narrow SPI.

Because every store implements the same small interface, moving an
entire deployment from (say) the in-memory replicated store to the
disk-backed store is a client-side loop, not an adapter project:

.. code-block:: python

    from repro.kvstore.migrate import copy_store
    copy_store(memory_store, disk_store)

Private tables (``__``-prefixed: in-flight transport tables, queue
tables) are skipped by default — they are meaningless outside their
owning job execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import StoreError
from repro.kvstore.api import KVStore, TableSpec


@dataclass
class MigrationReport:
    """What :func:`copy_store` did."""

    tables_copied: List[str] = field(default_factory=list)
    tables_skipped: List[str] = field(default_factory=list)
    entries_copied: int = 0


def copy_table(
    source: KVStore,
    destination: KVStore,
    table_name: str,
    batch_size: int = 1_000,
) -> int:
    """Copy one table (spec + contents); returns entries copied.

    The destination table is created with the source's spec — same
    part count, ordering, and ubiquity — so placement-sensitive
    computations behave identically after the move.  A custom
    ``key_hash`` cannot be transplanted (it is a function): such tables
    must be rebuilt by their owner and are refused here.
    """
    table = source.get_table(table_name)
    if table.spec.key_hash is not None:
        raise StoreError(
            f"table {table_name!r} uses a custom key_hash; it cannot be migrated "
            "generically — recreate it through its owning component"
        )
    if destination.has_table(table_name):
        raise StoreError(f"destination already has a table named {table_name!r}")
    spec = TableSpec(
        name=table.spec.name,
        n_parts=table.n_parts,
        ordered=table.ordered,
        ubiquitous=table.ubiquitous,
        ubiquity_limit=table.spec.ubiquity_limit,
        replication=table.spec.replication,
    )
    new_table = destination.create_table(spec)
    copied = 0
    batch: list = []
    for key, value in table.items():
        batch.append((key, value))
        if len(batch) >= batch_size:
            new_table.put_many(batch)
            copied += len(batch)
            batch = []
    if batch:
        new_table.put_many(batch)
        copied += len(batch)
    return copied


def copy_store(
    source: KVStore,
    destination: KVStore,
    include_private: bool = False,
    batch_size: int = 1_000,
) -> MigrationReport:
    """Copy every table from *source* into *destination*.

    Tables whose names start with ``__`` (engine-private) are skipped
    unless *include_private*; tables with a custom ``key_hash`` are
    always skipped (and reported), since a function cannot be copied.
    """
    report = MigrationReport()
    for table_name in source.list_tables():
        if table_name.startswith("__") and not include_private:
            report.tables_skipped.append(table_name)
            continue
        if source.get_table(table_name).spec.key_hash is not None:
            report.tables_skipped.append(table_name)
            continue
        report.entries_copied += copy_table(
            source, destination, table_name, batch_size=batch_size
        )
        report.tables_copied.append(table_name)
    return report


def verify_copy(source: KVStore, destination: KVStore, table_name: str) -> bool:
    """Check that a table's contents are identical in both stores."""
    left = dict(source.get_table(table_name).items())
    right = dict(destination.get_table(table_name).items())
    if set(left) != set(right):
        return False
    for key, value in left.items():
        other = right[key]
        try:
            import numpy as np

            if isinstance(value, np.ndarray) or isinstance(other, np.ndarray):
                if not np.array_equal(value, other):
                    return False
                continue
        except ImportError:  # pragma: no cover
            pass
        if value != other:
            return False
    return True
