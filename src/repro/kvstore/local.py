"""The local debugging store: single-threaded, simplest conformant store.

This corresponds to the paper's "debugging implementation" (Section
IV-B).  All parts live in the calling process; no marshalling, no
threads.  It exists so that jobs can be developed and unit-tested with
fully deterministic, single-threaded execution before being pointed at
a parallel store — and so tests can verify that the other stores agree
with it.

Its part back-end is the smallest possible one: a list of plain
in-memory parts, each operation running in place on the caller.
"""

from __future__ import annotations

from repro.kvstore.api import KVStore, PartView, Table, TableSpec
from repro.kvstore.memory_table import make_part
from repro.runtime import InlineRuntime


class LocalTable(Table):
    """A table whose parts are plain in-process structures."""

    def __init__(self, spec: TableSpec, n_parts: int, store: "LocalKVStore"):
        super().__init__(spec, n_parts, store)
        self._parts = [make_part(spec.ordered) for _ in range(n_parts)]

    def _view(self, part_index: int) -> PartView:
        return self._parts[part_index]


class LocalKVStore(KVStore):
    """Single-process, single-threaded store (the debugging store)."""

    def __init__(self, default_n_parts: int = 4):
        super().__init__(default_n_parts)
        # The debugging store is single-threaded by contract, so its
        # runtime is always inline: collocated work runs on the caller.
        self.runtime = InlineRuntime(default_n_parts, name="local")

    def _open_table(self, spec: TableSpec, n_parts: int) -> Table:
        return LocalTable(spec, n_parts, self)
