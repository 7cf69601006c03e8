"""Loaders: how a job's initial condition is computed (paper Section II).

A job's initial condition includes initial component states, a set of
incoming messages, initial aggregator inputs, and a designation of
which additional components are enabled.  The client implements
:class:`Loader` (or uses one from this library) to prescribe how those
are computed from some source.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kvstore.api import FnPairConsumer, PartConsumer, PartView, Table
from repro.runtime.shipping import CONSUMER_SHIP_ATTR


class LoaderContext(abc.ABC):
    """What a loader can do while initializing a job."""

    @abc.abstractmethod
    def put_state(self, tab_idx: int, key: Any, state: Any) -> None:
        """Set component *key*'s initial entry in state table *tab_idx*."""

    @abc.abstractmethod
    def send_message(self, key: Any, message: Any) -> None:
        """Queue *message* for component *key*'s step-0 input."""

    @abc.abstractmethod
    def enable(self, key: Any) -> None:
        """Enable component *key* for step 0 even without a message."""

    @abc.abstractmethod
    def aggregate_value(self, name: str, value: Any) -> None:
        """Contribute *value* to a named aggregator's initial state."""

    def enable_many(self, keys: List[Any]) -> None:
        """Enable every component in *keys*; engines may batch this."""
        for key in keys:
            self.enable(key)


class Loader(abc.ABC):
    """Marker interface + single hook for job initialization."""

    @abc.abstractmethod
    def load(self, ctx: LoaderContext) -> None:
        ...


class StagedLoaderContext(LoaderContext):
    """The engines' shared loader-context base: batched state writes.

    :meth:`put_state` stages ``(key, state)`` per state table instead of
    issuing one store ``put`` per key; :meth:`load_all` flushes the
    staged pairs as **one** ``put_many`` per table after each loader
    returns.  A loader's writes therefore become visible when that
    loader returns — a later loader reading the table still sees them,
    and a key written twice keeps its later value (``put_many`` applies
    pairs in order, like the loop of ``put`` it replaces).
    """

    def __init__(self, state_tables: Sequence[Table]):
        self._state_tables = state_tables
        self._staged: Dict[int, List[Tuple[Any, Any]]] = {}

    def put_state(self, tab_idx: int, key: Any, state: Any) -> None:
        self._state_tables[tab_idx]  # a bad index fails here, not at the flush
        self._staged.setdefault(tab_idx, []).append((key, state))

    def load_all(self, loaders: Iterable[Loader]) -> None:
        """Run each loader in order, flushing its staged states after it."""
        for loader in loaders:
            loader.load(self)
            staged, self._staged = self._staged, {}
            for tab_idx, pairs in staged.items():
                self._state_tables[tab_idx].put_many(pairs)


class DictStateLoader(Loader):
    """Load a mapping into one state table, optionally enabling the keys."""

    def __init__(self, tab_idx: int, mapping: Dict[Any, Any], enable: bool = False):
        self._tab_idx = tab_idx
        self._mapping = mapping
        self._enable = enable

    def load(self, ctx: LoaderContext) -> None:
        for key, state in self._mapping.items():
            ctx.put_state(self._tab_idx, key, state)
        if self._enable:
            ctx.enable_many(list(self._mapping))


class MessageListLoader(Loader):
    """Queue an iterable of (key, message) pairs as step-0 input."""

    def __init__(self, messages: Iterable[Tuple[Any, Any]]):
        self._messages = list(messages)

    def load(self, ctx: LoaderContext) -> None:
        for key, message in self._messages:
            ctx.send_message(key, message)


class EnableKeysLoader(Loader):
    """Enable an explicit set of components for step 0."""

    def __init__(self, keys: Iterable[Any]):
        self._keys = list(keys)

    def load(self, ctx: LoaderContext) -> None:
        for key in self._keys:
            ctx.enable(key)


class _PartKeys(PartConsumer):
    """Each part's key list, in part order.

    Shippable, so under a process runtime only the keys cross the pipe —
    not the values a pair enumeration would drag along.
    """

    def __init__(self) -> None:
        setattr(self, CONSUMER_SHIP_ATTR, True)

    def process_part(self, part_index: int, part: PartView) -> List[List[Any]]:
        return [list(part.keys())]

    def combine(self, a: List[List[Any]], b: List[List[Any]]) -> List[List[Any]]:
        return a + b


class TableScanLoader(Loader):
    """Derive the initial condition from an existing table's contents.

    For every (key, value) pair of *table*, calls *fn(ctx, key, value)*
    — the client's hook to emit states, messages, enables, and
    aggregator inputs.  When *fn* is omitted, every key in the table is
    simply enabled (the common "run over this whole table" start), one
    :meth:`LoaderContext.enable_many` call per part.
    """

    def __init__(self, table: Any, fn: Optional[Callable[[LoaderContext, Any, Any], None]] = None):
        self._table = table
        self._fn = fn

    def load(self, ctx: LoaderContext) -> None:
        if self._fn is None:
            for keys in self._table.enumerate_parts(_PartKeys()) or []:
                ctx.enable_many(keys)
        else:
            fn = self._fn
            self._table.enumerate_pairs(
                FnPairConsumer(lambda key, value: fn(ctx, key, value))
            )


class FunctionLoader(Loader):
    """Adapts a plain callable ``fn(ctx)`` into a loader."""

    def __init__(self, fn: Callable[[LoaderContext], None]):
        self._fn = fn

    def load(self, ctx: LoaderContext) -> None:
        self._fn(ctx)
