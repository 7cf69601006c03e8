"""The K/V EBSP programming model: Job, Compute, ComputeContext.

These are Pythonic renderings of the paper's Listings 1–3.  A *job* is
the unit of client work; a *component* is identified by a key, holds
private state in the job's state tables, and exchanges messages with
other components across synchronization barriers.

A component is invoked in a step iff it is *enabled*: it returned the
positive continue signal from its invocation in the previous step, or
some component sent it a message in the previous step.  A component is
said to *exist* when it has state-table entries or input messages —
components need not have any state entry at all.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterator, List, Optional

from repro.ebsp.aggregators import Aggregator
from repro.ebsp.exporters import Exporter
from repro.ebsp.loaders import Loader
from repro.ebsp.properties import JobProperties


class BaseContext(abc.ABC):
    """Context common to compute invocations and combiner invocations."""

    @property
    @abc.abstractmethod
    def step_num(self) -> int:
        """The current step number (0-based)."""


class ComputeContext(BaseContext):
    """Everything a compute invocation may touch (paper Listing 3)."""

    # -- identity -----------------------------------------------------------
    @property
    @abc.abstractmethod
    def key(self) -> Any:
        """The key identifying the component being invoked."""

    # -- local state ----------------------------------------------------------
    @abc.abstractmethod
    def read_state(self, tab_idx: int) -> Any:
        """Read this component's entry in state table *tab_idx* (None if absent)."""

    @abc.abstractmethod
    def write_state(self, tab_idx: int, state: Any) -> None:
        """Write this component's entry in state table *tab_idx*."""

    @abc.abstractmethod
    def read_write_state(self, tab_idx: int) -> Any:
        """Read the entry and mark it dirty: it will be written back as-is
        at the end of the invocation unless overwritten or deleted.

        Useful for in-place mutation of a mutable state object.
        """

    @abc.abstractmethod
    def delete_state(self, tab_idx: int) -> None:
        """Delete this component's entry in state table *tab_idx*."""

    @abc.abstractmethod
    def create_state(self, tab_idx: int, key: Any, state: Any) -> None:
        """Request creation of *another* component's state entry.

        Conflicting creations for the same key are merged with the
        job's ``combine_states``.
        """

    # -- messaging -----------------------------------------------------------
    @abc.abstractmethod
    def input_messages(self) -> Iterator[Any]:
        """The messages sent to this component in the previous step."""

    @abc.abstractmethod
    def output_message(self, key: Any, message: Any) -> None:
        """Send *message* to component *key*, delivered next step."""

    # -- aggregators -------------------------------------------------------------
    @abc.abstractmethod
    def aggregate_value(self, name: str, value: Any) -> None:
        """Contribute *value* to the named aggregator."""

    @abc.abstractmethod
    def get_aggregate_value(self, name: str) -> Any:
        """Read the named aggregator's result from the previous step."""

    # -- broadcast data -------------------------------------------------------------
    @abc.abstractmethod
    def get_broadcast_datum(self, key: Any) -> Any:
        """Read immutable broadcast data by key (cheap everywhere)."""

    # -- direct job output --------------------------------------------------------
    @abc.abstractmethod
    def direct_job_output(self, key: Any, value: Any) -> None:
        """Emit one (key, value) pair of direct job output."""


class BatchComputeContext(BaseContext):
    """Everything a *batch* compute invocation may touch.

    One batch invocation covers a column of components of one part:
    ``keys[i]`` is the i-th component, and every column argument or
    result aligns with it positionally.  State moves as columns through
    the part-step's write-back cache, so a batch write is one staged
    ``put_many`` instead of per-key puts.
    """

    @property
    @abc.abstractmethod
    def keys(self) -> Any:
        """The key column of the batch (1-D array, ascending order)."""

    # -- local state, columnar -------------------------------------------------
    @abc.abstractmethod
    def read_states(self, tab_idx: int, keys: Any = None) -> List[Any]:
        """This batch's entries in state table *tab_idx*, aligned with
        :attr:`keys` (``None`` where absent).  Pass *keys* (a subset of
        the batch) to read only those, aligned with *keys*."""

    @abc.abstractmethod
    def write_states(self, tab_idx: int, states: Any, keys: Any = None) -> None:
        """Write all entries of table *tab_idx* for this batch: one
        state per key, aligned with :attr:`keys`.  Pass *keys* (a
        subset of the batch) to write only those, aligned with *keys*."""

    @abc.abstractmethod
    def delete_states(self, tab_idx: int, keys: Any) -> None:
        """Delete the entries for *keys* (a subset of the batch) in
        state table *tab_idx*."""

    @abc.abstractmethod
    def create_state(self, tab_idx: int, key: Any, state: Any) -> None:
        """Request creation of another component's state entry."""

    # -- messaging, columnar -----------------------------------------------------
    @property
    @abc.abstractmethod
    def messages(self) -> Any:
        """The delivered messages as a :class:`~repro.ebsp.transport.MessageBatch`
        aligned with :attr:`keys`."""

    @abc.abstractmethod
    def send_messages(self, dest_keys: Any, payloads: Any) -> None:
        """Send ``payloads[i]`` to component ``dest_keys[i]``, as columns."""

    @abc.abstractmethod
    def output_message(self, key: Any, message: Any) -> None:
        """Send a single message (scalar escape hatch)."""

    # -- aggregators ------------------------------------------------------------
    @abc.abstractmethod
    def aggregate_value(self, name: str, value: Any) -> None:
        """Contribute one value to the named aggregator."""

    @abc.abstractmethod
    def aggregate_values(self, name: str, values: Any) -> None:
        """Contribute a column of values to the named aggregator
        (vectorized via :meth:`~repro.ebsp.aggregators.Aggregator.add_many`)."""

    @abc.abstractmethod
    def get_aggregate_value(self, name: str) -> Any:
        """Read the named aggregator's result from the previous step."""

    # -- broadcast data -----------------------------------------------------------
    @abc.abstractmethod
    def get_broadcast_datum(self, key: Any) -> Any:
        """Read immutable broadcast data by key (cheap everywhere)."""

    # -- direct job output ----------------------------------------------------------
    @abc.abstractmethod
    def direct_job_output(self, key: Any, value: Any) -> None:
        """Emit one (key, value) pair of direct job output."""


class Compute(abc.ABC):
    """The mobile code of a job (paper Listing 2).

    The framework distributes a Compute object and invokes it near the
    data.  Implementations must be safe to invoke concurrently from
    multiple threads (hold per-invocation state on the context, not on
    ``self``).
    """

    @abc.abstractmethod
    def compute(self, ctx: ComputeContext) -> bool:
        """One component invocation.

        Returns the *continue signal*: ``True`` to be enabled in the
        following step even without receiving a message.
        """

    def compute_batch(self, ctx: BatchComputeContext) -> Any:
        """One invocation covering a whole column of components.

        Override to opt into the columnar data plane: the engine hands
        each part's enabled components to ``compute_batch`` as aligned
        columns (``ctx.keys``, ``ctx.messages``, ``ctx.read_states``)
        instead of one :meth:`compute` call per key.

        Returns the continue signals: ``None``/``False`` (no component
        continues), ``True`` (every component continues), or a boolean
        column aligned with ``ctx.keys``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement compute_batch"
        )

    def supports_batch(self) -> bool:
        """Whether the engine may drive this compute through
        :meth:`compute_batch`.  Detected by override, the same way the
        engine detects combiners; wrappers (e.g. the vertex-program
        adapter) override this to delegate to the wrapped program."""
        return type(self).compute_batch is not Compute.compute_batch

    def combine_messages(self, ctx: BaseContext, key: Any, m1: Any, m2: Any) -> Any:
        """Pairwise message combiner for destination *key*.

        The platform may invoke this at arbitrary times and places to
        merge two messages bound for the same component in the same
        step.  Return the combined message, or ``None`` to decline —
        declining keeps both messages (this is how the paper's
        selective SSSP job opts its sender-tagged messages out of
        combining).
        """
        return None

    def combine_message_batch(
        self, ctx: BaseContext, dest_keys: Any, payloads: Any
    ) -> Any:
        """Columnar sender-side combiner for an outgoing message batch.

        Invoked by the spill writer on columns sent through the batch
        data plane.  Return the reduced ``(dest_keys, payloads)``
        columns (e.g. one summed payload per distinct destination), or
        ``None`` to decline and ship the columns unreduced.
        """
        return None

    def combine_states(self, ctx: BaseContext, key: Any, s1: Any, s2: Any) -> Any:
        """Merge two conflicting created states for a new component *key*."""
        raise ValueError(
            f"conflicting created states for key {key!r} and no combine_states override"
        )


class Job(abc.ABC):
    """A K/V EBSP job specification (paper Listing 1).

    Concrete jobs override the abstract members and any of the hooks
    whose defaults (no aggregators, no loaders, no aborter, ...) do not
    fit.
    """

    # -- required --------------------------------------------------------------
    @abc.abstractmethod
    def state_table_names(self) -> List[str]:
        """Names of the component-state tables, indexed by position.

        May be empty for jobs whose entire state travels in messages.
        """

    @abc.abstractmethod
    def get_compute(self) -> Compute:
        """The job's Compute object."""

    # -- optional: aggregation -----------------------------------------------------
    def aggregators(self) -> Dict[str, Aggregator]:
        """The job's individual aggregators, by name."""
        return {}

    # -- optional: placement --------------------------------------------------------
    def reference_table(self) -> Optional[str]:
        """Name of the table whose partitioning the job follows.

        ``None`` means: use the first state table, else the store's
        default part count.
        """
        return None

    # -- optional: broadcast -------------------------------------------------------
    def broadcast_table(self) -> Optional[str]:
        """Name of the ubiquitous table holding the job's broadcast data."""
        return None

    # -- optional: initial conditions -----------------------------------------------
    def loaders(self) -> List[Loader]:
        """Loaders computing the job's initial condition."""
        return []

    # -- optional: outputs ------------------------------------------------------------
    def state_exporters(self) -> Dict[str, Exporter]:
        """Exporters for final state-table contents, keyed by table name."""
        return {}

    def direct_output_exporter(self) -> Optional[Exporter]:
        """Exporter receiving direct job output pairs; None discards them."""
        return None

    # -- optional: control ---------------------------------------------------------
    def properties(self) -> JobProperties:
        """The job's declared properties (Section II-A)."""
        return JobProperties()

    def aborter(self, step_num: int, aggregates: Dict[str, Any]) -> bool:
        """Invoked between steps; return True to stop execution now.

        Jobs that do not need an aborter must leave ``has_aborter``
        False so the engine can detect the ``no-client-sync`` property.
        """
        return False

    @property
    def has_aborter(self) -> bool:
        """Whether :meth:`aborter` is meaningful.  Detected, per the paper,
        by checking whether the job overrode the default."""
        return type(self).aborter is not Job.aborter

    def on_complete(self, result: "Any") -> None:
        """Callback consuming the final aggregator results & step count."""
