"""Opt-in task shipping for address-space-crossing runtimes.

A :class:`~repro.runtime.process.ProcessRuntime` worker lives in a
different address space, so a task can only run there if its function
and arguments survive pickling — and if running it on a *copy* of any
captured state is what the caller meant.  Closures over shared memory
(the stores' ubiquity-check closures, test lambdas appending to lists)
mean the opposite, so shipping is strictly opt-in:

- :func:`shippable` marks a module-level function as safe to execute
  in a worker process.  Unmarked callables always run in the parent
  process (the process runtime keeps a full threaded fallback), which
  preserves shared-memory semantics for every existing caller.
- :func:`ensure_picklable` is the pre-flight check: it raises a
  :class:`ShippingError` (a :class:`~repro.errors.RippleError`) that
  *names the offending object* instead of letting a raw
  ``PicklingError`` surface from a worker process.
- :class:`Resident` keeps one object resident in every process that
  receives it, until its owner ends the residency
  (:func:`drop_resident`): the object is pickled once, and a shipped
  reference unpickles it only in a process that does not hold it yet.
"""

from __future__ import annotations

import pickle
import threading
import uuid
from typing import Any, Callable, Dict, TypeVar

from repro.errors import RippleError

_SHIPPABLE_ATTR = "_ripple_shippable"

#: Attribute consumers (``PartConsumer`` instances) set to request that
#: an enumeration run *in* the part-owning process rather than against
#: parent-side handles.  Checked with ``getattr(..., False)`` so plain
#: consumers are unaffected.
CONSUMER_SHIP_ATTR = "_ripple_shippable_"

F = TypeVar("F", bound=Callable[..., Any])


class ShippingError(RippleError):
    """A payload headed for a worker process could not be pickled."""


def shippable(fn: F) -> F:
    """Mark a module-level function as executable in a worker process."""
    setattr(fn, _SHIPPABLE_ATTR, True)
    return fn


def is_shippable(fn: Any) -> bool:
    """Whether *fn* opted into cross-process execution."""
    return getattr(fn, _SHIPPABLE_ATTR, False)


def ensure_picklable(obj: Any, what: str) -> bytes:
    """Pickle *obj* or raise a :class:`ShippingError` naming it.

    *what* describes the object in the caller's vocabulary ("the job's
    compute", "argument 2 of _op_put", …) so the error reads as a
    diagnosis, not a traceback puzzle.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ShippingError(
            f"{what} cannot be shipped to a worker process: {type(obj).__name__} "
            f"instance failed to pickle ({exc}).  Process-runtime tasks and their "
            "arguments must be picklable module-level objects; closures, lambdas, "
            "and objects holding locks or threads must stay in the parent "
            "(they run on the threaded fallback automatically when unmarked)."
        ) from exc


# -- process-resident objects ---------------------------------------------
#
# Token -> object, per process.  A worker installs an entry the first
# time a reference to it arrives and keeps it until the owner drops the
# token, so state an object memoizes survives from one shipped task to
# the next.

_RESIDENTS: Dict[str, Any] = {}
_RESIDENTS_LOCK = threading.Lock()


def _resolve_resident(token: str, payload: bytes) -> Any:
    """The process's resident object for *token*, installed from
    *payload* on first sight."""
    with _RESIDENTS_LOCK:
        obj = _RESIDENTS.get(token)
        if obj is None:
            obj = _RESIDENTS[token] = pickle.loads(payload)
    return obj


@shippable
def drop_resident(token: str) -> None:
    """End *token*'s residency in this process (a no-op if absent)."""
    with _RESIDENTS_LOCK:
        _RESIDENTS.pop(token, None)


class Resident:
    """A picklable reference that unpickles to a process-resident object.

    Construction pickles *obj* once, under a fresh token.  Every pickle
    of the reference carries the token and those bytes; unpickling
    returns the receiving process's resident copy, installing it from
    the bytes only when the process holds none (a fresh or respawned
    worker).  The owner ends the residency with :func:`drop_resident`
    in every process it shipped to.
    """

    __slots__ = ("token", "_payload")

    def __init__(self, obj: Any):
        self._payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.token = uuid.uuid4().hex

    def __reduce__(self):
        return (_resolve_resident, (self.token, self._payload))
