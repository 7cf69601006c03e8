"""Exception hierarchy for the Ripple reproduction.

Every error raised by this library derives from :class:`RippleError` so
that callers can catch library failures without also catching unrelated
Python errors.
"""

from __future__ import annotations


class RippleError(Exception):
    """Base class for all errors raised by this library.

    Errors pickle by type, ``args`` and fields (a shipped part-step's
    failure crosses a process boundary), never by re-calling a subclass
    ``__init__`` whose signature is not ``args``.
    """

    def __reduce__(self):
        return (_restore_error, (type(self), self.args, self.__dict__))


def _restore_error(cls: type, args: tuple, fields: dict) -> RippleError:
    error = cls.__new__(cls, *args)
    error.__dict__.update(fields)
    return error


class StoreError(RippleError):
    """Base class for key/value store failures."""


class TableExistsError(StoreError):
    """Raised when creating a table whose name is already taken."""

    def __init__(self, name: str):
        super().__init__(f"table {name!r} already exists")
        self.name = name


class NoSuchTableError(StoreError):
    """Raised when looking up or dropping an unknown table."""

    def __init__(self, name: str):
        super().__init__(f"no such table: {name!r}")
        self.name = name


class TableDroppedError(StoreError):
    """Raised when operating on a table handle after the table was dropped."""

    def __init__(self, name: str):
        super().__init__(f"table {name!r} has been dropped")
        self.name = name


class BadTableSpecError(StoreError):
    """Raised when a :class:`~repro.kvstore.api.TableSpec` is invalid."""


class UbiquityViolationError(StoreError):
    """Raised when a ubiquitous table grows past its configured size bound.

    The paper's contract for a ubiquitous table is that it is "quick to
    read and of limited size"; violating it is a client bug that should
    surface loudly rather than silently degrade.
    """


class ShardFailedError(StoreError):
    """Raised when operating on a shard whose primary has (simulated) failed."""

    def __init__(self, part: int):
        super().__init__(f"primary for part {part} has failed")
        self.part = part


class TransactionError(StoreError):
    """Raised when a shard transaction cannot commit."""


class QueueError(RippleError):
    """Base class for message-queuing failures."""


class NoSuchQueueSetError(QueueError):
    """Raised when operating on an unknown or deleted queue set."""

    def __init__(self, name: str):
        super().__init__(f"no such queue set: {name!r}")
        self.name = name


class JobError(RippleError):
    """Base class for EBSP job specification / execution failures."""


class JobSpecError(JobError):
    """Raised when a Job object is malformed (bad tables, aggregators, ...)."""


class ComputeError(JobError):
    """Raised when a compute invocation fails; wraps the user exception."""

    def __init__(self, key: object, step: int, cause: BaseException):
        super().__init__(f"compute failed for key {key!r} at step {step}: {cause!r}")
        self.key = key
        self.step = step
        self.cause = cause


class AggregatorError(JobError):
    """Raised on use of an undeclared aggregator or a bad aggregation."""


class PropertyViolationError(JobError):
    """Raised when a declared job property is observed to be violated.

    For example a job declaring ``one_msg`` that sends two messages to
    the same destination in one step.
    """


class RecoveryError(JobError):
    """Raised when failure recovery cannot restore a consistent state."""


class TerminationError(RippleError):
    """Raised when distributed termination detection fails an invariant."""


class ServiceError(RippleError):
    """Base class for job front-door (service layer) failures."""


class BadRequestError(ServiceError):
    """Raised when a submitted job specification is malformed."""


class QuotaExceededError(ServiceError):
    """Raised when admission control rejects a submission outright.

    Carries *retry_after* (seconds) so clients — and the HTTP layer's
    429 response — can back off instead of hammering the front door.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class UnknownServiceJobError(ServiceError):
    """Raised when looking up a service job id that was never issued."""

    def __init__(self, job_id: str):
        super().__init__(f"unknown service job id {job_id!r}")
        self.job_id = job_id
