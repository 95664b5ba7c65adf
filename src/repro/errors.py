"""Exception hierarchy shared by every repro subsystem.

The hierarchy mirrors what a user of a real DBMS driver would expect:
``ReproError`` is the catch-all; SQL problems derive from ``SQLError``;
transactional problems derive from ``TransactionError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class CatalogError(ReproError):
    """Schema-level problem: unknown table/column, duplicate definition, ..."""


class UnsupportedFeatureError(ReproError):
    """A feature that the target engine deliberately does not support.

    MemSQL-like engines raise this for ``FOREIGN KEY`` constraints, matching
    the paper's note that OLxPBench ships two schema versions because some
    HTAP DBMSs lack foreign-key support.
    """


class SQLError(ReproError):
    """Base class for problems in the SQL front end."""


class SQLSyntaxError(SQLError):
    """The statement could not be tokenised or parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BindError(SQLError):
    """Name resolution failed (unknown table/column, ambiguous reference)."""


class PlanError(SQLError):
    """The binder output could not be turned into an executable plan."""


class ExecutionError(SQLError):
    """Runtime failure while executing a plan (type error, bad parameter)."""


class IntegrityError(ReproError):
    """Primary-key, foreign-key, or NOT NULL violation."""


class TransactionError(ReproError):
    """Base class for transaction lifecycle problems."""


class TransactionAborted(TransactionError):
    """The transaction was aborted and must be retried by the caller."""


class WriteConflictError(TransactionAborted):
    """First-committer-wins validation failed under snapshot isolation."""


class ConnectionStateError(TransactionError):
    """Operation illegal in the connection's current state."""


class TransientError(ReproError):
    """A fault the caller may retry: the operation failed, state is clean.

    Retry loops (``run_transaction``, the compaction wrappers) treat
    this family as retryable alongside ``TransactionAborted``.  Anything
    not in this family is assumed fatal and propagates.
    """


class InjectedFaultError(TransientError):
    """A failpoint fired.  Deterministic, seeded, and always retryable."""

    def __init__(self, failpoint: str, message: str | None = None):
        super().__init__(message or f"injected fault at failpoint "
                         f"{failpoint!r}")
        self.failpoint = failpoint


class ReplicaUnavailableError(TransientError):
    """The columnar replica cannot serve a scan right now.

    The session layer degrades the statement to the row pipeline (answers
    stay correct) and trips the circuit breaker; the replica is probed
    again after the cooldown.
    """


class WALCorruptionError(ReproError):
    """The write-ahead log is damaged beyond a torn tail.

    A torn tail (invalid records at the very end of the stream) is the
    expected crash signature and is silently truncated by ``recover()``;
    an invalid record *followed by a valid one* means mid-log corruption,
    which no recovery protocol can repair — it is fatal.
    """


class WALBoundsError(ReproError, ValueError):
    """An LSN argument is outside the log's valid range.

    Subclasses ``ValueError`` so callers that predate the typed taxonomy
    (``except ValueError``) keep working.
    """


class ConfigError(ReproError):
    """Benchmark configuration is malformed or inconsistent."""


class WorkloadError(ReproError):
    """A workload definition is internally inconsistent."""
