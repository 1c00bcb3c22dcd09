"""Exception hierarchy for the SSI reproduction engine.

The error classes mirror the SQLSTATE classes PostgreSQL uses for the
corresponding conditions, so tests and applications can react to the
same distinctions the paper discusses (serialization failures that merit
a retry, deadlocks, read-only violations, capacity errors).
"""

from __future__ import annotations

import enum
from typing import Optional


class AbortCause(enum.Enum):
    """Why a serialization failure fired (the abort-cause taxonomy the
    observability layer counts under ``ssi.aborts{cause=...}``).

    The taxonomy mirrors where PostgreSQL's SSI can cancel a
    transaction (paper sections 3.3.1, 4.1, 5.4 and 7.1):

    * ``PIVOT`` -- the acting transaction is itself the pivot T2 of a
      confirmed dangerous structure and is aborted on the spot;
    * ``UNABORTABLE`` -- a structure was confirmed but every other
      participant has already committed or prepared, so the acting
      transaction dies instead (safe-retry fallback / section 7.1);
    * ``DOOMED_AT_OP`` -- another session's conflict resolution marked
      this transaction DOOMED and it noticed at its next operation;
    * ``DOOMED_AT_COMMIT`` -- as above, noticed at COMMIT/PREPARE;
    * ``UPDATE_CONFLICT`` -- snapshot isolation's first-updater-wins
      write/write conflict (not an SSI dangerous structure).
    """

    PIVOT = "pivot"
    UNABORTABLE = "unabortable"
    DOOMED_AT_OP = "doomed_at_op"
    DOOMED_AT_COMMIT = "doomed_at_commit"
    UPDATE_CONFLICT = "update_conflict"


class ReproError(Exception):
    """Base class for all engine errors.

    ``sqlstate`` mirrors PostgreSQL's five-character code for the
    condition; ``retryable`` is True for the classes a client-side
    retry loop should transparently re-attempt (serialization
    failures, deadlocks, admission rejections, lock/statement
    timeouts). The wire protocol (repro.server.protocol) surfaces both
    as structured fields on every error response.
    """

    sqlstate = "XX000"
    retryable = False


class UserError(ReproError):
    """Errors caused by incorrect API usage (not by concurrency)."""

    sqlstate = "22000"


class UndefinedTableError(UserError):
    sqlstate = "42P01"


class DuplicateTableError(UserError):
    sqlstate = "42P07"


class UndefinedIndexError(UserError):
    sqlstate = "42704"


class DuplicateIndexError(UserError):
    sqlstate = "42P07"


class UndefinedColumnError(UserError):
    sqlstate = "42703"


class UniqueViolationError(UserError):
    sqlstate = "23505"


class InvalidTransactionStateError(UserError):
    sqlstate = "25000"


class ReadOnlyTransactionError(UserError):
    """Write attempted in a transaction declared READ ONLY."""

    sqlstate = "25006"


class FeatureNotSupportedError(UserError):
    """For example: SERIALIZABLE transactions on a streaming replica
    without a safe snapshot (paper section 7.2)."""

    sqlstate = "0A000"


class ProtocolError(UserError):
    """Malformed wire-protocol frame (SQLSTATE 08P01,
    protocol_violation): not valid JSON, missing required fields, or an
    operation sent in a connection state that does not accept it."""

    sqlstate = "08P01"


class AuthenticationError(UserError):
    """The connection's hello carried a missing or wrong credential
    (SQLSTATE 28P01, invalid_password)."""

    sqlstate = "28P01"


class RetryableError(ReproError):
    """Errors for which the paper assumes a middleware retry layer
    (section 3.3: "users must already be prepared to handle transactions
    aborted by serialization failures")."""

    retryable = True


class SerializationFailure(RetryableError):
    """Could not serialize access (SQLSTATE 40001).

    Raised when SSI detects a dangerous structure (section 3.3), when a
    snapshot-isolation transaction loses a first-updater-wins conflict
    ("could not serialize access due to concurrent update"), or when a
    transaction was marked DOOMED by another session's commit (the safe
    retry rules of section 5.4).
    """

    sqlstate = "40001"

    def __init__(self, message: str, *, pivot_xid: Optional[int] = None,
                 reason: str = "dangerous structure",
                 cause: Optional[AbortCause] = None,
                 t1_xid: Optional[int] = None,
                 t3_xid: Optional[int] = None,
                 t3_commit_seq: Optional[float] = None,
                 rule: Optional[str] = None) -> None:
        super().__init__(message)
        self.pivot_xid = pivot_xid
        self.reason = reason
        #: Structured abort cause (:class:`AbortCause`) so tests and the
        #: post-mortem explainer can assert on cause rather than
        #: regex-matching the message text.
        self.cause = cause
        #: The dangerous structure T1 -rw-> T2(pivot) -rw-> T3 behind
        #: this failure, when known. ``t1_xid`` is None when T1 was a
        #: summarized committed transaction (section 6.2); ``t3_xid``
        #: is None when only T3's commit sequence number survived.
        self.t1_xid = t1_xid
        self.t3_xid = t3_xid
        self.t3_commit_seq = t3_commit_seq
        #: Which commit-ordering rule confirmed the structure:
        #: "commit_order" (section 3.3.1: T3 committed first),
        #: "ro_snapshot" (Theorem 3: read-only T1, T3 committed before
        #: T1's snapshot), "basic" (optimizations disabled), or
        #: "flags" (two-bit ablation mode).
        self.rule = rule


class DeadlockDetected(RetryableError):
    """Deadlock among blocking lock waits (SQLSTATE 40P01).

    Only blocking modes (snapshot-isolation write locks and the S2PL
    baseline) can deadlock; SIREAD locks never block (section 5.2.1).
    """

    sqlstate = "40P01"


class TooManyConnections(RetryableError):
    """Admission control rejected the connection (SQLSTATE 53300,
    too_many_connections).

    Raised by the server front end when the connection count is at
    ``ServerConfig.max_connections``, and by ``ClientPool`` when no
    pooled connection frees up in time. A connection's requests are
    never rejected: the server reads the next frame only after it has
    answered the last one. Retryable: the client library backs off
    exponentially and reconnects, which is how the "heavy traffic"
    story degrades gracefully instead of collapsing.
    """

    sqlstate = "53300"


class LockNotAvailable(RetryableError):
    """A statement waited on a heavyweight lock past the configured
    statement timeout (SQLSTATE 55P03, lock_not_available).

    The server's wait hook cancels the queued lock request (so the
    grant queue stays clean) and fails the statement; the transaction
    enters the FAILED state exactly as for any other statement error.
    """

    sqlstate = "55P03"


class StatementTimeout(RetryableError):
    """A statement exceeded the configured statement timeout while
    parked on a non-lock wait, e.g. a DEFERRABLE safe-snapshot wait
    (SQLSTATE 57014, query_canceled)."""

    sqlstate = "57014"


class AdminShutdown(ReproError):
    """The server is shutting down; parked statements are cancelled
    (SQLSTATE 57P01, admin_shutdown)."""

    sqlstate = "57P01"


class CapacityExceededError(ReproError):
    """Out of (simulated) shared memory (SQLSTATE 53200).

    Section 6 requires the implementation to degrade gracefully via
    granularity promotion and summarization before ever raising this;
    hitting it indicates the configured lock table is too small even for
    maximally-promoted locks.
    """

    sqlstate = "53200"


class DataCorruptionError(ReproError):
    """On-disk data failed validation (SQLSTATE XX001, data_corrupted).

    Raised when a page frame's checksum, magic, or header does not
    match its contents -- a torn write, bit rot, or truncation. The
    durability layer raises this *instead of* deserializing the frame,
    so corruption can never silently surface as wrong rows. Carries
    structured context naming the damaged frame so operators (and the
    fault-injection tests) can pinpoint it.
    """

    sqlstate = "XX001"

    def __init__(self, msg: str, *, path: str = "", kind: str = "",
                 page_no: "int | None" = None,
                 reason: str = "") -> None:
        super().__init__(msg)
        #: File holding the damaged frame.
        self.path = path
        #: Frame kind: "heap", "clog", "serxid", "wal", "checkpoint".
        self.kind = kind
        #: Page number within the file (None for non-paged files).
        self.page_no = page_no
        #: Machine-readable failure: "checksum", "magic", "short",
        #: "version", "overflow".
        self.reason = reason

    def details(self) -> dict:
        return {"path": self.path, "kind": self.kind,
                "page_no": self.page_no, "reason": self.reason}


class WouldBlock(Exception):
    """Internal control-flow signal: the current statement must wait.

    Not an error. Carries the executor generator so the statement can be
    resumed exactly where it suspended once the wait condition clears.
    The deterministic scheduler (repro.sim) handles this transparently;
    direct callers (unit tests) may catch it and call ``resume()`` on
    the session after resolving the conflict.
    """

    def __init__(self, condition: "object", session: "object" = None) -> None:
        super().__init__(f"would block on {condition!r}")
        self.condition = condition
        self.session = session
