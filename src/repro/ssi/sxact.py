"""SerializableXact: per-transaction SSI state (paper section 5.3).

PostgreSQL 9.1 chose to keep "a list of all rw-antidependencies in or
out for each transaction" -- not single-bit flags (original SSI paper)
nor the full graph (PSSI) -- because pointers are needed for the
commit-ordering optimization, the read-only optimizations, and for
removing conflicts when a transaction aborts. This class follows that
choice; the flag-only variant is available for the ablation benchmark
via SSIConfig.conflict_tracking = "flags".
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Set

from repro.mvcc.snapshot import Snapshot

#: Commit sequence number stand-in for "not committed".
INFINITE_SEQ = float("inf")


class DoomInfo(NamedTuple):
    """The dangerous structure that doomed a transaction, retained so
    the eventual SerializationFailure (raised at the victim's next
    operation or commit) can carry structured fields and the
    post-mortem explainer (repro.obs.postmortem) can name the
    participants after the fact."""

    t1_xid: Optional[int]       # None when T1 was a summarized xact
    pivot_xid: Optional[int]
    t3_xid: Optional[int]       # None when only T3's seq survived
    t3_seq: Optional[float]
    rule: Optional[str]         # commit_order | ro_snapshot | basic | flags


class SerializableXact:
    """SSI bookkeeping for one top-level serializable transaction."""

    __slots__ = (
        "xid", "snapshot", "snapshot_seq", "declared_read_only",
        "deferrable", "in_conflicts", "out_conflicts",
        "earliest_out_commit_seq", "summary_in_max_seq",
        "summary_conflict_out", "commit_seq", "prepared", "committed",
        "aborted", "doomed", "wrote_data", "ro_safe", "ro_unsafe",
        "possible_unsafe_conflicts", "watching_ros", "flag_conflict_in",
        "flag_conflict_out", "locks_released", "sub_xids", "doom_info",
    )

    def __init__(self, xid: int, snapshot: Snapshot, snapshot_seq: int,
                 read_only: bool = False, deferrable: bool = False) -> None:
        self.xid = xid
        self.snapshot = snapshot
        #: Commit sequence number of the last transaction to commit
        #: before this transaction took its snapshot. "T3 committed
        #: before T1's snapshot" (Theorem 3) <=> T3.commit_seq <= this.
        self.snapshot_seq = snapshot_seq
        self.declared_read_only = read_only
        self.deferrable = deferrable

        #: Transactions with an rw-antidependency edge pointing at us
        #: (they read something we wrote: T -> self).
        self.in_conflicts: Set["SerializableXact"] = set()
        #: Transactions we have an edge to (we read, they wrote).
        self.out_conflicts: Set["SerializableXact"] = set()
        #: min commit_seq over committed out-neighbours, including ones
        #: whose nodes were freed or summarized (section 6.1: "the
        #: commit sequence number of the earliest committed transaction
        #: to which it has a conflict out").
        self.earliest_out_commit_seq: float = INFINITE_SEQ
        #: Conservative stand-in for in-edges from summarized committed
        #: transactions (SXACT_FLAG_SUMMARY_CONFLICT_IN): the largest
        #: commit_seq among them.
        self.summary_in_max_seq: Optional[float] = None
        #: True once this transaction has a conflict out recorded only
        #: in summary form (SXACT_FLAG_SUMMARY_CONFLICT_OUT).
        self.summary_conflict_out = False

        self.commit_seq: Optional[int] = None
        self.prepared = False
        self.committed = False
        self.aborted = False
        #: Marked by another session's conflict resolution; this
        #: transaction must fail at its next operation or commit
        #: (PostgreSQL's SXACT_FLAG_DOOMED; safe-retry rules 5.4).
        self.doomed = False
        #: Why we were doomed (DoomInfo), for the structured error.
        self.doom_info: Optional[DoomInfo] = None
        self.wrote_data = False

        # -- read-only / safe snapshot state (section 4.2) -------------
        self.ro_safe = False
        self.ro_unsafe = False
        #: For a READ ONLY transaction: concurrent read/write
        #: transactions that could still make this snapshot unsafe.
        self.possible_unsafe_conflicts: Set["SerializableXact"] = set()
        #: For a read/write transaction: READ ONLY transactions whose
        #: snapshot safety depends on how we commit.
        self.watching_ros: Set["SerializableXact"] = set()

        # -- flag-only tracking mode (ablation) --------------------------
        self.flag_conflict_in = False
        self.flag_conflict_out = False

        #: SIREAD locks already dropped by post-commit cleanup.
        self.locks_released = False
        #: Subtransaction xids (for old_serxid registration on summary).
        self.sub_xids: Set[int] = set()

    # -- derived state ---------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.committed or self.aborted

    @property
    def cseq(self) -> float:
        """Commit sequence number, or +infinity while uncommitted."""
        return self.commit_seq if self.commit_seq is not None else INFINITE_SEQ

    def is_effectively_read_only(self) -> bool:
        """Theorem 3's notion: declared READ ONLY, or committed without
        modifying any data (section 4.1)."""
        if self.declared_read_only:
            return True
        return self.committed and not self.wrote_data

    def all_xids(self) -> Set[int]:
        return {self.xid} | self.sub_xids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("committed" if self.committed else
                 "aborted" if self.aborted else
                 "prepared" if self.prepared else "active")
        ro = " RO" if self.declared_read_only else ""
        doomed = " DOOMED" if self.doomed else ""
        return f"<SXact {self.xid} {state}{ro}{doomed}>"


class SummaryPseudoXact:
    """Stand-in participant for a summarized committed transaction.

    Summarization (section 6.2) discards which transaction held a
    SIREAD lock or an edge, keeping only a commit sequence number; the
    dangerous-structure conditions only need that number plus the fact
    that it committed. Conservative defaults: not read-only, cannot be
    chosen as an abort victim.
    """

    __slots__ = ("commit_seq",)

    committed = True
    prepared = False
    aborted = False
    declared_read_only = False
    snapshot_seq = -1

    def __init__(self, commit_seq: float) -> None:
        self.commit_seq = commit_seq

    @property
    def cseq(self) -> float:
        return self.commit_seq

    def is_effectively_read_only(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SummaryXact cseq={self.commit_seq}>"
