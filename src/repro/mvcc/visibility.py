"""Tuple visibility under MVCC snapshots (HeapTupleSatisfiesMVCC).

Besides the boolean answer, the result records *why* a tuple is or is
not visible whenever a concurrent transaction is involved. This is
exactly the information SSI mines for write-before-read rw-conflicts
(paper section 5.2):

* a tuple invisible because its creator had not committed when the
  reader took its snapshot -> the reader must precede the creator in
  the serial order (rw-conflict reader -> creator);
* a tuple still visible although it has a deleter, because the deleter
  had not committed at snapshot time -> rw-conflict reader -> deleter.

The checks consult (and lazily set) the tuple's infomask hint bits, as
PostgreSQL's HeapTupleSatisfiesMVCC does: once the commit log has
delivered a final verdict on xmin or xmax it is cached in the tuple
header, and repeat checks answer from the header without touching the
CLOG. A hint bit is only ever set to a status that can never change
again, so a hinted answer always equals the CLOG's; ``hint_counter``
(an obs Counter) counts the CLOG lookups avoided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from repro.mvcc.clog import CommitLog
from repro.mvcc.snapshot import Snapshot
from repro.mvcc.xid import INVALID_XID


@dataclass(frozen=True)
class TxnView:
    """The reading transaction's own identity.

    Attributes:
        xids: the top-level xid plus all live subtransaction xids.
            (Aborted subtransactions are recorded in the commit log and
            handled there.)
        curcid: current command ID; tuples written by an earlier
            command of this transaction are visible, tuples written by
            the current or a later command are not.
    """

    xids: AbstractSet[int]
    curcid: int


@dataclass(frozen=True)
class VisibilityResult:
    """Outcome of a visibility check, with SSI-relevant classification."""

    visible: bool
    #: Tuple invisible because its creator is concurrent with the
    #: reader (in progress, or committed after the reader's snapshot).
    creator_concurrent: bool = False
    #: Tuple visible but its deleter is concurrent with the reader.
    deleter_concurrent: bool = False
    creator_xid: int = INVALID_XID
    deleter_xid: int = INVALID_XID


#: Shared results for the commonest answers (the frozen dataclass is
#: immutable, so reuse is safe and skips an allocation on the hottest
#: return paths).
ALL_VISIBLE = VisibilityResult(True)
_INVISIBLE = VisibilityResult(False)


def tuple_visibility(tup, snapshot: Snapshot, view: TxnView,
                     clog: CommitLog, hint_counter=None) -> VisibilityResult:
    """Evaluate ``tup`` against ``snapshot`` for the transaction ``view``.

    ``tup`` needs attributes ``xmin``, ``cmin``, ``xmax``, ``cmax``,
    ``xmax_lock_only`` (a FOR UPDATE-style locker stored in xmax does
    not delete the tuple, mirroring HEAP_XMAX_LOCK_ONLY) and the four
    hint-bit attributes.
    """
    xmin = tup.xmin

    # --- creator, hinted ----------------------------------------------
    if tup.xmin_aborted:
        # Dead on arrival (includes our own aborted subtransactions,
        # whose abort is just as final).
        if hint_counter is not None:
            hint_counter.inc()
        return _INVISIBLE
    if tup.xmin_committed:
        # A committed xmin cannot be ours (our xids are in progress
        # until we finish), so only the snapshot window matters.
        if hint_counter is not None:
            hint_counter.inc()
        if snapshot.xid_in_progress_at_snapshot(xmin):
            return VisibilityResult(False, creator_concurrent=True,
                                    creator_xid=xmin)
        return _check_deleter(tup, snapshot, view, clog, hint_counter)

    # --- creator -------------------------------------------------------
    if clog.did_abort(xmin):
        tup.xmin_aborted = True
        return _INVISIBLE

    if xmin in view.xids:
        if tup.cmin >= view.curcid:
            # Inserted by the current command: invisible to it
            # (Halloween protection).
            return _INVISIBLE
        return _check_deleter(tup, snapshot, view, clog, hint_counter)

    if not snapshot.committed_visible(xmin, clog):
        # Creator still in progress, or committed after our snapshot:
        # a concurrent writer whose update we are not seeing.
        if clog.did_commit(xmin):
            tup.xmin_committed = True
        return VisibilityResult(False, creator_concurrent=True,
                                creator_xid=xmin)

    tup.xmin_committed = True
    return _check_deleter(tup, snapshot, view, clog, hint_counter)


def _check_deleter(tup, snapshot: Snapshot, view: TxnView, clog: CommitLog,
                   hint_counter) -> VisibilityResult:
    xmax = tup.xmax
    if xmax == INVALID_XID or tup.xmax_lock_only:
        return ALL_VISIBLE

    if tup.xmax_aborted:
        if hint_counter is not None:
            hint_counter.inc()
        return ALL_VISIBLE
    if tup.xmax_committed:
        # A committed xmax cannot be ours while we are running.
        if hint_counter is not None:
            hint_counter.inc()
        if snapshot.xid_in_progress_at_snapshot(xmax):
            return VisibilityResult(True, deleter_concurrent=True,
                                    deleter_xid=xmax)
        return _INVISIBLE

    if clog.did_abort(xmax):
        tup.xmax_aborted = True
        return ALL_VISIBLE

    if xmax in view.xids:
        if tup.cmax >= view.curcid:
            # Being deleted by the current command; still visible to it.
            return ALL_VISIBLE
        return _INVISIBLE

    if snapshot.committed_visible(xmax, clog):
        tup.xmax_committed = True
        return _INVISIBLE

    # Deleter in progress or committed after our snapshot: we still see
    # the tuple, and the deleter is a concurrent writer.
    if clog.did_commit(xmax):
        tup.xmax_committed = True
    return VisibilityResult(True, deleter_concurrent=True, deleter_xid=xmax)


def page_all_visible(tuples, clog: CommitLog,
                     horizon_xmin: "int | None" = None) -> bool:
    """May a heap page's all-visible bit be set over ``tuples``?

    True when every tuple is visible to every current and future
    snapshot: creator committed (below ``horizon_xmin``, when given --
    VACUUM passes the horizon to guarantee no *current* snapshot
    predates the commit; the sanitizer re-checks later with no horizon,
    since the bit only needs the timeless part to stay sound) and no
    deleter except an aborted or lock-only one. Lives here so the heap
    never reads raw CLOG status itself (see repro.analysis, CLOG001).
    """
    for tup in tuples:
        if not clog.did_commit(tup.xmin):
            return False
        if horizon_xmin is not None and tup.xmin >= horizon_xmin:
            return False
        if not (tup.xmax == INVALID_XID or tup.xmax_lock_only
                or clog.did_abort(tup.xmax)):
            return False
    return True


def tuple_is_dead(tup, horizon_xmin: int, clog: CommitLog, *,
                  hint_counter=None) -> bool:
    """Can VACUUM remove this tuple?

    True when no current or future snapshot can see it: its creator
    aborted, or its deleter committed before every active transaction's
    snapshot window (``horizon_xmin`` = min over active snapshots of
    ``xmin``).
    """
    if tup.xmin_aborted:
        if hint_counter is not None:
            hint_counter.inc()
        return True
    if clog.did_abort(tup.xmin):
        tup.xmin_aborted = True
        return True
    if tup.xmax == INVALID_XID or tup.xmax_lock_only:
        return False
    if tup.xmax_aborted:
        if hint_counter is not None:
            hint_counter.inc()
        return False
    if tup.xmax_committed:
        if hint_counter is not None:
            hint_counter.inc()
        return tup.xmax < horizon_xmin
    if not clog.did_commit(tup.xmax):
        if clog.did_abort(tup.xmax):
            tup.xmax_aborted = True
        return False
    tup.xmax_committed = True
    return tup.xmax < horizon_xmin
