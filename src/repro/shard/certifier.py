"""Distributed SSI certification: cross-shard dangerous structures.

Each shard runs the paper's single-node SSI, which catches every
dangerous structure whose two rw-antidependency edges both live on one
shard (branch transactions participate in each shard's local conflict
graph like any other transaction). What no single shard can see is a
structure whose edges span shards -- the pivot of such a structure
touches both shards, so it is a multi-shard transaction, and its
per-branch conflict lists, translated from shard-local xids to global
transaction ids, are exactly the missing facts.

The :class:`GlobalCertifier` maintains that translated graph. Every
transaction -- one branch or many -- runs one certification step at
commit: it exports the in/out rw-antidependency summaries of
each of its branch sxacts (keyed by global transaction id, the
PREPARE-time exchange of the issue), merges them into the global
graph, and re-runs the paper's dangerous-structure test in all three
roles the committing transaction can occupy:

* **as T3** (the commit-time rule of section 5.4): any active pivot
  with an rw edge into us and an rw edge into it is doomed -- we are
  about to become the first committer of its structure;
* **as the pivot**: an rw edge in from any T1 plus an rw edge out to a
  *committed* T3 (T3 committed first -- the section 3.3.1 commit
  ordering optimization applied globally) aborts us;
* **as T1**: an rw edge out to a pivot that already committed, whose
  own out-edge leads to a T3 that committed before it, aborts us --
  this is the role a lazily-read structure surfaces in when both
  other parties beat us to the commit point.

Because edges are exported at commit time (not at read/write time as
on a single node), the *later* certification of any edge's two
endpoints always sees the full structure; dooming and the safe-retry
victim preference (pivot first, never a committed peer, acting
transaction last) mirror ``SSIManager._choose_victim``.

Certification is also where cross-shard *snapshot* atomicity is
policed: a multi-shard transaction acquires its branch snapshots
lazily, so a multi-shard commit that lands between two of its branch
begins could be visible on the second shard but not the first -- a
fractured read no rw-edge exchange can see (it shows up as a wr/rw
cycle with no pivot). The certifier therefore keeps a short ring of
recent multi-shard commit footprints; beginning a late branch checks
the ring and restarts the transaction (retryable 40001) when such a
commit intersects both an already-snapshotted shard and the new one.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import AbortCause, SerializationFailure

#: Pseudo-gid standing in for every summarized old committed
#: transaction (section 6.2's OldCommittedSxact, globally).
OLD_COMMITTED_GID = "~old"


class GXactState:
    ACTIVE = "active"
    #: Certified: commit sequence assigned, local/branch commits being
    #: applied. Treated as committed by every check (conservative: it
    #: can still fail its local commit and become aborted).
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class GlobalXact:
    """Certifier-side record of one global transaction."""

    __slots__ = ("gid", "state", "commit_seq", "begin_seq",
                 "in_conflicts", "out_conflicts", "doomed", "doom_info")

    def __init__(self, gid: str, begin_seq: int) -> None:
        self.gid = gid
        self.state = GXactState.ACTIVE
        self.commit_seq: Optional[int] = None
        self.begin_seq = begin_seq
        #: gids with an rw-antidependency edge INTO this txn (they read
        #: an old version of something this txn wrote).
        self.in_conflicts: Set[str] = set()
        #: gids this txn has an rw edge OUT to (this txn read an old
        #: version of something they wrote).
        self.out_conflicts: Set[str] = set()
        self.doomed = False
        self.doom_info: Optional[dict] = None

    @property
    def finished(self) -> bool:
        return self.state in (GXactState.COMMITTED, GXactState.ABORTED)


class GlobalCertifier:
    """The cross-shard rw-antidependency graph and its commit test."""

    def __init__(self, *, multi_commit_ring: int = 8192) -> None:
        # One lock guards every certifier structure. It is never held
        # across an engine-latch acquisition (certification is pure
        # dict work; branch prepares/commits happen outside it), so it
        # needs no rank in the engine latch order.
        self._lock = threading.RLock()
        self._txns: Dict[str, GlobalXact] = {}
        #: (shard index, local xid) -> gid, for edge translation.
        self._gid_by_branch: Dict[Tuple[int, int], str] = {}
        self._seq = 0
        # -- snapshot-coherence ring (see module docstring) -----------
        #: Monotone count of multi-shard commit *applications*.
        self.epoch = 0
        #: Recent multi-shard commit write footprints: (epoch, shards).
        self._multi_commits: deque = deque(maxlen=multi_commit_ring)
        #: Epochs below this may have been dropped from the ring.
        self._pruned_through = 0
        self._ring_cap = multi_commit_ring
        # The summarized-old-committed pseudo transaction: committed
        # before everything.
        old = GlobalXact(OLD_COMMITTED_GID, begin_seq=0)
        old.state = GXactState.COMMITTED
        old.commit_seq = 0
        self._txns[OLD_COMMITTED_GID] = old

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, gid: str) -> GlobalXact:
        with self._lock:
            if gid in self._txns:
                raise ValueError(f"duplicate global transaction id {gid!r}")
            gx = GlobalXact(gid, begin_seq=self._seq)
            self._txns[gid] = gx
            return gx

    def note_branch(self, gid: str, shard: int, xid: int) -> None:
        """Record a branch's shard-local xid so later exports from any
        transaction can translate edges touching it back to ``gid``."""
        with self._lock:
            self._gid_by_branch[(shard, xid)] = gid

    def abort(self, gid: str) -> None:
        with self._lock:
            gx = self._txns.get(gid)
            if gx is not None and not gx.finished:
                gx.state = GXactState.ABORTED

    def finish_commit(self, gid: str) -> None:
        """The branch/local commits of a certified transaction are all
        applied; it is now fully committed."""
        with self._lock:
            gx = self._txns[gid]
            if gx.state is not GXactState.ABORTED:
                gx.state = GXactState.COMMITTED

    def state_of(self, gid: str) -> Optional[str]:
        with self._lock:
            gx = self._txns.get(gid)
            return None if gx is None else gx.state

    def commit_seq_of(self, gid: str) -> Optional[int]:
        with self._lock:
            gx = self._txns.get(gid)
            return None if gx is None else gx.commit_seq

    # ------------------------------------------------------------------
    # dooming
    # ------------------------------------------------------------------
    def ensure_not_doomed(self, gid: str, *, at: str = "commit") -> None:
        with self._lock:
            gx = self._txns.get(gid)
            if gx is None or not gx.doomed:
                return
            info = gx.doom_info or {}
        raise SerializationFailure(
            f"could not serialize access due to read/write dependencies "
            f"among distributed transactions ({gid} doomed as cross-shard "
            f"pivot, detected at {at})",
            reason="cross-shard dangerous structure",
            cause=AbortCause.DOOMED_AT_COMMIT,
            rule=info.get("rule", "distributed"))

    def _doom(self, gx: GlobalXact, *, t1: str, t3: str, rule: str) -> None:
        gx.doomed = True
        if gx.doom_info is None:
            gx.doom_info = {"t1": t1, "t3": t3, "rule": rule}

    # ------------------------------------------------------------------
    # edge export
    # ------------------------------------------------------------------
    def _translate(self, shard: int, peer) -> Optional[str]:
        """Map one shard-local conflicting sxact to its gid. A peer
        with no xid is the shard's summarized-old-committed dummy."""
        xid = getattr(peer, "xid", None)
        if xid is None:
            return OLD_COMMITTED_GID
        return self._gid_by_branch.get((shard, xid))

    def _export_edges(self, gid: str,
                      branch_sxacts: Iterable[Tuple[int, object]]) -> None:
        """Merge the in/out conflict lists of every branch sxact into
        the global graph, translated local-xid -> gid (the PREPARE-time
        antidependency-summary exchange)."""
        gx = self._txns[gid]
        for shard, sx in branch_sxacts:
            if sx is None:
                continue  # snapshot-isolation branch: no SSI state
            for peer in sx.in_conflicts:
                peer_gid = self._translate(shard, peer)
                if peer_gid is None or peer_gid == gid:
                    continue
                gx.in_conflicts.add(peer_gid)
                peer_gx = self._txns.get(peer_gid)
                if peer_gx is not None:
                    peer_gx.out_conflicts.add(gid)
            for peer in sx.out_conflicts:
                peer_gid = self._translate(shard, peer)
                if peer_gid is None or peer_gid == gid:
                    continue
                gx.out_conflicts.add(peer_gid)
                peer_gx = self._txns.get(peer_gid)
                if peer_gx is not None:
                    peer_gx.in_conflicts.add(gid)
            # Section 6.2 summary flags on the branch itself.
            if getattr(sx, "summary_conflict_out", False):
                gx.out_conflicts.add(OLD_COMMITTED_GID)
            if getattr(sx, "summary_in_max_seq", None) not in (None, 0):
                gx.in_conflicts.add(OLD_COMMITTED_GID)

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------
    def certify(self, gid: str,
                branch_sxacts: Iterable[Tuple[int, object]]) -> int:
        """The commit-time dangerous-structure test for ``gid``.

        Exports the branch conflict summaries, checks the committing
        transaction in all three structure roles, dooms or aborts per
        the safe-retry rules, and -- on success -- assigns the global
        commit sequence number and moves the transaction to COMMITTING.
        Raises SerializationFailure when ``gid`` itself must die.
        """
        with self._lock:
            gx = self._txns[gid]
            self._export_edges(gid, branch_sxacts)
            if gx.doomed:
                gx.state = GXactState.ABORTED
                info = gx.doom_info or {}
                raise SerializationFailure(
                    f"could not serialize access due to read/write "
                    f"dependencies among distributed transactions "
                    f"({gid} doomed as cross-shard pivot)",
                    reason="cross-shard dangerous structure",
                    cause=AbortCause.DOOMED_AT_COMMIT,
                    rule=info.get("rule", "distributed"))
            self._check_as_pivot(gx)
            self._check_as_t1(gx)
            self._check_as_t3(gx)
            self._seq += 1
            gx.commit_seq = self._seq
            gx.state = GXactState.COMMITTING
            return gx.commit_seq

    # -- the three roles ------------------------------------------------
    def _peer(self, gid: str) -> Optional[GlobalXact]:
        return self._txns.get(gid)

    def _committed_like(self, gx: GlobalXact) -> bool:
        return gx.state in (GXactState.COMMITTING, GXactState.COMMITTED)

    def _check_as_t3(self, gx: GlobalXact) -> None:
        """Committing transaction is T3: doom every active pivot.

        We are about to take the earliest commit seq of the structure
        (any committed pivot/T1 committed before us, which makes the
        structure a commit-ordering false positive and is skipped).
        ``t1 is gx`` -- the two-transaction write skew where the edge
        list wraps straight back to us -- counts as dangerous.
        """
        for pivot_gid in list(gx.in_conflicts):
            pivot = self._peer(pivot_gid)
            if pivot is None or pivot.finished or pivot.doomed:
                continue
            if self._committed_like(pivot):
                continue  # pivot committed before us: we are not first
            for t1_gid in list(pivot.in_conflicts):
                if t1_gid == pivot_gid:
                    continue
                t1 = self._peer(t1_gid)
                if t1 is None or t1.state is GXactState.ABORTED:
                    continue
                if t1 is not gx and self._committed_like(t1):
                    continue  # T1 committed before T3: false positive
                self._doom(pivot, t1=t1_gid, t3=gx.gid,
                           rule="distributed_commit_order")
                break

    def _check_as_pivot(self, gx: GlobalXact) -> None:
        """Committing transaction is the pivot: in-edge from a live T1
        plus out-edge to a T3 that committed first kills us (safe
        retry prefers the pivot, and we are the acting transaction)."""
        t3_hit = None
        for t3_gid in gx.out_conflicts:
            t3 = self._peer(t3_gid)
            if t3 is None or t3.state is GXactState.ABORTED:
                continue
            if not self._committed_like(t3):
                continue  # T3 not committed: structure incomplete
            for t1_gid in gx.in_conflicts:
                t1 = self._peer(t1_gid)
                if t1 is None or t1.state is GXactState.ABORTED:
                    continue
                if (self._committed_like(t1) and t1.commit_seq is not None
                        and t3.commit_seq is not None
                        and t1.commit_seq < t3.commit_seq):
                    continue  # T1 committed before T3: false positive
                t3_hit = (t1_gid, t3_gid, t3.commit_seq)
                break
            if t3_hit:
                break
        if t3_hit:
            t1_gid, t3_gid, t3_seq = t3_hit
            gx.state = GXactState.ABORTED
            raise SerializationFailure(
                f"could not serialize access due to read/write dependencies "
                f"among distributed transactions ({gx.gid} is the pivot of "
                f"{t1_gid} -rw-> {gx.gid} -rw-> {t3_gid})",
                reason="cross-shard dangerous structure",
                cause=AbortCause.PIVOT,
                t3_commit_seq=t3_seq,
                rule="distributed_commit_order")

    def _check_as_t1(self, gx: GlobalXact) -> None:
        """Committing transaction is T1: its out-edge reaches a pivot.

        Active pivot: doom it (it dies at its own certification; we may
        commit). Committed pivot whose T3 committed before it: every
        other party is beyond aborting -- the acting transaction dies
        (the UNABORTABLE case of section 5.4, surfacing here because
        edges were exported after both commits).
        """
        for pivot_gid in gx.out_conflicts:
            pivot = self._peer(pivot_gid)
            if pivot is None or pivot.state is GXactState.ABORTED:
                continue
            for t3_gid in list(pivot.out_conflicts):
                if t3_gid == gx.gid or t3_gid == pivot_gid:
                    continue
                t3 = self._peer(t3_gid)
                if t3 is None or not self._committed_like(t3):
                    continue
                if self._committed_like(pivot):
                    if (pivot.commit_seq is not None
                            and t3.commit_seq is not None
                            and t3.commit_seq < pivot.commit_seq):
                        gx.state = GXactState.ABORTED
                        raise SerializationFailure(
                            f"could not serialize access due to read/write "
                            f"dependencies among distributed transactions "
                            f"({gx.gid} -rw-> committed pivot {pivot_gid} "
                            f"-rw-> {t3_gid}, T3 committed first)",
                            reason="cross-shard dangerous structure",
                            cause=AbortCause.UNABORTABLE,
                            t3_commit_seq=t3.commit_seq,
                            rule="distributed_commit_order")
                elif not pivot.doomed:
                    self._doom(pivot, t1=gx.gid, t3=t3_gid,
                               rule="distributed_commit_order")

    # ------------------------------------------------------------------
    # snapshot coherence across lazy branch begins
    # ------------------------------------------------------------------
    def register_multi_commit(self, shards: Iterable[int]) -> None:
        """Record the branch footprint of a committing multi-shard
        transaction, called *before* any branch commit applies
        (conservative: a late branch begin racing the application sees
        the footprint and restarts). The footprint covers every branch
        shard including read-only ones -- committing also fixes the
        concurrent/not-concurrent judgement a later writer on a
        read-only branch's shard will make, which silently drops the
        local rw edge a fractured observer would need."""
        with self._lock:
            self.epoch += 1
            if len(self._multi_commits) == self._ring_cap:
                self._pruned_through = self._multi_commits[0][0]
            self._multi_commits.append((self.epoch, frozenset(shards)))

    def check_branch_coherence(self, gid: str,
                               branch_epochs: Dict[int, int],
                               new_shard: int) -> None:
        """Beginning a branch on ``new_shard`` after earlier branches:
        restart (retryable 40001) if any multi-shard commit wrote to
        both the new shard and an already-snapshotted one after that
        branch's snapshot -- the fractured read would be invisible to
        the rw-edge exchange."""
        if not branch_epochs:
            return
        with self._lock:
            oldest_needed = min(branch_epochs.values())
            if oldest_needed < self._pruned_through:
                raise SerializationFailure(
                    f"could not serialize access: transaction {gid} "
                    f"outlived the cross-shard commit history window",
                    reason="cross-shard snapshot coherence",
                    rule="distributed_snapshot")
            for epoch, footprint in reversed(self._multi_commits):
                if epoch <= oldest_needed:
                    break
                if new_shard not in footprint:
                    continue
                for shard, begun_at in branch_epochs.items():
                    if begun_at < epoch and shard in footprint:
                        raise SerializationFailure(
                            f"could not serialize access: cross-shard "
                            f"commit became visible between branch "
                            f"snapshots of {gid} (shards {shard} and "
                            f"{new_shard})",
                            reason="cross-shard snapshot coherence",
                            rule="distributed_snapshot")

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            states: Dict[str, int] = {}
            for gx in self._txns.values():
                states[gx.state] = states.get(gx.state, 0) + 1
            return {"txns": len(self._txns) - 1,
                    "edges": sum(len(gx.out_conflicts)
                                 for gx in self._txns.values()),
                    "multi_commit_epoch": self.epoch,
                    **{f"state_{k}": v for k, v in states.items()}}

    def compact(self, keep_finished: int = 1024) -> int:
        """Drop edge lists and branch translations of long-finished
        transactions (those that finished before every active
        transaction began), bounding certifier memory on long runs."""
        with self._lock:
            active_floor = min(
                (gx.begin_seq for gx in self._txns.values()
                 if not gx.finished and gx.gid != OLD_COMMITTED_GID),
                default=self._seq)
            finished = [gx for gx in self._txns.values()
                        if gx.finished and gx.gid != OLD_COMMITTED_GID
                        and (gx.commit_seq or 0) < active_floor
                        and gx.begin_seq < active_floor]
            if len(finished) <= keep_finished:
                return 0
            finished.sort(key=lambda gx: gx.commit_seq or 0)
            victims = finished[:len(finished) - keep_finished]
            victim_gids = {gx.gid for gx in victims}
            for gx in victims:
                del self._txns[gx.gid]
            for gx in self._txns.values():
                if gx.in_conflicts & victim_gids:
                    gx.in_conflicts -= victim_gids
                    gx.in_conflicts.add(OLD_COMMITTED_GID)
                if gx.out_conflicts & victim_gids:
                    gx.out_conflicts -= victim_gids
            self._gid_by_branch = {
                k: g for k, g in self._gid_by_branch.items()
                if g not in victim_gids}
            return len(victims)
