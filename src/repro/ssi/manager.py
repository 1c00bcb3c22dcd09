"""SSI conflict detection, tracking, and resolution.

Implements sections 3-6 of the paper:

* rw-antidependency detection from MVCC visibility data (write before
  read) and from the SIREAD lock manager (read before write),
  section 5.2;
* full in/out conflict lists per transaction, section 5.3;
* dangerous-structure checks ``T1 -rw-> T2 -rw-> T3`` with the
  commit-ordering optimization (T3 must be the first of the three to
  commit, section 3.3.1) and the read-only snapshot-ordering rule
  (if T1 is read-only, T3 must have committed before T1's snapshot,
  Theorem 3 / section 4.1);
* safe-retry victim selection (section 5.4): prefer aborting the pivot
  T2; transactions in other sessions are marked DOOMED and fail at
  their next operation or commit, mirroring PostgreSQL;
* safe snapshots for read-only transactions (section 4.2);
* memory mitigation (section 6): aggressive cleanup of committed
  transactions and summarization into a dummy OldCommittedSxact plus
  an "on-disk" old-serxid table.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.config import SSIConfig
from repro.errors import AbortCause, SerializationFailure
from repro.mvcc.clog import CommitLog
from repro.mvcc.snapshot import Snapshot
from repro.mvcc.visibility import VisibilityResult
from repro.obs import Observability, StatsView, install_counter_properties
from repro.ssi.lockmgr import SIReadLockManager
from repro.ssi.sxact import (INFINITE_SEQ, DoomInfo, SerializableXact,
                             SummaryPseudoXact)
from repro.ssi.targets import (heap_write_targets, index_inf_target,
                               index_insert_targets, index_key_target,
                               index_rel_target, page_target, tuple_target)
from repro.storage.tuple import TID

Participant = Union[SerializableXact, SummaryPseudoXact]


def _in_xid_order(sxacts) -> List[SerializableXact]:
    """``sxacts`` in xid order. SerializableXact hashes by identity, so
    a set iterates in memory-address order; every loop whose first hit
    can choose a victim walks this order instead, keeping abort
    decisions (and the figures) independent of allocation history."""
    return sorted(sxacts, key=attrgetter("xid"))


class SSIStats(StatsView):
    """Counters exposed for benchmarks and tests.

    A thin attribute view over ``ssi.*`` registry counters (repro.obs):
    the attribute API is unchanged, but snapshots/diffs and the
    benchmark reporter see the same numbers."""

    _PREFIX = "ssi."
    _FIELDS = ("conflicts_flagged", "dangerous_structures", "doomed",
               "immediate_aborts", "safe_snapshots", "unsafe_snapshots",
               "summarized", "committed", "aborted")


install_counter_properties(SSIStats)


class SSIManager:
    """Shared SSI state for one database instance."""

    def __init__(self, config: SSIConfig, clog: CommitLog,
                 obs: Optional[Observability] = None) -> None:
        self.config = config
        self.clog = clog
        self.obs = obs if obs is not None else Observability()
        self.lockmgr = SIReadLockManager(config)
        #: Every live sxact, keyed by each of its xids (top + subs).
        self._by_xid: Dict[int, SerializableXact] = {}  # repro: guarded-by(ENGINE)
        self._active: Set[SerializableXact] = set()  # repro: guarded-by(ENGINE)
        #: Committed sxacts retained for conflict checking, oldest first.
        self._committed: List[SerializableXact] = []  # repro: guarded-by(ENGINE)
        #: Summarized committed transactions: xid -> (commit_seq,
        #: earliest committed out-conflict commit_seq or None). Stands
        #: in for PostgreSQL's SLRU-backed OldSerXid log, which made the
        #: table "effectively unlimited" (section 6.2); a plain dict has
        #: the same observable behaviour.
        self._old_serxid: Dict[int, Tuple[float, Optional[float]]] = {}  # repro: guarded-by(ENGINE)
        self._commit_counter = 0  # repro: guarded-by(ENGINE)
        self._own_work = 0  # repro: guarded-by(ENGINE)
        self.stats = SSIStats(self.obs.metrics)
        self._tracer = self.obs.tracer
        self._fastpath_hits = self.obs.metrics.counter(
            "perf.siread_fastpath_hits")
        #: ssi.aborts{cause=...}: serialization failures by cause.
        self._abort_counters = {
            cause: self.obs.metrics.counter("ssi.aborts", cause=cause.value)
            for cause in AbortCause}

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def work_units(self) -> int:
        """Total SSI bookkeeping work (cost-model input)."""
        return self.lockmgr.work_units + self._own_work

    @property
    def commit_seq_counter(self) -> int:
        return self._commit_counter

    def active_sxacts(self) -> Set[SerializableXact]:
        return set(self._active)

    def committed_retained(self) -> List[SerializableXact]:
        return list(self._committed)

    def sxact_for_xid(self, xid: int) -> Optional[SerializableXact]:
        return self._by_xid.get(xid)

    def tracked_sxacts(self) -> Set[SerializableXact]:
        """Every sxact the manager still holds state for: active plus
        committed-retained. Anything outside this set must hold no
        SIREAD locks and appear in no conflict list (the cleanup
        protocol of sections 4.7 / 6; checked by repro.analysis)."""
        return set(self._active) | set(self._committed)

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self, xid: int, snapshot: Snapshot, *, read_only: bool = False,
              deferrable: bool = False) -> SerializableXact:
        """Register a new serializable transaction."""
        sx = SerializableXact(xid, snapshot, snapshot_seq=self._commit_counter,
                              read_only=read_only, deferrable=deferrable)
        self._by_xid[xid] = sx
        self._active.add(sx)
        self._own_work += 1
        if read_only and self.config.safe_snapshots:
            self._register_possible_unsafe(sx)
        return sx

    def _register_possible_unsafe(self, ro: SerializableXact) -> None:
        """Record the concurrent read/write transactions that could
        make this READ ONLY transaction's snapshot unsafe
        (section 4.2). If there are none, the snapshot is immediately
        safe -- the "important special case"."""
        concurrent_rw = {s for s in self._active
                         if s is not ro and not s.declared_read_only
                         and not s.finished}
        if not concurrent_rw:
            self._mark_ro_safe(ro)
            return
        ro.possible_unsafe_conflicts = set(concurrent_rw)
        for writer in concurrent_rw:
            writer.watching_ros.add(ro)

    def register_subxact(self, sx: SerializableXact, sub_xid: int) -> None:
        sx.sub_xids.add(sub_xid)
        self._by_xid[sub_xid] = sx

    def register_recovered_prepared(self, xid: int,
                                    snapshot: Snapshot) -> SerializableXact:
        """Re-create SSI state for a prepared transaction after crash
        recovery. The dependency graph is not crash-safe, so we
        "conservatively assume that any prepared transaction has
        rw-antidependencies both in and out" (section 7.1)."""
        sx = self.begin(xid, snapshot)
        sx.prepared = True
        sx.wrote_data = True
        sx.summary_in_max_seq = float(self._commit_counter)
        sx.summary_conflict_out = True
        sx.earliest_out_commit_seq = 0.0
        return sx

    def restore_recovered_state(self, commit_counter: int,
                                old_serxid: "dict") -> None:
        """Install durable SSI facts after crash recovery (called by
        repro.storage.durable.recovery before any new transaction
        begins): the commit-sequence counter, so post-recovery commit
        ordering stays monotonic with pre-crash commits, and the
        old-committed-serializable-xid table (section 6.2 summaries) so
        conflicts against summarized pre-crash writers are still
        detected."""
        self._commit_counter = max(self._commit_counter, int(commit_counter))
        self._old_serxid.update(old_serxid)

    # ------------------------------------------------------------------
    # doom handling
    # ------------------------------------------------------------------
    def ensure_not_doomed(self, sx: SerializableXact,
                          at: str = "statement") -> None:
        """Fail fast if another session's conflict resolution marked us
        for death (the deferred abort of section 5.4). ``at`` records
        whether the doom was noticed mid-statement or at commit, which
        the abort-cause taxonomy distinguishes."""
        if sx.doomed:
            cause = (AbortCause.DOOMED_AT_COMMIT if at == "commit"
                     else AbortCause.DOOMED_AT_OP)
            info = sx.doom_info
            self._raise_failure(
                "could not serialize access due to read/write dependencies "
                "among transactions (canceled on conflict identified by "
                "another transaction)", cause=cause, reason="doomed",
                pivot_xid=(info.pivot_xid if info else sx.xid),
                t1_xid=(info.t1_xid if info else None),
                t3_xid=(info.t3_xid if info else None),
                t3_commit_seq=(info.t3_seq if info else None),
                rule=(info.rule if info else None))

    def _raise_failure(self, message: str, *, cause: AbortCause,
                       reason: str, pivot_xid: Optional[int] = None,
                       t1_xid: Optional[int] = None,
                       t3_xid: Optional[int] = None,
                       t3_commit_seq: Optional[float] = None,
                       rule: Optional[str] = None) -> None:
        """Raise a structured SerializationFailure, counting it under
        ``ssi.aborts{cause=...}`` and tracing it."""
        self.stats.immediate_aborts += 1
        self._abort_counters[cause].inc()
        if self._tracer is not None:
            self._tracer.emit("abort.raise", pivot_xid, cause=cause.value,
                              rule=rule, t1_xid=t1_xid, t3_xid=t3_xid)
        raise SerializationFailure(
            message, pivot_xid=pivot_xid, reason=reason, cause=cause,
            t1_xid=t1_xid, t3_xid=t3_xid, t3_commit_seq=t3_commit_seq,
            rule=rule)

    def _xid_for_commit_seq(self, seq: Optional[float]) -> Optional[int]:
        """Best-effort reverse lookup of a committed transaction by its
        commit sequence number (the node may already be freed or
        summarized; precision here is only for error reporting)."""
        if seq is None or seq == INFINITE_SEQ:
            return None
        for sx in self._committed:
            if sx.cseq == seq:
                return sx.xid
        for xid, (cseq, _eo) in self._old_serxid.items():
            if cseq == seq:
                return xid
        return None

    # ------------------------------------------------------------------
    # conflict detection: reads (MVCC-based, write happened first)
    # ------------------------------------------------------------------
    def on_read_tuple(self, sx: Optional[SerializableXact], rel_oid: int,
                      tup, vis: VisibilityResult) -> None:
        """Called for every tuple a serializable transaction examines.

        The visibility result carries the section 5.2 classification:
        invisible-because-concurrent-creator and
        visible-but-concurrent-deleter are rw-conflicts out. Visible
        tuples additionally get a SIREAD lock for the read-before-write
        direction.
        """
        if sx is None or sx.ro_safe:
            return
        if (vis.visible and not vis.deleter_concurrent
                and self.lockmgr.covers_read(sx, rel_oid, tup.tid.page)):
            # PredicateLockTuple's early exit: a relation- or
            # page-granularity SIREAD lock we already hold covers this
            # tuple, and the visibility result carries no rw-conflict
            # evidence, so there is nothing to lock and nothing to flag
            # (doom still fails fast, as at any other operation).
            self.ensure_not_doomed(sx)
            self.note_covered_reads(sx, rel_oid, tup.tid.page, 1)
            return
        self.ensure_not_doomed(sx)
        site = None
        if self._tracer is not None:
            site = tuple_target(rel_oid, tup.tid)
            self._tracer.emit("read.tuple", sx.xid, site=site,
                              visible=vis.visible)
        if vis.creator_concurrent:
            self._conflict_out_to_xid(sx, vis.creator_xid,
                                      site=site or tuple_target(rel_oid,
                                                                tup.tid))
        if vis.deleter_concurrent:
            self._conflict_out_to_xid(sx, vis.deleter_xid,
                                      site=site or tuple_target(rel_oid,
                                                                tup.tid))
        if vis.visible:
            self.lockmgr.acquire_tuple(sx, rel_oid, tup.tid)

    def read_page_covered(self, sx: Optional[SerializableXact],
                          rel_oid: int, page_no: int) -> bool:
        """The on_read_tuple early exit, hoisted to once per page.

        True means: for any tuple on this page whose visibility result
        is visible-with-no-concurrent-deleter, on_read_tuple would take
        the early exit (a covering page/relation SIREAD lock is already
        held, so there is nothing to lock and no conflict to flag) --
        the caller may skip those calls for the whole page and report
        them through note_covered_reads. Tuples with conflict evidence
        (invisible, or concurrent deleter) must still go through
        on_read_tuple individually.

        The coverage check keys on (relation, page), so it cannot
        change between tuples of one page; the doom check runs once
        here instead of once per covered tuple, equivalent because no
        scan yields (and thus no other session runs) mid-page.
        """
        if sx is None or sx.ro_safe:
            return True  # on_read_tuple is a no-op for every tuple
        if self.lockmgr.covers_read(sx, rel_oid, page_no):
            self.ensure_not_doomed(sx)
            return True
        return False

    def note_covered_reads(self, sx: Optional[SerializableXact],
                           rel_oid: int, page_no: int, n: int) -> None:
        """Account for ``n`` reads on one page that a covering SIREAD
        lock let the caller skip.

        Charges the lock manager the work unit per read that the
        skipped acquire_tuple would have charged on finding the
        covering lock (so the simulated cost model sees the same
        bookkeeping either way), counts ``perf.siread_fastpath_hits``,
        and emits one ``read.page`` trace event for the page.
        """
        if sx is None or sx.ro_safe:
            return
        self.lockmgr.work_units += n
        self._fastpath_hits.inc(n)
        if self._tracer is not None:
            self._tracer.emit("read.page", sx.xid,
                              site=page_target(rel_oid, page_no), tuples=n)

    def on_scan_relation(self, sx: Optional[SerializableXact],
                         rel_oid: int) -> None:
        """Sequential scan: relation-granularity SIREAD lock."""
        if sx is None or sx.ro_safe:
            return
        self.ensure_not_doomed(sx)
        if self._tracer is not None:
            self._tracer.emit("scan.rel", sx.xid, rel_oid=rel_oid)
        self.lockmgr.acquire_relation(sx, rel_oid)

    def on_index_page_read(self, sx: Optional[SerializableXact],
                           index_oid: int, page_no: int) -> None:
        """Index scan visited a B+-tree leaf page (gap lock)."""
        if sx is None or sx.ro_safe:
            return
        self.lockmgr.acquire_index_page(sx, index_oid, page_no)

    def on_index_scan_keys(self, sx: Optional[SerializableXact],
                           index_oid: int, scan_result) -> None:
        """Next-key locking (the paper's named future work): lock every
        key the scan matched plus the key guarding the gap beyond the
        range (+infinity if the scan ran off the right edge)."""
        if sx is None or sx.ro_safe:
            return
        self.ensure_not_doomed(sx)
        for key in scan_result.matched_keys:
            self.lockmgr.acquire_index_key(sx, index_oid, key)
        if not scan_result.guard_needed:
            return
        if scan_result.has_next:
            self.lockmgr.acquire_index_key(sx, index_oid,
                                           scan_result.next_key)
        else:
            self.lockmgr.acquire_index_infinity(sx, index_oid)

    def on_index_rel_read(self, sx: Optional[SerializableXact],
                          index_oid: int) -> None:
        """Scan through an AM without predicate-lock support: fall back
        to locking the whole index relation (section 7.4)."""
        if sx is None or sx.ro_safe:
            return
        self.lockmgr.acquire_index_relation(sx, index_oid)

    def _conflict_out_to_xid(self, reader: SerializableXact,
                             writer_xid: int,
                             site: Optional[Tuple] = None) -> None:
        """The reader saw MVCC evidence of a concurrent writer."""
        top = self.clog.top_level_of(writer_xid)
        writer = self._by_xid.get(top)
        if writer is reader:
            return
        if writer is not None and not writer.aborted:
            self._flag_rw_conflict(reader, writer, actor=reader, site=site)
            return
        entry = self._old_serxid.get(top)
        if entry is None:
            # The writer was not a serializable transaction (weaker
            # isolation level); SSI's guarantee covers serializable
            # transactions only.
            return
        commit_seq, earliest_out = entry
        self._own_work += 1
        # Conflict out to a summarized committed writer (section 6.2,
        # second case): record the edge in consolidated form...
        reader.summary_conflict_out = True
        reader.earliest_out_commit_seq = min(reader.earliest_out_commit_seq,
                                             commit_seq)
        # ...check "writer as pivot": reader -> writer -> writer's
        # earliest out-conflict...
        if earliest_out is not None:
            self._maybe_fail(reader, SummaryPseudoXact(commit_seq),
                             earliest_out, actor=reader)
        # ...and "reader as pivot" with the committed writer as T3.
        self._check_pivot_as_t2(reader, t3_seq=commit_seq, actor=reader)

    # ------------------------------------------------------------------
    # conflict detection: writes (SIREAD-based, read happened first)
    # ------------------------------------------------------------------
    def on_write_tuple(self, sx: Optional[SerializableXact], rel_oid: int,
                       tid: TID, *, in_subxact: bool = False) -> None:
        """Called for every heap tuple write (insert / update / delete).

        Checks SIREAD locks at every granularity, coarsest to finest
        (section 5.2.1), flagging a rw-antidependency from each holder.
        """
        if sx is None:
            return
        self.ensure_not_doomed(sx)
        sx.wrote_data = True
        if self._tracer is not None:
            self._tracer.emit("write.tuple", sx.xid,
                              site=tuple_target(rel_oid, tid))
        holders, summary_seq = self.lockmgr.holders_of(
            heap_write_targets(rel_oid, tid))
        self._flag_holders(sx, holders, summary_seq,
                           site=tuple_target(rel_oid, tid))
        if (self.config.own_write_drops_siread and not in_subxact):
            # Section 7.3: our write lock subsumes our SIREAD lock --
            # but not inside a subtransaction, whose write lock could
            # be rolled back while the read stands.
            self.lockmgr.drop_tuple_lock(sx, rel_oid, tid)

    def on_index_insert(self, sx: Optional[SerializableXact], index_oid: int,
                        insert_result, *, check_conflicts: bool = True,
                        key_locking_ok: bool = True) -> None:
        """Called after inserting an index entry: first propagate gap
        locks across page splits, then check the landing pages for
        SIREAD holders whose predicate reads we would invalidate.

        ``check_conflicts=False`` is used for new versions whose index
        key is unchanged (a HOT-style update): no new key enters any
        scanned range, so gap locks are not violated -- the heap tuple
        SIREAD locks already cover value changes. Splits still
        propagate locks either way.
        """
        for old_page, new_page in insert_result.splits:
            self.lockmgr.page_split(index_oid, old_page, new_page)
        if sx is None or not check_conflicts:
            return
        self.ensure_not_doomed(sx)
        sx.wrote_data = True
        if self.config.index_locking == "nextkey" and key_locking_ok:
            # ARIES/KVL: an insert of key k invalidates readers holding
            # k itself (duplicates entering a scanned set) or the key
            # guarding the gap k lands in.
            targets = [index_rel_target(index_oid),
                       index_key_target(index_oid, insert_result.key)]
            if insert_result.has_successor:
                targets.append(index_key_target(
                    index_oid, insert_result.successor_key))
            else:
                targets.append(index_inf_target(index_oid))
        else:
            targets = index_insert_targets(index_oid,
                                           insert_result.leaf_pages)
        holders, summary_seq = self.lockmgr.holders_of(targets)
        self._flag_holders(sx, holders, summary_seq, site=targets[-1])

    def _flag_holders(self, writer: SerializableXact,
                      holders: Set[SerializableXact],
                      summary_seq: Optional[float],
                      site: Optional[Tuple] = None) -> None:
        for holder in _in_xid_order(holders):
            if holder is writer or holder.aborted:
                continue
            self._flag_rw_conflict(holder, writer, actor=writer, site=site)
        if summary_seq is not None:
            # A summarized committed transaction read this data:
            # T_committed -> writer. Keep it as a conservative summary
            # in-conflict and check writer-as-pivot right away.
            self._own_work += 1
            prev = writer.summary_in_max_seq
            writer.summary_in_max_seq = (summary_seq if prev is None
                                         else max(prev, summary_seq))
            self._check_pivot_pair(SummaryPseudoXact(summary_seq), writer,
                                   actor=writer)

    # ------------------------------------------------------------------
    # edge recording + dangerous structure checks
    # ------------------------------------------------------------------
    def _flag_rw_conflict(self, reader: SerializableXact,
                          writer: SerializableXact,
                          actor: SerializableXact,
                          site: Optional[Tuple] = None) -> None:
        """Record the edge reader -rw-> writer and look for dangerous
        structures it completes. ``site`` is the predicate-lock target
        that witnessed the conflict (trace/post-mortem detail only)."""
        if self.config.conflict_tracking == "flags":
            if self._tracer is not None:
                self._tracer.emit("rw.conflict", actor.xid,
                                  reader_xid=reader.xid,
                                  writer_xid=writer.xid, site=site)
            self._flag_rw_conflict_flags_mode(reader, writer, actor)
            return
        if writer in reader.out_conflicts:
            return
        self._own_work += 1
        self.stats.conflicts_flagged += 1
        if self._tracer is not None:
            self._tracer.emit("rw.conflict", actor.xid,
                              reader_xid=reader.xid, writer_xid=writer.xid,
                              site=site)
        reader.out_conflicts.add(writer)
        writer.in_conflicts.add(reader)
        if writer.committed:
            reader.earliest_out_commit_seq = min(
                reader.earliest_out_commit_seq, writer.cseq)
        # Case A -- the writer is the pivot: reader -> writer -> T3.
        self._check_pivot_pair(reader, writer, actor)
        # Case B -- the reader is the pivot: T1 -> reader -> writer.
        # With the commit-ordering optimization this is actionable only
        # if the writer (T3) already committed; otherwise the writer's
        # own pre-commit check will catch it (safe-retry rule 1:
        # nothing aborts until T3 commits). Without the optimization,
        # basic SSI aborts on any pivot with both edges.
        if writer.committed:
            self._check_pivot_as_t2(reader, t3_seq=writer.cseq, actor=actor)
        elif not self.config.commit_ordering_opt:
            self._check_pivot_as_t2(reader, t3_seq=INFINITE_SEQ,
                                    actor=actor)

    def _flag_rw_conflict_flags_mode(self, reader: SerializableXact,
                                     writer: SerializableXact,
                                     actor: SerializableXact) -> None:
        """Ablation variant: the original SSI paper's two single-bit
        flags per transaction (section 5.3). No commit-ordering or
        read-only optimizations are possible; any transaction with both
        flags set is aborted on the spot."""
        self.stats.conflicts_flagged += 1
        reader.flag_conflict_out = True
        writer.flag_conflict_in = True
        for pivot in (writer, reader):
            if pivot.flag_conflict_in and pivot.flag_conflict_out:
                self.stats.dangerous_structures += 1
                other = reader if pivot is writer else writer
                self._choose_victim(other, pivot, actor,
                                    DoomInfo(t1_xid=None, pivot_xid=pivot.xid,
                                             t3_xid=None, t3_seq=None,
                                             rule="flags"))
                return

    def _check_pivot_pair(self, t1: Participant, t2: SerializableXact,
                          actor: SerializableXact) -> None:
        """T2 as pivot with a known T1: find the best committed T3.

        The consolidated ``earliest_out_commit_seq`` is exactly the
        most-dangerous T3 candidate: the smaller its commit seq, the
        easier it satisfies every dangerous-structure condition, so one
        check against the minimum is equivalent to checking every
        committed out-neighbour.
        """
        self._own_work += 1
        t3_seq = t2.earliest_out_commit_seq
        has_out = (t3_seq < INFINITE_SEQ or t2.summary_conflict_out
                   or bool(t2.out_conflicts))
        if not has_out:
            return
        self._maybe_fail(t1, t2, t3_seq, actor)

    def _check_pivot_as_t2(self, t2: SerializableXact, t3_seq: float,
                           actor: SerializableXact) -> None:
        """T2 as pivot with a known committed T3: try every T1."""
        for t1 in _in_xid_order(t2.in_conflicts):
            if t1 is t2:
                continue
            self._maybe_fail(t1, t2, t3_seq, actor)
            if t2.doomed or t2.aborted:
                return
        if t2.summary_in_max_seq is not None:
            self._maybe_fail(SummaryPseudoXact(t2.summary_in_max_seq), t2,
                             t3_seq, actor)

    def _maybe_fail(self, t1: Participant, t2: Participant, t3_seq: float,
                    actor: SerializableXact) -> None:
        """Evaluate one dangerous-structure candidate T1 -> T2 -> T3.

        ``t3_seq`` is T3's commit sequence number (+inf if no committed
        T3 exists, which only fires with the commit-ordering
        optimization disabled).
        """
        self._own_work += 1
        rule = "basic"
        if self.config.commit_ordering_opt:
            # Theorem 1 refinement (section 3.3.1): no anomaly unless
            # T3 committed first. Equal seq covers the T1 == T3
            # two-transaction cycle.
            if t3_seq == INFINITE_SEQ:
                return
            if t1.cseq < t3_seq or t2.cseq < t3_seq:
                return
            rule = "commit_order"
        if self.config.read_only_opt and t1.is_effectively_read_only():
            # Theorem 3: a read-only T1 is dangerous only if T3
            # committed before T1 took its snapshot.
            if not t3_seq <= t1.snapshot_seq:
                return
            rule = "ro_snapshot"
        self.stats.dangerous_structures += 1
        info = DoomInfo(
            t1_xid=getattr(t1, "xid", None),
            pivot_xid=getattr(t2, "xid", None),
            t3_xid=self._xid_for_commit_seq(t3_seq),
            t3_seq=(t3_seq if t3_seq != INFINITE_SEQ else None),
            rule=rule)
        if self._tracer is not None:
            self._tracer.emit("danger.check", actor.xid,
                              t1_xid=info.t1_xid, pivot_xid=info.pivot_xid,
                              t3_xid=info.t3_xid, t3_seq=info.t3_seq,
                              rule=rule)
        self._choose_victim(t1, t2, actor, info)

    def _choose_victim(self, t1: Participant, t2: Participant,
                       actor: SerializableXact, info: DoomInfo) -> None:
        """Safe-retry victim selection (section 5.4): prefer the pivot
        T2; never abort committed or prepared transactions; if nothing
        else is abortable, the acting transaction must die."""
        for victim in (t2, t1):
            if isinstance(victim, SummaryPseudoXact):
                continue
            if victim.committed or victim.prepared or victim.aborted:
                continue
            self._doom(victim, actor, info)
            return
        self._raise_failure(
            "could not serialize access due to read/write dependencies "
            "among transactions (all other participants already "
            "committed or prepared)", cause=AbortCause.UNABORTABLE,
            reason="pivot unabortable",
            pivot_xid=(info.pivot_xid if info.pivot_xid is not None
                       else actor.xid),
            t1_xid=info.t1_xid, t3_xid=info.t3_xid,
            t3_commit_seq=info.t3_seq, rule=info.rule)

    def _doom(self, victim: SerializableXact, actor: SerializableXact,
              info: DoomInfo) -> None:
        if victim is actor:
            self._raise_failure(
                "could not serialize access due to read/write dependencies "
                "among transactions (pivot)", cause=AbortCause.PIVOT,
                reason="pivot",
                pivot_xid=(info.pivot_xid if info.pivot_xid is not None
                           else victim.xid),
                t1_xid=info.t1_xid, t3_xid=info.t3_xid,
                t3_commit_seq=info.t3_seq, rule=info.rule)
        victim.doomed = True
        victim.doom_info = info
        self.stats.doomed += 1
        if self._tracer is not None:
            self._tracer.emit("doom", victim.xid, by_xid=actor.xid,
                              t1_xid=info.t1_xid, pivot_xid=info.pivot_xid,
                              t3_xid=info.t3_xid, rule=info.rule)

    # ------------------------------------------------------------------
    # commit / prepare / abort
    # ------------------------------------------------------------------
    def precommit_check(self, sx: SerializableXact) -> None:
        """The check run before commit (and before PREPARE).

        The committing transaction may be the T3 of a dangerous
        structure of uncommitted transactions; since it is about to be
        the first to commit, the structure becomes real and the pivot
        T2 must be aborted (section 5.4, rules 1-2). If the pivot is
        prepared it cannot be aborted, and the committing transaction
        itself dies instead (section 7.1).
        """
        self.ensure_not_doomed(sx, at="commit")
        if self.config.conflict_tracking == "flags":
            return  # flags mode resolves everything at edge time
        for pivot in _in_xid_order(sx.in_conflicts):
            if pivot.aborted:
                continue
            if pivot.committed and self.config.commit_ordering_opt:
                # The pivot committed before us: we are not the first
                # committer of that structure.
                continue
            candidates: List[Participant] = [
                t1 for t1 in _in_xid_order(pivot.in_conflicts)
                if t1 is not pivot]
            if pivot.summary_in_max_seq is not None:
                candidates.append(SummaryPseudoXact(pivot.summary_in_max_seq))
            for t1 in candidates:
                self._own_work += 1
                if t1 is not sx:
                    if self.config.commit_ordering_opt and t1.committed:
                        continue  # T1 committed before T3: safe
                    if (self.config.read_only_opt
                            and t1.is_effectively_read_only()):
                        # We commit *now*, necessarily after T1's
                        # snapshot, so a read-only T1 is a false
                        # positive (Theorem 3).
                        continue
                self.stats.dangerous_structures += 1
                # The committing sx is the T3 of this structure: it is
                # about to be the first of the three to commit.
                info = DoomInfo(
                    t1_xid=getattr(t1, "xid", None),
                    pivot_xid=pivot.xid, t3_xid=sx.xid, t3_seq=None,
                    rule=("commit_order" if self.config.commit_ordering_opt
                          else "basic"))
                if self._tracer is not None:
                    self._tracer.emit("danger.check", sx.xid,
                                      t1_xid=info.t1_xid,
                                      pivot_xid=pivot.xid, t3_xid=sx.xid,
                                      rule=info.rule)
                self._choose_victim(t1, pivot, actor=sx, info=info)
                break  # pivot resolved (doomed); next pivot

    def prepare(self, sx: SerializableXact) -> None:
        """PREPARE TRANSACTION: run the pre-commit check now, because a
        prepared transaction can never be aborted afterwards
        (section 7.1)."""
        self.precommit_check(sx)
        sx.prepared = True

    def commit(self, sx: SerializableXact) -> None:
        """Post-commit SSI processing. The engine must have already run
        precommit_check and durably committed the transaction."""
        self._commit_counter += 1
        sx.commit_seq = self._commit_counter
        sx.committed = True
        sx.prepared = False
        self._active.discard(sx)
        self._committed.append(sx)
        self.stats.committed += 1
        # Everyone with an edge into us now has a committed out-conflict
        # (section 6.1's recorded commit sequence number).
        for reader in sx.in_conflicts:
            reader.earliest_out_commit_seq = min(
                reader.earliest_out_commit_seq, sx.commit_seq)
            self._own_work += 1
        self._resolve_ro_watchers(sx, committed=True)
        self._deregister_ro(sx)
        self._cleanup()

    def abort(self, sx: SerializableXact) -> None:
        """Roll back: conflicts involving an aborted transaction are
        removed outright (section 5.3)."""
        sx.aborted = True
        sx.doomed = False
        sx.prepared = False
        self._active.discard(sx)
        self.stats.aborted += 1
        for writer in sx.out_conflicts:
            writer.in_conflicts.discard(sx)
        for reader in sx.in_conflicts:
            reader.out_conflicts.discard(sx)
        sx.out_conflicts.clear()
        sx.in_conflicts.clear()
        self.lockmgr.release_all(sx)
        self._resolve_ro_watchers(sx, committed=False)
        self._deregister_ro(sx)
        for xid in sx.all_xids():
            self._by_xid.pop(xid, None)
        self._cleanup()

    def _resolve_ro_watchers(self, sx: SerializableXact,
                             committed: bool) -> None:
        """A read/write transaction finished: settle the safety of the
        READ ONLY transactions that registered it (section 4.2)."""
        for ro in list(sx.watching_ros):
            if (committed and sx.wrote_data
                    and sx.earliest_out_commit_seq <= ro.snapshot_seq):
                # sx committed with a conflict out to a transaction
                # that committed before ro's snapshot: unsafe.
                self._mark_ro_unsafe(ro)
            else:
                ro.possible_unsafe_conflicts.discard(sx)
                if not ro.possible_unsafe_conflicts and not ro.ro_unsafe:
                    self._mark_ro_safe(ro)
        sx.watching_ros.clear()

    def _deregister_ro(self, sx: SerializableXact) -> None:
        for writer in sx.possible_unsafe_conflicts:
            writer.watching_ros.discard(sx)
        sx.possible_unsafe_conflicts.clear()

    def _mark_ro_safe(self, ro: SerializableXact) -> None:
        """The snapshot is safe: drop all SSI state; the transaction
        continues as plain snapshot isolation (section 4.2)."""
        ro.ro_safe = True
        ro.possible_unsafe_conflicts.clear()
        self.stats.safe_snapshots += 1
        if self._tracer is not None:
            self._tracer.emit("ro.safe", ro.xid)
        self.lockmgr.release_all(ro)
        for writer in list(ro.out_conflicts):
            writer.in_conflicts.discard(ro)
        ro.out_conflicts.clear()

    def _mark_ro_unsafe(self, ro: SerializableXact) -> None:
        ro.ro_unsafe = True
        self.stats.unsafe_snapshots += 1
        if self._tracer is not None:
            self._tracer.emit("ro.unsafe", ro.xid)
        for writer in ro.possible_unsafe_conflicts:
            writer.watching_ros.discard(ro)
        ro.possible_unsafe_conflicts.clear()

    # ------------------------------------------------------------------
    # memory mitigation (section 6)
    # ------------------------------------------------------------------
    def _min_active_snapshot_seq(self) -> float:
        return min((s.snapshot_seq for s in self._active if not s.finished),
                   default=INFINITE_SEQ)

    def _cleanup(self) -> None:
        min_snap = self._min_active_snapshot_seq()
        active = [s for s in self._active if not s.finished]

        # (3 in section 6's list) aggressive cleanup: a committed
        # transaction's SIREAD locks are unnecessary once no active
        # transaction is concurrent with it.
        for sx in self._committed:
            if not sx.locks_released and sx.cseq <= min_snap:
                self.lockmgr.release_all(sx)
                sx.locks_released = True

        # Section 6.1's extra optimization: if only read-only
        # transactions remain active, all committed SIREAD locks and
        # in-conflict lists can go (no active transaction can write).
        if active and all(s.declared_read_only or s.ro_safe for s in active):
            for sx in self._committed:
                if not sx.locks_released:
                    self.lockmgr.release_all(sx)
                    sx.locks_released = True
                for reader in list(sx.in_conflicts):
                    reader.out_conflicts.discard(sx)
                sx.in_conflicts.clear()

        # Free nodes nothing can reference anymore.
        survivors: List[SerializableXact] = []
        for sx in self._committed:
            partners = sx.in_conflicts | sx.out_conflicts
            if (sx.locks_released and sx.cseq <= min_snap
                    and all(p.finished for p in partners)):
                for reader in sx.in_conflicts:
                    reader.out_conflicts.discard(sx)
                for writer in sx.out_conflicts:
                    writer.in_conflicts.discard(sx)
                for xid in sx.all_xids():
                    self._by_xid.pop(xid, None)
            else:
                survivors.append(sx)
        self._committed = survivors

        # (4) summarization under memory pressure.
        while len(self._committed) > self.config.max_committed_sxacts:
            self._summarize(self._committed.pop(0))

        self.lockmgr.cleanup_summary(min_snap)

    def _summarize(self, sx: SerializableXact) -> None:
        """Consolidate one committed transaction (section 6.2): SIREAD
        locks move to the dummy transaction tagged with the commit seq,
        and the old-serxid table keeps only "earliest out-conflict
        commit seq" per xid. Neighbours keep conservative summary
        markers; precision lost here can only add false positives,
        never miss an anomaly."""
        self.stats.summarized += 1
        if self._tracer is not None:
            self._tracer.emit("summarize", sx.xid, commit_seq=sx.cseq)
        eo = sx.earliest_out_commit_seq
        entry = (sx.cseq, eo if eo < INFINITE_SEQ else None)
        for xid in sx.all_xids():
            self._old_serxid[xid] = entry
            self._by_xid.pop(xid, None)
        self.lockmgr.transfer_to_summary(sx, sx.cseq)
        for reader in list(sx.in_conflicts):
            reader.out_conflicts.discard(sx)
            reader.summary_conflict_out = True
            reader.earliest_out_commit_seq = min(
                reader.earliest_out_commit_seq, sx.cseq)
        for writer in list(sx.out_conflicts):
            writer.in_conflicts.discard(sx)
            prev = writer.summary_in_max_seq
            writer.summary_in_max_seq = (sx.cseq if prev is None
                                         else max(prev, sx.cseq))
        sx.in_conflicts.clear()
        sx.out_conflicts.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def old_serxid_table(self) -> Dict[int, Tuple[float, Optional[float]]]:
        return dict(self._old_serxid)
