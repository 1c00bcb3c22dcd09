"""The SIREAD lock manager (paper section 5.2.1).

A lock manager built specifically for SSI read dependencies:

* stores only SIREAD locks, hence it cannot block and needs no
  deadlock detection;
* multigranularity (relation / page / tuple, and index relation /
  index page) **without intention locks**: writers simply check every
  granularity, coarsest to finest;
* supports granularity promotion to bound memory (section 6,
  technique 2): too many tuple locks on a page collapse into a page
  lock, too many page locks on a relation collapse into a relation
  lock;
* handles situations a strict-2PL lock manager never sees: SIREAD
  locks survive commit, so DDL that moves tuples (table rewrites,
  index drops) must *promote* surviving locks rather than being blocked
  by them, and B+-tree page splits must copy gap locks to the new page;
* consolidates locks of summarized committed transactions onto a
  single dummy holder, each tagged with the newest holder's commit
  sequence number (section 6.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.config import SSIConfig
from repro.errors import CapacityExceededError
from repro.ssi.sxact import SerializableXact
from repro.ssi.targets import (Target, index_inf_target, index_key_target,
                               index_page_target, index_rel_target,
                               page_target, rel_target, tuple_target)
from repro.storage.tuple import TID


def _parents(target: Target) -> List[Target]:
    """Coarser targets covering ``target``, coarsest first."""
    kind = target[0]
    if kind == "t":
        _, oid, page, _slot = target
        return [rel_target(oid), page_target(oid, page)]
    if kind == "p":
        _, oid, _page = target
        return [rel_target(oid)]
    if kind in ("ip", "ik", "ik+"):
        oid = target[1]
        return [index_rel_target(oid)]
    return []


def _group_key(target: Target) -> Optional[Target]:
    """The promotion group a target belongs to (its immediate parent)."""
    parents = _parents(target)
    return parents[-1] if parents else None


class SIReadLockManager:
    """Shared SIREAD lock table."""

    def __init__(self, config: SSIConfig) -> None:
        self._config = config
        #: target -> set of holders.
        self._locks: Dict[Target, Set[SerializableXact]] = {}  # repro: guarded-by(ENGINE)
        #: sum(len(holders) for holders in _locks.values()), kept by
        #: _add/_remove (the only writers of _locks).
        self._holder_entries = 0  # repro: guarded-by(ENGINE)
        #: per-holder reverse index.
        self._held: Dict[SerializableXact, Set[Target]] = {}  # repro: guarded-by(ENGINE)
        #: fine-grained targets per (holder, parent target), for
        #: promotion bookkeeping.
        self._children: Dict[Tuple[SerializableXact, Target], Set[Target]] = {}  # repro: guarded-by(ENGINE)
        #: locks of summarized committed transactions: target -> newest
        #: holder's commit sequence number.
        self._summary: Dict[Target, float] = {}  # repro: guarded-by(ENGINE)
        #: coverage cache for the reader early exit: per holder, the
        #: relation oids and (rel oid, page) pairs it holds coarse
        #: (relation/page granularity) heap SIREAD locks on. Kept in
        #: sync by _add/_remove, so it is exact, not a heuristic.
        self._cover: Dict[SerializableXact,  # repro: guarded-by(ENGINE)
                          Tuple[Set[int], Set[Tuple[int, int]]]] = {}
        #: Work-unit counter consumed by the simulator's cost model.
        self.work_units = 0  # repro: guarded-by(ENGINE)
        #: High-water mark of the lock table (memory-bounding benches).
        self.peak_lock_count = 0  # repro: guarded-by(ENGINE)

    # -- size accounting --------------------------------------------------
    @property
    def lock_count(self) -> int:
        return self._holder_entries + len(self._summary)

    def _check_capacity(self) -> None:
        count = self.lock_count
        if count > self.peak_lock_count:
            self.peak_lock_count = count
        if count > self._config.max_predicate_locks:
            raise CapacityExceededError(
                "predicate lock table exhausted even after promotion; "
                "raise SSIConfig.max_predicate_locks")

    # -- primitive add/remove ------------------------------------------------
    def holds(self, sx: SerializableXact, target: Target) -> bool:
        return target in self._held.get(sx, ())

    def covers_read(self, sx: SerializableXact, rel_oid: int,
                    page_no: int) -> bool:
        """Does ``sx`` already hold a relation- or page-granularity
        SIREAD lock covering ``(rel_oid, page_no)``?

        O(1) via the coverage cache; used by the reader early exit to
        skip acquire_tuple entirely (which would dedupe and return
        anyway). Does not touch ``work_units``: the caller charges the
        skipped acquisitions (SSIManager.note_covered_reads).
        """
        cover = self._cover.get(sx)
        return cover is not None and (rel_oid in cover[0]
                                      or (rel_oid, page_no) in cover[1])

    def _add(self, sx: SerializableXact, target: Target) -> None:
        self.work_units += 1
        holders = self._locks.setdefault(target, set())
        if sx not in holders:
            holders.add(sx)
            self._holder_entries += 1
        self._held.setdefault(sx, set()).add(target)
        kind = target[0]
        if kind == "r" or kind == "p":
            cover = self._cover.get(sx)
            if cover is None:
                cover = (set(), set())
                self._cover[sx] = cover
            if kind == "r":
                cover[0].add(target[1])
            else:
                cover[1].add((target[1], target[2]))
        group = _group_key(target)
        if group is not None:
            self._children.setdefault((sx, group), set()).add(target)
        self._check_capacity()

    def _remove(self, sx: SerializableXact, target: Target) -> None:
        self.work_units += 1
        holders = self._locks.get(target)
        if holders is not None and sx in holders:
            holders.remove(sx)
            self._holder_entries -= 1
            if not holders:
                self._locks.pop(target, None)
        held = self._held.get(sx)
        if held is not None:
            held.discard(target)
            if not held:
                self._held.pop(sx, None)
        kind = target[0]
        if kind == "r" or kind == "p":
            cover = self._cover.get(sx)
            if cover is not None:
                if kind == "r":
                    cover[0].discard(target[1])
                else:
                    cover[1].discard((target[1], target[2]))
                if not cover[0] and not cover[1]:
                    self._cover.pop(sx, None)
        group = _group_key(target)
        if group is not None:
            kids = self._children.get((sx, group))
            if kids is not None:
                kids.discard(target)
                if not kids:
                    self._children.pop((sx, group), None)

    def _remove_group(self, sx: SerializableXact, group: Target) -> None:
        for child in list(self._children.get((sx, group), ())):
            self._remove(sx, child)

    # -- acquisition (readers) ---------------------------------------------
    def acquire_tuple(self, sx: SerializableXact, rel_oid: int,
                      tid: TID) -> None:
        """SIREAD-lock one heap tuple, with promotion to page level."""
        target = tuple_target(rel_oid, tid)
        page = page_target(rel_oid, tid.page)
        if (self.holds(sx, target) or self.holds(sx, page)
                or self.holds(sx, rel_target(rel_oid))):
            self.work_units += 1
            return
        self._add(sx, target)
        kids = self._children.get((sx, page), ())
        if len(kids) > self._config.max_pred_locks_per_page:
            self._remove_group(sx, page)
            self.acquire_page(sx, rel_oid, tid.page)

    def acquire_page(self, sx: SerializableXact, rel_oid: int,
                     page_no: int) -> None:
        """SIREAD-lock a heap page, with promotion to relation level."""
        target = page_target(rel_oid, page_no)
        rel = rel_target(rel_oid)
        if self.holds(sx, target) or self.holds(sx, rel):
            self.work_units += 1
            return
        self._remove_group(sx, target)  # subsume tuple locks on the page
        self._add(sx, target)
        pages = self._children.get((sx, rel), ())
        if len(pages) > self._config.max_pred_locks_per_relation:
            self.acquire_relation(sx, rel_oid)

    def acquire_relation(self, sx: SerializableXact, rel_oid: int) -> None:
        """SIREAD-lock a whole relation (sequential scans, promotions)."""
        rel = rel_target(rel_oid)
        if self.holds(sx, rel):
            self.work_units += 1
            return
        # Subsume all finer-granularity locks under this relation --
        # page locks and tuple locks alike (tuple locks may sit on
        # pages we hold no page lock for).
        fine = [t for t in self._held.get(sx, ())
                if t[0] in ("t", "p") and t[1] == rel_oid]
        for target in fine:
            self._remove(sx, target)
        self._add(sx, rel)

    def acquire_index_page(self, sx: SerializableXact, index_oid: int,
                           page_no: int) -> None:
        """Gap lock on a B+-tree leaf page (phantom detection)."""
        target = index_page_target(index_oid, page_no)
        rel = index_rel_target(index_oid)
        if self.holds(sx, target) or self.holds(sx, rel):
            self.work_units += 1
            return
        self._add(sx, target)
        pages = self._children.get((sx, rel), ())
        if len(pages) > self._config.max_pred_locks_per_relation:
            self.acquire_index_relation(sx, index_oid)

    def acquire_index_key(self, sx: SerializableXact, index_oid: int,
                          key) -> None:
        """Next-key lock on one key value (including gap guards)."""
        target = index_key_target(index_oid, key)
        rel = index_rel_target(index_oid)
        if self.holds(sx, target) or self.holds(sx, rel):
            self.work_units += 1
            return
        self._add(sx, target)
        fine = self._children.get((sx, rel), ())
        if len(fine) > self._config.max_pred_locks_per_relation:
            self.acquire_index_relation(sx, index_oid)

    def acquire_index_infinity(self, sx: SerializableXact,
                               index_oid: int) -> None:
        """Lock the virtual +infinity key: guards the gap beyond the
        last key (a scan that ran off the right edge)."""
        target = index_inf_target(index_oid)
        rel = index_rel_target(index_oid)
        if self.holds(sx, target) or self.holds(sx, rel):
            self.work_units += 1
            return
        self._add(sx, target)

    def acquire_index_relation(self, sx: SerializableXact,
                               index_oid: int) -> None:
        """Whole-index lock: promotion target, and the fallback for
        access methods without predicate-lock support (section 7.4)."""
        rel = index_rel_target(index_oid)
        if self.holds(sx, rel):
            self.work_units += 1
            return
        self._remove_group(sx, rel)
        self._add(sx, rel)

    # -- conflict checking (writers) -------------------------------------------
    def holders_of(self, targets: Iterable[Target]) -> Tuple[
            Set[SerializableXact], Optional[float]]:
        """All SIREAD holders across ``targets`` plus, if any target is
        covered by summarized locks, the newest summarized commit seq.

        Callers pass targets coarsest-to-finest (section 5.2.1's rule
        for safely skipping intention locks).
        """
        holders: Set[SerializableXact] = set()
        summary_seq: Optional[float] = None
        for target in targets:
            self.work_units += 1
            holders.update(self._locks.get(target, ()))
            seq = self._summary.get(target)
            if seq is not None:
                summary_seq = seq if summary_seq is None else max(summary_seq, seq)
        return holders, summary_seq

    # -- own-write optimization (section 7.3) -----------------------------------
    def drop_tuple_lock(self, sx: SerializableXact, rel_oid: int,
                        tid: TID) -> None:
        """Drop our own tuple-granularity SIREAD lock on a tuple we are
        writing: the write lock in the tuple header subsumes it. Only
        exact tuple locks are dropped; page/relation locks may cover
        other tuples."""
        target = tuple_target(rel_oid, tid)
        if self.holds(sx, target):
            self._remove(sx, target)

    # -- crash recovery (section 7.1) --------------------------------------------
    def restore_recovered(self, sx: SerializableXact,
                          targets: Iterable[Target]) -> None:
        """Re-install the persisted SIREAD locks of a prepared
        transaction after crash recovery. Public so recovery never
        reaches into the private lock tables (which would bypass the
        coverage-cache and promotion bookkeeping _add maintains)."""
        for target in targets:
            if not self.holds(sx, target):
                self._add(sx, target)

    # -- release -------------------------------------------------------------------
    def release_all(self, sx: SerializableXact) -> None:
        for target in list(self._held.get(sx, ())):
            self._remove(sx, target)

    # -- structural maintenance -------------------------------------------------
    def page_split(self, index_oid: int, old_page: int, new_page: int) -> None:
        """Copy predicate locks from a split B+-tree page to its new
        right sibling, so gap locks keep covering the moved keys."""
        old = index_page_target(index_oid, old_page)
        new = index_page_target(index_oid, new_page)
        for sx in list(self._locks.get(old, ())):
            if not self.holds(sx, new):
                self._add(sx, new)
        if old in self._summary:
            self._summary[new] = max(self._summary.get(new, 0.0),
                                     self._summary[old])

    def promote_for_rewrite(self, heap_oid: int,
                            index_oids: Iterable[int]) -> None:
        """A table rewrite (CLUSTER / rewriting ALTER TABLE) moved
        tuples: physical page/tuple targets on the heap and its indexes
        are invalid, so promote every holder to a heap-relation lock
        (section 5.2.1)."""
        idx_set = set(index_oids)

        def affected(target: Target) -> bool:
            kind = target[0]
            if kind in ("t", "p"):
                return target[1] == heap_oid
            if kind in ("ip", "ir", "ik", "ik+"):
                return target[1] in idx_set
            return False

        for target in [t for t in self._locks if affected(t)]:
            for sx in list(self._locks.get(target, ())):
                self._remove(sx, target)
                if not self.holds(sx, rel_target(heap_oid)):
                    self._add(sx, rel_target(heap_oid))
        for target in [t for t in self._summary if affected(t)]:
            seq = self._summary.pop(target)
            heap = rel_target(heap_oid)
            self._summary[heap] = max(self._summary.get(heap, 0.0), seq)

    def transfer_index_to_heap(self, index_oid: int, heap_oid: int) -> None:
        """DROP INDEX: index-gap locks can no longer detect conflicts
        with predicate reads, so replace them with a relation-level
        lock on the associated heap (section 5.2.1)."""
        heap = rel_target(heap_oid)
        doomed_targets = [t for t in self._locks
                          if t[0] in ("ip", "ir", "ik", "ik+")
                          and t[1] == index_oid]
        for target in doomed_targets:
            for sx in list(self._locks.get(target, ())):
                self._remove(sx, target)
                if not self.holds(sx, heap):
                    self._add(sx, heap)
        for target in [t for t in self._summary
                       if t[0] in ("ip", "ir", "ik", "ik+")
                       and t[1] == index_oid]:
            seq = self._summary.pop(target)
            self._summary[heap] = max(self._summary.get(heap, 0.0), seq)

    # -- summarization support (section 6.2) ------------------------------------
    def transfer_to_summary(self, sx: SerializableXact,
                            commit_seq: float) -> None:
        """Reassign all of ``sx``'s SIREAD locks to the dummy
        OldCommittedSxact, each recording the newest commit_seq."""
        for target in list(self._held.get(sx, ())):
            self._remove(sx, target)
            self._summary[target] = max(self._summary.get(target, 0.0),
                                        commit_seq)
            self.work_units += 1

    def cleanup_summary(self, min_active_snapshot_seq: float) -> int:
        """Drop summarized locks whose newest holder committed before
        every active transaction's snapshot; returns how many."""
        stale = [t for t, seq in self._summary.items()
                 if seq <= min_active_snapshot_seq]
        for target in stale:
            del self._summary[target]
        self.work_units += len(stale)
        return len(stale)

    # -- introspection ----------------------------------------------------------
    def iter_locks(self):
        """Public iteration over live SIREAD locks: (target, holder)
        pairs for real holders, then (target, None, commit_seq) triples
        rendered as dicts for the summarized dummy holder. Replaces
        reaching into the private ``_locks``."""
        for target, holders in self._locks.items():
            for holder in holders:
                yield {"target": target, "holder": holder,
                       "summary_commit_seq": None}
        for target, seq in self._summary.items():
            yield {"target": target, "holder": None,
                   "summary_commit_seq": seq}

    def targets_held(self, sx: SerializableXact) -> Set[Target]:
        return set(self._held.get(sx, ()))

    def summary_targets(self) -> Dict[Target, float]:
        return dict(self._summary)
