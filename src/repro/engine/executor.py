"""Generator-based statement executors.

Every executor is a generator that yields wait conditions (lock
requests, xid waits) when it must block and *returns* the statement
result. Statements are therefore resumable mid-flight -- partial work
is never re-applied -- which mirrors how PostgreSQL continues a
statement after a lock wait rather than restarting it.

Semantics implemented here:

* snapshot reads with per-tuple visibility classification feeding SSI
  (section 5.2's write-before-read conflicts);
* index scans that SIREAD-lock visited B+-tree pages (gap locks) or
  fall back to whole-index locks for AMs without predicate-lock
  support (section 7.4);
* first-updater-wins write conflicts: waiting on the in-progress
  holder via an xid lock (deadlock-detected), then either failing
  ("could not serialize access due to concurrent update", REPEATABLE
  READ / SERIALIZABLE) or re-checking the newest version EvalPlanQual
  style (READ COMMITTED);
* the S2PL baseline's blocking read/write/gap locks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro import s2pl
from repro.engine.batch import BatchAggregator, compile_batch_filter
from repro.engine.isolation import IsolationLevel
from repro.engine.predicate import AlwaysTrue, Predicate
from repro.engine.transaction import Transaction
from repro.errors import (AbortCause, ReadOnlyTransactionError,
                          SerializationFailure, UndefinedColumnError,
                          UniqueViolationError)
from repro.locks.modes import LockMode
from repro.mvcc.visibility import ALL_VISIBLE, tuple_visibility
from repro.mvcc.xid import INVALID_XID
from repro.storage.relation import Relation
from repro.storage.tuple import HeapTuple
from repro.waits import YIELD

Updates = Union[Dict[str, Any], Callable[[Dict[str, Any]], Dict[str, Any]]]


class Executor:
    """Stateless executor bound to a Database."""

    def __init__(self, db) -> None:
        self.db = db

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _touch(self, oid: int, page_no: int) -> None:
        self.db.buffer.touch(oid, page_no)

    def _wait_for_xid(self, txn: Transaction, other_top_xid: int) -> Iterator:
        """Block until another top-level transaction finishes: SHARE on
        its xid lock (PostgreSQL's mechanism, so write-write deadlocks
        are caught by the ordinary deadlock detector)."""
        tag = ("xid", other_top_xid)
        request = self.db.lockmgr.acquire(txn.xid, tag, LockMode.SHARE)
        while request is not None and not request.granted:
            yield request
        self.db.lockmgr.release(txn.xid, tag, LockMode.SHARE)

    def _require_writable(self, txn: Transaction) -> None:
        if txn.read_only:
            raise ReadOnlyTransactionError(
                "cannot execute writes in a read-only transaction")

    def _validate_columns(self, rel: Relation, row: Dict[str, Any]) -> None:
        unknown = set(row) - set(rel.columns)
        if unknown:
            raise UndefinedColumnError(
                f"column(s) {sorted(unknown)} not in relation {rel.name}")

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def _plan_index(self, rel: Relation, pred: Predicate):
        """Scan choice, delegated to the planner (repro.engine.planner):
        cost-based over ANALYZE statistics when available, the
        rule-based first-sargable-conjunct choice otherwise, with an
        engine-level plan cache in front of both."""
        return self.db.planner.plan_scan(rel, pred)

    def _scan(self, txn: Transaction, rel: Relation,
              pred: Predicate) -> Iterator:
        """Yields waits; returns the list of visible matching tuples."""
        if txn.isolation.snapshot_based:
            result = yield from self._scan_snapshot(txn, rel, pred)
        else:
            result = yield from self._scan_s2pl(txn, rel, pred)
        self.db.record_read(txn, rel, pred, result)
        return result

    def _scan_snapshot(self, txn: Transaction, rel: Relation,
                       pred: Predicate, sink=None) -> Iterator:
        """Snapshot read, a heap page at a time.

        A sequential scan takes a relation SIREAD lock and then handles
        each page as a unit: the compiled batch filter selects matches,
        and the read-coverage early exit (SSIManager.read_page_covered)
        is checked once per page. On a page marked all-visible in the
        visibility map no tuple needs an MVCC check at all. Tuples with
        rw-conflict evidence (invisible because of a concurrent
        creator, or visible with a concurrent deleter) still go through
        on_read_tuple one by one. An index scan visits its tid list and
        takes a tuple SIREAD lock per visible tuple, since no coarse
        lock covers it. Yields fall on page boundaries (every
        ``yield_pages * 8`` index entries), so schedules are stable.

        ``sink``, when given, receives each page's matched tuples (in
        scan order) instead of them being accumulated into the result
        list -- the aggregate pushdown hook (see scan_aggregate_gen).
        The return value is then an empty list.
        """
        db = self.db
        sx = txn.sxact
        out: List[HeapTuple] = []
        collect = out.extend if sink is None else sink
        yield_pages = max(1, db.config.scan_yield_pages)
        snapshot = txn.snapshot
        view = txn.view()
        clog = db.clog
        hint_counter = db.hint_counter
        vismap = rel.heap.vismap
        stats = db.stats
        ssi = db.ssi
        match = compile_batch_filter(pred)
        index, rng = self._plan_index(rel, pred)
        if index is not None:
            if rng.is_equality:
                res = index.search(rng.lo)
            else:
                res = index.range_search(rng.lo, rng.hi, rng.lo_incl,
                                         rng.hi_incl)
            if index.supports_predicate_locks:
                for page_no in res.visited_pages:
                    self._touch(index.oid, page_no)
                if (db.config.ssi.index_locking == "nextkey"
                        and index.supports_key_locking):
                    ssi.on_index_scan_keys(sx, index.oid, res)
                else:
                    # Page/node granularity; for GiST this includes the
                    # internal nodes visited (section 7.4).
                    for page_no in res.visited_pages:
                        ssi.on_index_page_read(sx, index.oid, page_no)
            else:
                ssi.on_index_rel_read(sx, index.oid)
            # The tid list is walked in yield-cadence chunks. Counter
            # attribution stays window-exact: the simulated clock
            # charges per-yield deltas, so `seen` flushes before every
            # YIELD, and the vismap cache resets there too (the map can
            # only change across a yield, never within one).
            fetch = rel.heap.fetch
            matches = pred.matches
            vm_cache: Dict[int, bool] = {}
            seen = 0
            hits: List[HeapTuple] = []
            try:
                for n, tid in enumerate(res.tids):
                    if n and n % (yield_pages * 8) == 0:
                        stats.tuples_read += seen
                        seen = 0
                        vm_cache.clear()
                        yield YIELD
                    tup = fetch(tid)
                    if tup is None:
                        continue
                    self._touch(rel.oid, tid.page)
                    seen += 1
                    all_vis = vm_cache.get(tid.page)
                    if all_vis is None:
                        all_vis = vismap.is_all_visible(tid.page)
                        vm_cache[tid.page] = all_vis
                    if all_vis:
                        vis = ALL_VISIBLE
                        db.vismap_counter.inc()
                    else:
                        vis = tuple_visibility(tup, snapshot, view, clog,
                                               hint_counter)
                    ssi.on_read_tuple(sx, rel.oid, tup, vis)
                    if vis.visible and matches(tup.data):
                        hits.append(tup)
            finally:
                # Flush even when on_read_tuple aborts the transaction
                # mid-scan: the tuples processed before (and including)
                # the aborting one belong to this window's meter.
                stats.tuples_read += seen
            collect(hits)
        else:
            ssi.on_scan_relation(sx, rel.oid)
            for page_no, page in enumerate(rel.heap.scan_pages()):
                if page_no and page_no % yield_pages == 0:
                    yield YIELD
                self._touch(rel.oid, page.page_no)
                live = page.live_tuples()
                covered = ssi.read_page_covered(sx, rel.oid, page.page_no)
                all_visible = vismap.is_all_visible(page.page_no)
                if all_visible and covered:
                    # Every tuple is visible (no MVCC checks) and the
                    # relation SIREAD lock covers them all (nothing for
                    # SSI to do): the page reduces to one batch filter.
                    collect(match(live))
                    stats.tuples_read += len(live)
                    db.vismap_counter.inc()
                    ssi.note_covered_reads(sx, rel.oid, page.page_no,
                                           len(live))
                    continue
                skipped = 0
                done = 0
                page_hits: List[HeapTuple] = []
                try:
                    for tup in live:
                        done += 1
                        vis = (ALL_VISIBLE if all_visible else
                               tuple_visibility(tup, snapshot, view, clog,
                                                hint_counter))
                        if (covered and vis.visible
                                and not vis.deleter_concurrent):
                            # on_read_tuple's early exit, hoisted:
                            # coverage is page-keyed and doom was
                            # checked by read_page_covered.
                            skipped += 1
                        else:
                            ssi.on_read_tuple(sx, rel.oid, tup, vis)
                        if vis.visible and pred.matches(tup.data):
                            page_hits.append(tup)
                finally:
                    # Flush even when on_read_tuple aborts mid-page:
                    # the reads before the aborting one were made.
                    stats.tuples_read += done
                    if skipped:
                        ssi.note_covered_reads(sx, rel.oid, page.page_no,
                                               skipped)
                collect(page_hits)
        return out

    def _scan_s2pl(self, txn: Transaction, rel: Relation,
                   pred: Predicate) -> Iterator:
        db = self.db
        out: List[HeapTuple] = []
        yield_pages = max(1, db.config.scan_yield_pages)
        index, rng = self._plan_index(rel, pred)
        if index is not None:
            yield from s2pl.locking.lock_relation_read_intent(
                db.lockmgr, txn.xid, rel.oid)
            if rng.is_equality:
                res = index.search(rng.lo)
            else:
                res = index.range_search(rng.lo, rng.hi, rng.lo_incl,
                                         rng.hi_incl)
            if index.supports_predicate_locks:
                for page_no in res.visited_pages:
                    self._touch(index.oid, page_no)
                    yield from s2pl.lock_index_page_read(
                        db.lockmgr, txn.xid, index.oid, page_no)
            else:
                # No gap locking possible: lock the whole relation.
                yield from s2pl.lock_relation_read(db.lockmgr, txn.xid,
                                                   rel.oid)
            seen = set()
            for n, tid in enumerate(res.tids):
                if n and n % (yield_pages * 8) == 0:
                    yield YIELD
                # Follow the version chain to the newest committed
                # version: the tid list may predate a concurrent
                # same-key update that committed while we waited for
                # the tuple lock. The chain may also lead to a version
                # another index entry reaches directly, hence `seen`.
                cur_tid = tid
                while cur_tid is not None and cur_tid not in seen:
                    seen.add(cur_tid)
                    yield from s2pl.lock_tuple_read(db.lockmgr, txn.xid,
                                                    rel.oid, cur_tid)
                    tup = rel.heap.fetch(cur_tid)
                    if tup is None:
                        break
                    self._touch(rel.oid, cur_tid.page)
                    db.stats.tuples_read += 1
                    if s2pl.s2pl_visible(tup, txn.view(), db.clog):
                        if pred.matches(tup.data):
                            out.append(tup)
                        break
                    if (tup.xmax != INVALID_XID and not tup.xmax_lock_only
                            and db.clog.did_commit(tup.xmax)):  # repro: noqa(CLOG001) -- ctid chain walk follows only committed deleters
                        cur_tid = tup.next_tid
                    else:
                        break
        else:
            yield from s2pl.lock_relation_read(db.lockmgr, txn.xid, rel.oid)
            for page_no, page in enumerate(rel.heap.scan_pages()):
                if page_no and page_no % yield_pages == 0:
                    yield YIELD
                self._touch(rel.oid, page.page_no)
                for tup in list(page.tuples()):
                    db.stats.tuples_read += 1
                    if (s2pl.s2pl_visible(tup, txn.view(), db.clog)
                            and pred.matches(tup.data)):
                        out.append(tup)
        return out

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def select_gen(self, txn: Transaction, rel_name: str,
                   pred: Predicate) -> Iterator:
        rel = self.db.relation(rel_name)
        tuples = yield from self._scan(txn, rel, pred)
        return [dict(t.data) for t in tuples]

    def scan_rows_gen(self, txn: Transaction, rel_name: str,
                      pred: Predicate) -> Iterator:
        """Like select_gen but returns the live heap row dicts without
        copying (the SQL layer's read path). Callers must treat the
        rows as read-only views that do not outlive the statement."""
        rel = self.db.relation(rel_name)
        tuples = yield from self._scan(txn, rel, pred)
        return [t.data for t in tuples]

    def scan_aggregate_gen(self, txn: Transaction, rel_name: str,
                           pred: Predicate, specs) -> Iterator:
        """Aggregate pushdown: fold COUNT/SUM/MIN/MAX/AVG page-at-a-time
        *during* the scan instead of materializing the matching rows
        first. The scan itself is _scan_snapshot with a sink, so it
        takes the same SIREAD locks, flags the same rw-conflicts and
        yields at the same points as a plain scan -- only the result
        shape changes (one value per (func, column) spec). A history
        recorder still receives the matched tuples. S2PL scans, which
        lock as they go, scan first and fold after; both routes return
        identical values (see BatchAggregator)."""
        db = self.db
        rel = db.relation(rel_name)
        agg = BatchAggregator(specs)
        if not txn.isolation.snapshot_based:
            tuples = yield from self._scan(txn, rel, pred)
            agg.update(tuples)
            return agg.finalize()
        if db.recorder is None:
            yield from self._scan_snapshot(txn, rel, pred, sink=agg.update)
        else:
            matched: List[HeapTuple] = []

            def sink(hits: List[HeapTuple]) -> None:
                matched.extend(hits)
                agg.update(hits)

            yield from self._scan_snapshot(txn, rel, pred, sink=sink)
            db.record_read(txn, rel, pred, matched)
        return agg.finalize()

    def select_for_update_gen(self, txn: Transaction, rel_name: str,
                              pred: Predicate) -> Iterator:
        """SELECT ... FOR UPDATE: tuple locks via the xmax field with
        the lock-only bit (paper section 5.1, "tuple locks")."""
        self._require_writable(txn)
        rel = self.db.relation(rel_name)
        candidates = yield from self._scan(txn, rel, pred)
        rows: List[Dict[str, Any]] = []
        for tup in candidates:
            target = yield from self._claim_tuple(txn, rel, tup, pred,
                                                  lock_only=True)
            if target is not None:
                rows.append(dict(target.data))
        return rows

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------
    def insert_gen(self, txn: Transaction, rel_name: str,
                   row: Dict[str, Any]) -> Iterator:
        self._require_writable(txn)
        db = self.db
        rel = db.relation(rel_name)
        self._validate_columns(rel, row)
        for index in rel.indexes.values():
            if index.unique:
                yield from self._unique_check(txn, rel, index,
                                              row.get(index.column))
        if txn.isolation is IsolationLevel.S2PL:
            yield from s2pl.locking.lock_relation_write_intent(
                db.lockmgr, txn.xid, rel.oid)
        tup = rel.heap.insert(row, txn.current_xid, txn.curcid)
        self._touch(rel.oid, tup.tid.page)
        db.stats.tuples_written += 1
        db.ssi.on_write_tuple(txn.sxact, rel.oid, tup.tid,
                              in_subxact=txn.in_subxact)
        if txn.isolation is IsolationLevel.S2PL:
            yield from s2pl.lock_tuple_write(db.lockmgr, txn.xid, rel.oid,
                                             tup.tid)
        yield from self._insert_index_entries(txn, rel, tup)
        txn.wal_changes.append(("insert", rel.name, None, tup.data))
        db.record_write(txn, rel, "insert", None, tup)
        return tup.tid

    def _insert_index_entries(self, txn: Transaction, rel: Relation,
                              tup: HeapTuple,
                              old_data: Optional[Dict[str, Any]] = None
                              ) -> Iterator:
        """Insert index entries for a new tuple version.

        When ``old_data`` is given (UPDATE), indexes whose key did not
        change skip the gap-lock conflict check: no new key enters any
        scanned range (PostgreSQL reaches the same effect through HOT
        updates), and the heap tuple SIREAD locks cover value changes.
        """
        db = self.db
        for index in rel.indexes.values():
            key = tup.data.get(index.column)
            key_changed = (old_data is None
                           or old_data.get(index.column) != key)
            result = index.insert_entry(key, tup.tid)
            for page_no in result.leaf_pages:
                self._touch(index.oid, page_no)
            db.ssi.on_index_insert(
                txn.sxact, index.oid, result, check_conflicts=key_changed,
                key_locking_ok=index.supports_key_locking)
            if txn.isolation is IsolationLevel.S2PL and key_changed:
                if index.supports_predicate_locks:
                    for page_no in result.leaf_pages:
                        yield from s2pl.lock_index_page_write(
                            db.lockmgr, txn.xid, index.oid, page_no)
                # (AMs without page structure are covered by the
                # relation-level read locks scanners take.)

    def _unique_check(self, txn: Transaction, rel: Relation, index,
                      key: Any) -> Iterator:
        """Enforce uniqueness across all potentially-live versions,
        waiting out in-progress writers of duplicates."""
        db = self.db
        while True:
            blocker: Optional[int] = None
            for tid in index.search(key).tids:
                tup = rel.heap.fetch(tid)
                if tup is None or tup.data.get(index.column) != key:
                    continue
                db.stats.tuples_read += 1
                status = self._live_duplicate_status(txn, tup)
                if status == "dup":
                    raise UniqueViolationError(
                        f"duplicate key value violates unique constraint "
                        f"{index.name!r}: {index.column}={key!r}")
                if isinstance(status, int):
                    blocker = status
                    break
            if blocker is None:
                return
            yield from self._wait_for_xid(txn, blocker)

    def _live_duplicate_status(self, txn: Transaction,
                               tup: HeapTuple) -> Union[str, int, None]:
        """None = dead/deleted; "dup" = live duplicate; int = top-level
        xid of an in-progress writer to wait for."""
        clog = self.db.clog
        xmin = tup.xmin
        if clog.did_abort(xmin):  # repro: noqa(CLOG001) -- write-conflict resolution needs raw status to pick wait target
            return None
        creator_mine = xmin in txn.all_xids
        if not creator_mine and not clog.did_commit(xmin):  # repro: noqa(CLOG001) -- in-progress inserter => wait on its top-level xid
            return clog.top_level_of(xmin)  # in-progress inserter
        xmax = tup.xmax
        if xmax == INVALID_XID or tup.xmax_lock_only or clog.did_abort(xmax):  # repro: noqa(CLOG001) -- aborted deleter makes the key live again (duplicate)
            return "dup"
        if xmax in txn.all_xids:
            return None  # we deleted it ourselves
        if clog.did_commit(xmax):  # repro: noqa(CLOG001) -- committed deleter: key free, no conflict
            return None
        return clog.top_level_of(xmax)  # in-progress deleter

    # ------------------------------------------------------------------
    # UPDATE / DELETE
    # ------------------------------------------------------------------
    def update_gen(self, txn: Transaction, rel_name: str, pred: Predicate,
                   updates: Updates) -> Iterator:
        self._require_writable(txn)
        db = self.db
        rel = db.relation(rel_name)
        candidates = yield from self._scan(txn, rel, pred)
        count = 0
        for tup in candidates:
            target = yield from self._claim_tuple(txn, rel, tup, pred,
                                                  lock_only=False)
            if target is None:
                continue
            new_data = dict(target.data)
            if callable(updates):
                new_data.update(updates(dict(target.data)))
            else:
                new_data.update(updates)
            self._validate_columns(rel, new_data)
            for index in rel.indexes.values():
                if (index.unique and new_data.get(index.column)
                        != target.data.get(index.column)):
                    yield from self._unique_check(txn, rel, index,
                                                  new_data.get(index.column))
            new_tup = rel.heap.insert(new_data, txn.current_xid, txn.curcid)
            target.next_tid = new_tup.tid
            self._touch(rel.oid, new_tup.tid.page)
            db.stats.tuples_written += 1
            db.ssi.on_write_tuple(txn.sxact, rel.oid, target.tid,
                                  in_subxact=txn.in_subxact)
            db.ssi.on_write_tuple(txn.sxact, rel.oid, new_tup.tid,
                                  in_subxact=txn.in_subxact)
            if txn.isolation is IsolationLevel.S2PL:
                yield from s2pl.lock_tuple_write(db.lockmgr, txn.xid,
                                                 rel.oid, new_tup.tid)
            yield from self._insert_index_entries(txn, rel, new_tup,
                                                  old_data=target.data)
            txn.wal_changes.append(("update", rel.name, target.data,
                                    new_tup.data))
            db.record_write(txn, rel, "update", target, new_tup)
            count += 1
        return count

    def delete_gen(self, txn: Transaction, rel_name: str,
                   pred: Predicate) -> Iterator:
        self._require_writable(txn)
        db = self.db
        rel = db.relation(rel_name)
        candidates = yield from self._scan(txn, rel, pred)
        count = 0
        for tup in candidates:
            target = yield from self._claim_tuple(txn, rel, tup, pred,
                                                  lock_only=False)
            if target is None:
                continue
            db.stats.tuples_written += 1
            db.ssi.on_write_tuple(txn.sxact, rel.oid, target.tid,
                                  in_subxact=txn.in_subxact)
            txn.wal_changes.append(("delete", rel.name, target.data, None))
            db.record_write(txn, rel, "delete", target, None)
            count += 1
        return count

    # ------------------------------------------------------------------
    # write-conflict resolution (first-updater-wins)
    # ------------------------------------------------------------------
    def _claim_tuple(self, txn: Transaction, rel: Relation, tup: HeapTuple,
                     pred: Predicate, *, lock_only: bool) -> Iterator:
        """Claim ``tup`` for writing by stamping our xid into its xmax.

        Returns the claimed version (READ COMMITTED may hop to a newer
        one, EvalPlanQual style) or None when the row should be
        skipped. Raises SerializationFailure on a lost
        first-updater-wins race under snapshot isolation semantics.
        """
        if txn.isolation is IsolationLevel.S2PL:
            result = yield from self._claim_tuple_s2pl(txn, rel, tup, pred,
                                                       lock_only=lock_only)
            return result
        db = self.db
        clog = db.clog
        cur = tup
        while True:
            xmax = cur.xmax
            effective_lock_only = cur.xmax_lock_only
            claimable = (
                xmax == INVALID_XID
                or clog.did_abort(xmax)  # repro: noqa(CLOG001) -- first-updater-wins: aborted deleter is claimable
                or (effective_lock_only
                    and (xmax in txn.all_xids or not clog.in_progress(xmax))))  # repro: noqa(CLOG001) -- finished locker's FOR UPDATE no longer blocks
            if claimable:
                if not pred.matches(cur.data):
                    return None  # EvalPlanQual re-check failed
                rel.heap.vismap.clear(cur.tid.page)
                cur.set_deleter(txn.current_xid, txn.curcid,
                                lock_only=lock_only)
                return cur
            if xmax in txn.all_xids:
                if effective_lock_only:
                    # Upgrading our own FOR UPDATE lock.
                    rel.heap.vismap.clear(cur.tid.page)
                    cur.set_deleter(txn.current_xid, txn.curcid,
                                    lock_only=lock_only)
                    return cur
                # Already updated/deleted by this transaction (this or
                # an earlier command): nothing more to do here.
                return None
            top = clog.top_level_of(xmax)
            if not clog.did_commit(xmax):  # repro: noqa(CLOG001) -- must wait on in-progress writer, not read through it
                # In-progress writer holds the tuple lock: wait for its
                # transaction to finish, then re-evaluate.
                yield from self._wait_for_xid(txn, top)
                continue
            if effective_lock_only:
                continue  # committed FOR UPDATE lock: re-evaluate
            # A concurrent transaction committed an update/delete of
            # this row first.
            if txn.isolation is not IsolationLevel.READ_COMMITTED:
                db.stats.update_conflicts += 1
                db.obs.metrics.counter(
                    "ssi.aborts", cause=AbortCause.UPDATE_CONFLICT.value).inc()
                if db.obs.tracer is not None:
                    db.obs.tracer.emit("abort.raise", txn.xid,
                                       cause=AbortCause.UPDATE_CONFLICT.value,
                                       writer_xid=top)
                raise SerializationFailure(
                    "could not serialize access due to concurrent update",
                    reason="concurrent update",
                    cause=AbortCause.UPDATE_CONFLICT)
            if cur.next_tid is None:
                return None  # row deleted; skip
            nxt = rel.heap.fetch(cur.next_tid)
            if nxt is None:
                return None
            db.stats.tuples_read += 1
            cur = nxt  # EvalPlanQual: chase the newest version

    def _claim_tuple_s2pl(self, txn: Transaction, rel: Relation,
                          tup: HeapTuple, pred: Predicate, *,
                          lock_only: bool) -> Iterator:
        db = self.db
        cur = tup
        while True:
            yield from s2pl.lock_tuple_write(db.lockmgr, txn.xid, rel.oid,
                                             cur.tid)
            # With the X lock held the version chain is frozen; chase to
            # the newest committed state (a writer may have superseded
            # this version while we waited for the lock).
            if not s2pl.s2pl_visible(cur, txn.view(), db.clog):
                if cur.next_tid is None:
                    return None
                nxt = rel.heap.fetch(cur.next_tid)
                if nxt is None:
                    return None
                cur = nxt
                continue
            if not pred.matches(cur.data):
                return None
            if cur.xmax != INVALID_XID and cur.xmax in txn.all_xids \
                    and not cur.xmax_lock_only:
                return None  # already written by us
            rel.heap.vismap.clear(cur.tid.page)
            cur.set_deleter(txn.current_xid, txn.curcid, lock_only=lock_only)
            return cur
