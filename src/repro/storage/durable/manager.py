"""DurabilityManager: the engine-facing face of the durability layer.

One instance hangs off ``Database.durability`` (None when the toggle is
off -- every hook call site is a single ``is not None`` test, keeping
the off path byte-identical to the in-memory engine). It owns:

* **redo capture** -- ``on_write`` turns each heap mutation into a
  physiological redo entry (page/slot-addressed, logically idempotent)
  queued on the transaction;
* **commit/prepare records** -- ``on_commit``/``on_prepare`` append one
  WAL frame carrying the transaction's redo, full page images for
  first-touch-after-checkpoint pages (torn-page repair), and the SSI
  facts recovery needs (commit_seq; for prepares: snapshot + persisted
  SIREAD locks, the paper's section 7.1 state, plus the logical
  changes a recovered prepared transaction ships to replicas when it
  commits). Replicas are never fed from this log (repro.replication);
* **the pageLSN rule** -- pages dirtied by a record are tracked with
  its LSN; any writeback (clock eviction or checkpoint) first flushes
  WAL through that LSN, then writes the page stamped with it;
* **group commit** -- synchronous commits flush through the server's
  flush gate (engine latch released around the fsync, so concurrent
  backends batch under one leader); with ``synchronous_commit`` off,
  commits are acknowledged unflushed and a background flusher (or the
  next synchronous event) persists them;
* **checkpoints** -- flush WAL, write back every dirty page, rewrite
  the CLOG / old-serxid segments, then atomically publish
  ``checkpoint.json`` (tmp + fsync + rename) and reset the
  full-page-write tracker.

WAL record kinds ("t" field): ``ddl``, ``commit``, ``prepare``,
``cprep`` (commit prepared), ``aprep`` (rollback prepared); older
versions also wrote ``ch``/``m`` on commits, which recovery ignores. Redo
entries: ``["i", oid, page, slot, data, xmin, cmin]`` inserts a row
version; ``["m", oid, page, slot, xmax, cmax, next]`` stamps a
deleter; ``fpw`` entries carry whole-page payloads. Aborts of ordinary
transactions write nothing (presumed abort: an xid recovery cannot
prove committed is marked aborted, and MVCC makes its tuples
invisible -- the reason ARIES' UNDO pass is unnecessary here).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional, Set

from repro.mvcc.clog import XidStatus
from repro.storage.durable import pagefmt
from repro.storage.durable.bufferpool import DirtyPageTable, PageKey
from repro.storage.durable.io import DurableIO
from repro.storage.durable.pagestore import PageStore
from repro.storage.durable.walfile import WALFile

CHECKPOINT_VERSION = 1
STATUS_CHAR = {XidStatus.IN_PROGRESS: "I", XidStatus.COMMITTED: "C",
               XidStatus.ABORTED: "A"}
CHAR_STATUS = {v: k for k, v in STATUS_CHAR.items()}
#: old-serxid entries per serxid-table page.
SERXID_PER_PAGE = 128

def _jsonable_targets(targets) -> list:
    return sorted([list(t) for t in targets])


def tuples_deep(value):
    """JSON round-trip turns tuples into lists; SIREAD target keys and
    TIDs must come back as tuples to compare equal."""
    if isinstance(value, list):
        return tuple(tuples_deep(v) for v in value)
    return value


class DurabilityManager:
    def __init__(self, db, cfg) -> None:
        self.db = db
        self.cfg = cfg
        os.makedirs(cfg.data_dir, exist_ok=True)
        self.io = DurableIO(
            fsync=cfg.fsync,
            flush_latency=getattr(cfg, "modeled_flush_latency", 0.0))
        self.wal = WALFile(os.path.join(cfg.data_dir, "wal.log"), self.io,
                           group_commit=cfg.group_commit)
        self.store = PageStore(cfg.data_dir, self.io, cfg.page_bytes)
        self.pool = DirtyPageTable(cfg.max_dirty_pages, self._write_back)
        #: True while recovery replays the log: every hook is a no-op so
        #: replayed operations are not re-logged.
        self.replaying = bool(getattr(cfg, "_recovering", False))
        #: Pages whose full image already went to the WAL since the
        #: last checkpoint (torn-page protection needs only the first).
        self.fpw_done: Set[PageKey] = set()
        #: Acknowledged commits: xid -> end-LSN its frame needs durable.
        #: With synchronous_commit every entry is durable at ack time;
        #: without, stop()/close() must drain these before exiting.
        self.acked: Dict[int, int] = {}
        #: Installed by the threaded server: runs a flush with the
        #: engine latch released so backends batch under one fsync
        #: leader. None under the deterministic scheduler.
        self.flush_gate = None
        self.checkpoints = 0
        self._wal_bytes_at_ckpt = 0
        #: Serializes checkpoints: the engine latch is released around
        #: WAL fsyncs inside a checkpoint, so a second backend crossing
        #: the auto-checkpoint threshold could otherwise start an
        #: overlapping one (racing generation switches and the
        #: checkpoint.json publish).
        self._ckpt_lock = threading.Lock()
        self._closed = False
        self._flusher: Optional[threading.Thread] = None
        self._flusher_stop = threading.Event()
        m = db.obs.metrics
        self._c_fsyncs = m.counter("durable.wal_fsyncs")
        self._c_records = m.counter("durable.wal_records")
        self._c_writebacks = m.counter("durable.page_writebacks")
        self._c_checkpoints = m.counter("durable.checkpoints")
        m.gauge("durable.dirty_pages").set_function(lambda: len(self.pool))
        m.gauge("durable.wal_end_lsn").set_function(
            lambda: self.wal.end_lsn)
        m.gauge("durable.wal_durable_lsn").set_function(
            lambda: self.wal.durable_lsn)
        m.gauge("durable.group_commit_rides").set_function(
            lambda: self.wal.piggybacked)
        if not self.replaying:
            self.start_flusher()

    def start_flusher(self) -> None:
        """Start the background WAL flusher if the config wants one and
        it is not already running. Recovery constructs the manager with
        ``replaying=True`` (suppressing the ``__init__`` start), so
        ``open_database`` calls this again once replay finishes."""
        if (self.cfg.synchronous_commit or self.cfg.commit_delay <= 0
                or self.replaying or self._closed):
            return
        if self._flusher is None or not self._flusher.is_alive():
            self._flusher_stop.clear()
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="wal-flusher", daemon=True)
            self._flusher.start()

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def startup(self) -> None:
        """Called at the end of Database.__init__ on a *fresh* data
        directory: publish the initial (empty-catalog) checkpoint that
        recovery will use as its base."""
        if self.replaying:
            return
        if not os.path.exists(self.checkpoint_path()):
            self.checkpoint()

    def checkpoint_path(self) -> str:
        return os.path.join(self.cfg.data_dir, "checkpoint.json")

    # ------------------------------------------------------------------
    # DDL hooks
    # ------------------------------------------------------------------
    def on_create_table(self, rel) -> None:
        if self.replaying:
            return
        self._append({"t": "ddl", "op": "create_table", "oid": rel.oid,
                      "name": rel.name, "columns": list(rel.columns)})
        self._flush()

    def on_create_index(self, index, table: str) -> None:
        if self.replaying:
            return
        self._append({"t": "ddl", "op": "create_index", "oid": index.oid,
                      "table": table, "column": index.column,
                      "name": index.name,
                      "unique": 1 if index.unique else 0,
                      "using": index.using})
        self._flush()

    def on_drop_table(self, rel) -> None:
        if self.replaying:
            return
        self._append({"t": "ddl", "op": "drop_table", "oid": rel.oid,
                      "name": rel.name})
        self.pool.discard(lambda key: key[1] == rel.oid
                          and key[0] == pagefmt.KIND_HEAP)
        self.store.drop_heap(rel.oid)
        self._flush()

    # ------------------------------------------------------------------
    # DML capture
    # ------------------------------------------------------------------
    def on_write(self, txn, rel, kind: str, old, new) -> None:
        """Queue physiological redo for one executor write. FOR UPDATE
        tuple locks never reach here (lock-only xmax is not logged --
        locks do not survive a crash)."""
        if self.replaying:
            return
        redo = txn.__dict__.setdefault("_durable_redo", [])
        pages = txn.__dict__.setdefault("_durable_pages", set())
        if old is not None:
            nxt = ([old.next_tid.page, old.next_tid.slot]
                   if old.next_tid else None)
            redo.append(["m", rel.oid, old.tid.page, old.tid.slot,
                         old.xmax, old.cmax, nxt])
            pages.add((pagefmt.KIND_HEAP, rel.oid, old.tid.page))
        if new is not None:
            redo.append(["i", rel.oid, new.tid.page, new.tid.slot,
                         new.data, new.xmin, new.cmin])
            pages.add((pagefmt.KIND_HEAP, rel.oid, new.tid.page))

    # ------------------------------------------------------------------
    # transaction hooks
    # ------------------------------------------------------------------
    def on_commit(self, txn) -> None:
        if self.replaying:
            return
        seq = txn.sxact.commit_seq if txn.sxact is not None else None
        if txn.gid is not None:
            # COMMIT PREPARED: the prepare record already carries the
            # redo and pages; this frame just resolves the outcome.
            lsn = self._append({"t": "cprep", "gid": txn.gid,
                                "xid": txn.xid,
                                "c": sorted(txn.live_xids()),
                                "seq": seq})
            if txn.wal_changes:
                self._ack(txn, lsn)
            # A branch with no redo needs no synchronous flush: losing
            # the frame leaves the prepare in doubt and the coordinator
            # decision log re-resolves it identically.
            return
        if not txn.wal_changes:
            # Nothing written: no redo, and recovery marking the xid
            # aborted is indistinguishable from this commit.
            return
        record = self._txn_record(txn)
        record.update({"t": "commit", "seq": seq})
        lsn = self._append(record)
        self._mark_dirty(txn, lsn)
        self._ack(txn, lsn)
        self.maybe_auto_checkpoint()

    def on_prepare(self, txn) -> None:
        """PREPARE TRANSACTION: durable before the vote is returned --
        the section 7.1 contract -- carrying the SSI state (snapshot +
        SIREAD lock targets) the recovered transaction needs."""
        if self.replaying:
            return
        snap = txn.snapshot
        record = self._txn_record(txn)
        record.update({
            "t": "prepare", "gid": txn.gid,
            "ch": [list(ch) for ch in txn.wal_changes],
            "iso": txn.isolation.value, "ro": 1 if txn.read_only else 0,
            "snap": {"xmin": snap.xmin, "xmax": snap.xmax,
                     "xip": sorted(snap.xip)},
            "siread": _jsonable_targets(
                getattr(txn, "persisted_siread", ()))})
        lsn = self._append(record)
        self._mark_dirty(txn, lsn)
        if txn.wal_changes:
            self._flush()
        # No redo: the record still goes to the WAL (in-doubt
        # bookkeeping + SIREAD targets) but the vote need not wait for
        # the device. If the unflushed record is lost in a crash the
        # branch simply vanishes -- it had no effects to make atomic,
        # and its SIREAD locks are moot because no pre-crash reader
        # survives recovery as active (the same argument that lets
        # single-node recovery drop committed transactions' SIREADs).

    def on_abort(self, txn) -> None:
        if self.replaying:
            return
        self.acked.pop(txn.xid, None)
        if txn.gid is not None:
            # ROLLBACK PREPARED must be logged: recovery would otherwise
            # resurrect the prepare record's transaction.
            self._append({"t": "aprep", "gid": txn.gid, "xid": txn.xid,
                          "ab": sorted(txn.all_xids)})

    def _txn_record(self, txn) -> Dict[str, Any]:
        live = sorted(txn.live_xids())
        aborted = sorted(set(txn.all_xids) - set(live))
        parents = {}
        for xid in sorted(txn.all_xids):
            parent = self.db.clog.parent_of(xid)
            if parent:
                parents[str(xid)] = parent
        record: Dict[str, Any] = {
            "xid": txn.xid, "c": live, "ab": aborted, "par": parents,
            "redo": list(txn.__dict__.get("_durable_redo", ())),
        }
        if self.cfg.full_page_writes:
            fpw = []
            for key in sorted(txn.__dict__.get("_durable_pages", ())):
                if key in self.fpw_done:
                    continue
                self.fpw_done.add(key)
                _, oid, page_no = key
                fpw.append([oid, page_no, self._heap_page_payload(key)])
            if fpw:
                record["fpw"] = fpw
        return record

    # ------------------------------------------------------------------
    # WAL plumbing
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> int:
        lsn = self.wal.append(record)
        self._c_records.inc()
        return lsn

    def _over_checkpoint_threshold(self) -> bool:
        return bool(self.cfg.checkpoint_wal_bytes
                    and not self.replaying
                    and self.wal.end_lsn - self._wal_bytes_at_ckpt
                    >= self.cfg.checkpoint_wal_bytes)

    def maybe_auto_checkpoint(self) -> None:
        """Take a checkpoint once enough WAL accumulated. Called from
        Database *between* transactions -- never mid-record, so a
        checkpoint's redo_lsn can't split a commit from its dirty
        pages. Non-blocking: if another backend's checkpoint is in
        flight (possible because the engine latch is released around
        its WAL fsyncs), that one covers us -- blocking here while
        holding the engine latch would deadlock against the in-flight
        checkpointer reacquiring it."""
        if not self._over_checkpoint_threshold():
            return
        if not self._ckpt_lock.acquire(blocking=False):
            return
        try:
            # Re-check: the checkpoint we contended with may have
            # finished (resetting the WAL-bytes baseline) between the
            # threshold test and the acquire.
            if self._over_checkpoint_threshold():
                self._checkpoint_locked()
        finally:
            self._ckpt_lock.release()

    def _flush(self, upto: Optional[int] = None) -> None:
        before = self.wal.flushes
        if self.flush_gate is not None:
            self.flush_gate(lambda: self.wal.flush(upto))
        else:
            self.wal.flush(upto)
        self._c_fsyncs.inc(self.wal.flushes - before)
        if self.acked:
            durable = self.wal.durable_lsn
            for xid in [x for x, need in self.acked.items()
                        if need <= durable]:
                del self.acked[xid]

    def _ack(self, txn, lsn: int) -> None:
        self.acked[txn.xid] = self.wal.end_lsn
        if self.cfg.synchronous_commit:
            self._flush()

    def drain(self) -> None:
        """Make every acknowledged commit durable (server stop(), clean
        close): flush the whole WAL queue."""
        self._flush()

    def _mark_dirty(self, txn, lsn: int) -> None:
        for key in sorted(txn.__dict__.get("_durable_pages", ())):
            self.pool.mark_dirty(key, lsn)

    def mark_dirty(self, key: PageKey, lsn: int) -> None:
        """Recovery marks replayed pages dirty so the end-of-recovery
        checkpoint writes them back."""
        self.pool.mark_dirty(key, lsn)

    # ------------------------------------------------------------------
    # writeback (the pageLSN / WAL-before-data choke point)
    # ------------------------------------------------------------------
    def _write_back(self, key: PageKey, rec_lsn: int) -> None:
        """Write one page to its file, WAL first: the page carries
        pageLSN = rec_lsn, so WAL through rec_lsn must be durable before
        the page image may replace the old one on disk."""
        if self.wal.durable_lsn < rec_lsn:
            self._flush(rec_lsn)
        assert self.wal.durable_lsn >= rec_lsn, \
            "pageLSN rule: page writeback ahead of durable WAL"
        kind, oid, page_no = key
        self.store.write_page(kind, oid, page_no, rec_lsn,
                              self._heap_page_payload(key))
        self._c_writebacks.inc()

    def _heap_page_payload(self, key: PageKey) -> Dict[str, Any]:
        _, oid, page_no = key
        rel = self._rel_by_oid(oid)
        page = rel.heap.page(page_no)
        return {"s": [pagefmt.encode_tuple(t) if t is not None else None
                      for t in page.slots()]}

    def _rel_by_oid(self, oid: int):
        for rel in self.db.relations().values():
            if rel.oid == oid:
                return rel
        raise KeyError(f"no relation with oid {oid}")

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Flush WAL, write back all dirty pages and the CLOG/serxid
        segments, then atomically publish checkpoint.json. REDO after a
        crash starts at the returned ``redo_lsn``."""
        with self._ckpt_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> Dict[str, Any]:
        db = self.db
        # Commits can land *during* the checkpoint (the flush gate
        # releases the engine latch around WAL fsyncs in the flushes
        # below). Their pages stay in the dirty table, so redo must
        # start no later than the WAL end captured here -- a record
        # appended after this point may have neither its page on disk
        # nor (with an end-of-flush redo_lsn) a replay covering it.
        start_lsn = self.wal.end_lsn
        self._flush()
        self.pool.flush_all()
        # CLOG / serxid segments go to a *new* generation of files; the
        # published doc names them, so a crash mid-checkpoint (even one
        # tearing these writes) leaves the previous checkpoint's
        # generation untouched and fully usable.
        old_names = dict(self.store.special_names)
        self.store.begin_special_generation(self._next_segment_names())
        self._write_clog_pages()
        self._write_serxid_pages()
        self.store.fsync_touched()
        redo_lsn = min([start_lsn, *self.pool.entries().values()])
        doc = self._checkpoint_doc(redo_lsn)
        path = self.checkpoint_path()
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            payload = json.dumps(doc, separators=(",", ":"),
                                 sort_keys=True).encode("utf-8")
            self.io.pwrite(f, tmp, 0, payload)
            self.io.fsync(f, tmp)
        os.replace(tmp, path)
        self.io.fsync_dir(self.cfg.data_dir)
        for key, name in old_names.items():
            if name != self.store.special_names[key]:
                self.store.remove_special(name)
        self.fpw_done.clear()
        self._wal_bytes_at_ckpt = self.wal.end_lsn
        self.checkpoints += 1
        self._c_checkpoints.inc()
        if db.obs.tracer is not None:
            db.obs.tracer.emit("durable.checkpoint", 0,
                               redo_lsn=doc["redo_lsn"])
        return doc

    def _next_segment_names(self) -> Dict[str, str]:
        current = self.store.special_names.get("clog", "clog.0.pg")
        try:
            seq = int(current.split(".")[1]) + 1
        except (IndexError, ValueError):
            seq = 1
        return {"clog": f"clog.{seq}.pg", "serxid": f"serxid.{seq}.pg"}

    def _checkpoint_doc(self, redo_lsn: int) -> Dict[str, Any]:
        db = self.db
        tables = []
        indexes = []
        for rel in sorted(db.relations().values(), key=lambda r: r.oid):
            tables.append({"oid": rel.oid, "name": rel.name,
                           "columns": list(rel.columns)})
            for index in rel.indexes.values():
                indexes.append({
                    "oid": index.oid, "table": rel.name,
                    "column": index.column, "name": index.name,
                    "unique": 1 if index.unique else 0,
                    "using": index.using})
        indexes.sort(key=lambda i: i["oid"])
        prepared = []
        for gid in db.prepared_gids():
            txn = db._prepared[gid]
            snap = txn.snapshot
            live = sorted(txn.live_xids())
            prepared.append({
                "gid": gid, "xid": txn.xid, "c": live,
                "ab": sorted(set(txn.all_xids) - set(live)),
                "iso": txn.isolation.value,
                "ro": 1 if txn.read_only else 0,
                "snap": {"xmin": snap.xmin, "xmax": snap.xmax,
                         "xip": sorted(snap.xip)},
                "siread": _jsonable_targets(
                    getattr(txn, "persisted_siread", ())),
                "ch": [list(ch) for ch in txn.wal_changes]})
        old_serxid = {str(xid): [entry[0], entry[1]]
                      for xid, entry in db.ssi.old_serxid_table().items()}
        return {
            "version": CHECKPOINT_VERSION,
            "page_bytes": self.cfg.page_bytes,
            "heap_page_size": db.config.heap_page_size,
            "btree_page_size": db.config.btree_page_size,
            "next_xid": db.xids.next_xid,
            "next_oid": db._next_oid,
            "tables": tables, "indexes": indexes,
            "commit_counter": db.ssi.commit_seq_counter,
            "old_serxid": old_serxid,
            "prepared": prepared,
            "segment_files": dict(self.store.special_names),
            "redo_lsn": redo_lsn,
        }

    def _write_clog_pages(self) -> None:
        """Rewrite every CLOG segment (a few bytes/xid).

        A dense segment's JSON can exceed one frame (clog_segment_xids
        entries plus subtransaction parents), so segments are packed
        greedily into as many physical pages as their encoded size
        needs. Physical page numbers are just sequential positions in
        this checkpoint's fresh generation file: recovery merges
        entries by absolute xid (``b`` + offset), so where a segment's
        bytes land is invisible to it."""
        seg = self.cfg.clog_segment_xids
        segments: Dict[int, Dict[int, list]] = {}
        for xid, status in self.db.clog.entries().items():
            entry = segments.setdefault(xid // seg, {}).setdefault(
                xid % seg, [None, None])
            entry[0] = STATUS_CHAR[status]
        for xid, parent in self.db.clog.parents().items():
            entry = segments.setdefault(xid // seg, {}).setdefault(
                xid % seg, [None, None])
            entry[1] = parent
        # Conservative per-entry JSON cost upper bounds; the wrapper
        # ({"b":...,"seg":...,"st":{},"par":{}}) rides in the slack.
        budget = self.cfg.page_bytes - pagefmt.HEADER.size - 96
        page_no = 0
        for seg_no in sorted(segments):
            st: Dict[str, Any] = {}
            par: Dict[str, Any] = {}
            used = 0
            for off in sorted(segments[seg_no]):
                status_ch, parent = segments[seg_no][off]
                cost = ((len(str(off)) + 8 if status_ch is not None else 0)
                        + (len(str(off)) + len(str(parent)) + 6
                           if parent is not None else 0))
                if (st or par) and used + cost > budget:
                    self.store.write_page(
                        pagefmt.KIND_CLOG, 0, page_no, self.wal.end_lsn,
                        {"b": seg_no * seg, "seg": seg,
                         "st": st, "par": par})
                    page_no += 1
                    st, par, used = {}, {}, 0
                if status_ch is not None:
                    st[str(off)] = status_ch
                if parent is not None:
                    par[str(off)] = parent
                used += cost
            self.store.write_page(pagefmt.KIND_CLOG, 0, page_no,
                                  self.wal.end_lsn,
                                  {"b": seg_no * seg, "seg": seg,
                                   "st": st, "par": par})
            page_no += 1

    def _write_serxid_pages(self) -> None:
        """Rewrite the old-committed-serializable-xid table (the
        section 6.2 summary state: commit_seq + earliest conflict-out
        per summarized xid)."""
        items = sorted(self.db.ssi.old_serxid_table().items())
        for page_no in range(0, max(1, (len(items) + SERXID_PER_PAGE - 1)
                                    // SERXID_PER_PAGE)):
            chunk = items[page_no * SERXID_PER_PAGE:
                          (page_no + 1) * SERXID_PER_PAGE]
            payload = {"e": [[xid, entry[0], entry[1]]
                             for xid, entry in chunk]}
            self.store.write_page(pagefmt.KIND_SERXID, 0, page_no,
                                  self.wal.end_lsn, payload)

    # ------------------------------------------------------------------
    # async-commit flusher (PostgreSQL's walwriter)
    # ------------------------------------------------------------------
    def _flusher_loop(self) -> None:  # pragma: no cover - timing-driven
        while not self._flusher_stop.wait(self.cfg.commit_delay):
            try:
                self.wal.flush()
            except Exception:
                return

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, *, final_checkpoint: bool = True) -> None:
        """Clean shutdown: drain acknowledged commits, optionally take a
        shutdown checkpoint, close the files. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._flusher_stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5)
        self.drain()
        if final_checkpoint:
            self.checkpoint()
        self.wal.close()
        self.store.close()
