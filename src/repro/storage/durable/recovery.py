"""ARIES-style crash recovery: REDO from the last checkpoint.

:func:`open_database` is the one entry point: pointed at a data
directory it either initializes a fresh durable database or recovers
the existing one into a state equivalent to the instant of the crash:

1. **Analysis** -- read ``checkpoint.json`` (atomically published, so
   always intact) and every intact WAL frame; a torn tail is cut off.
   The checkpoint names the catalog, the CLOG/serxid segment files,
   prepared transactions, SSI counters, and ``redo_lsn``.
2. **REDO** -- rebuild the catalog (checkpoint tables plus replayed
   DDL), load the page files (a checksum-failing page is repaired from
   its full-page WAL image when one exists past ``redo_lsn``, else
   surfaces as DataCorruptionError), then replay commit/prepare frames
   in log order under the pageLSN rule: a page already carrying a
   record's effects skips it, which makes replay idempotent.
3. **No UNDO** -- MVCC is the undo log: any xid recovery cannot prove
   committed is marked aborted in the CLOG, and its tuple versions --
   possibly present on flushed pages -- are simply invisible forever
   (VACUUM reclaims them later).
4. **Prepared 2PC survivors** (paper section 7.1) -- transactions whose
   prepare record is durable but unresolved come back PREPARED: their
   snapshots, xid locks and persisted SIREAD locks are restored, and
   their SSI state is conservatively marked as having
   rw-antidependencies both in and out, exactly like
   ``Database.simulate_crash_recovery``.

The replayed database then takes an end-of-recovery checkpoint, so a
crash during recovery just repeats the same (idempotent) replay.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.config import EngineConfig
from repro.engine.isolation import IsolationLevel
from repro.engine.transaction import Transaction, TxnStatus
from repro.errors import DataCorruptionError
from repro.locks.modes import LockMode
from repro.mvcc.clog import XidStatus
from repro.mvcc.snapshot import Snapshot
from repro.mvcc.xid import XidAllocator
from repro.storage.durable import pagefmt
from repro.storage.durable.manager import CHAR_STATUS, tuples_deep
from repro.storage.durable.walfile import read_wal
from repro.storage.page import HeapPage


def open_database(data_dir: str,
                  config: Optional[EngineConfig] = None):
    """Open (or create) a durable database rooted at ``data_dir``.

    A directory without a checkpoint is initialized fresh; otherwise
    the WAL is replayed from the last checkpoint and the recovered
    Database is returned, with a recovery report available as
    ``db.durability.last_recovery``.
    """
    from repro.engine.database import Database

    if config is None:
        cfg = EngineConfig.durable(data_dir)
    else:
        cfg = config
        cfg.durability.enabled = True
        cfg.durability.data_dir = data_dir
    ckpt_path = os.path.join(data_dir, "checkpoint.json")
    if not os.path.exists(ckpt_path):
        return Database(cfg)
    doc = _read_checkpoint(ckpt_path)
    # Page geometry is a property of the data directory, not the
    # caller's config: recovered pages must decode with the sizes they
    # were written with.
    cfg.heap_page_size = doc["heap_page_size"]
    cfg.btree_page_size = doc.get("btree_page_size", cfg.btree_page_size)
    cfg.durability.page_bytes = doc["page_bytes"]
    cfg.durability._recovering = True
    try:
        db = Database(cfg)
        mgr = db.durability
        report = _replay(db, mgr, doc)
    finally:
        del cfg.durability._recovering
    mgr.replaying = False
    mgr.checkpoint()  # end-of-recovery checkpoint
    mgr.start_flusher()  # __init__ skipped it while replaying
    mgr.last_recovery = report
    return db


def _read_checkpoint(path: str) -> Dict[str, Any]:
    try:
        with open(path, "rb") as f:
            return json.loads(f.read().decode("utf-8"))
    except (ValueError, OSError) as exc:
        raise DataCorruptionError(
            f"unreadable checkpoint {path}: {exc}", path=path,
            kind="checkpoint", reason="checksum") from None


class _PageState:
    """One heap page mid-replay: raw slot entries + pageLSN."""

    __slots__ = ("entries", "lsn", "free_from_image", "dirty")

    def __init__(self, entries: List[Optional[list]], lsn: int,
                 *, dirty: bool = False) -> None:
        self.entries = entries
        self.lsn = lsn
        self.free_from_image: Set[int] = {
            i for i, e in enumerate(entries) if e is None}
        self.dirty = dirty

    def install_image(self, entries: List[Optional[list]],
                      lsn: int) -> None:
        self.entries = list(entries)
        self.lsn = lsn
        self.free_from_image = {i for i, e in enumerate(self.entries)
                                if e is None}
        self.dirty = True

    def place(self, slot: int, entry: list) -> None:
        while len(self.entries) <= slot:
            # Padding for slots whose inserts never committed: dead
            # (not reusable), matching the uncrashed page where they
            # hold invisible tuples of crashed transactions.
            self.entries.append(None)
        self.entries[slot] = entry
        self.free_from_image.discard(slot)
        self.dirty = True

    def stamp(self, slot: int, xmax: int, cmax: int,
              nxt: Optional[list], *, path: str) -> None:
        if slot >= len(self.entries) or self.entries[slot] is None:
            raise DataCorruptionError(
                f"redo references missing tuple at slot {slot}",
                path=path, kind="heap", reason="redo-miss")
        entry = self.entries[slot]
        entry[3] = xmax
        entry[4] = cmax
        entry[5] = 0
        entry[6] = nxt
        self.dirty = True


def _replay(db, mgr, doc: Dict[str, Any]) -> Dict[str, Any]:
    store = mgr.store
    store.special_names.update(doc.get("segment_files", {}))
    wal_path = mgr.wal.path
    frames, valid_end = read_wal(wal_path)
    torn_bytes = os.path.getsize(wal_path) - valid_end
    if torn_bytes:
        mgr.wal.truncate_to(valid_end)
    redo_lsn = doc["redo_lsn"]
    replay = [(lsn, rec) for lsn, rec in frames if lsn >= redo_lsn]

    # ------------------------------------------------------------------
    # catalog: checkpoint tables, then replayed DDL (forced oids keep
    # physical identity -- TIDs and SIREAD targets are oid-addressed)
    # ------------------------------------------------------------------
    deferred_indexes: List[Dict[str, Any]] = list(doc["indexes"])
    for t in doc["tables"]:
        db._next_oid = t["oid"]
        rel = db.create_table(t["name"], t["columns"])
        assert rel.oid == t["oid"]
    # Replay can overlap the checkpoint doc: redo_lsn is the WAL end at
    # checkpoint *start*, and DDL may land while the checkpoint's WAL
    # fsyncs run with the engine latch released -- such a record is both
    # in the doc and in the replayed log, so each DDL op here tolerates
    # already being applied.
    for _lsn, rec in replay:
        if rec.get("t") != "ddl":
            continue
        if rec["op"] == "create_table":
            if rec["name"] not in db.relations():
                db._next_oid = rec["oid"]
                rel = db.create_table(rec["name"], rec["columns"])
                assert rel.oid == rec["oid"]
        elif rec["op"] == "drop_table":
            if rec["name"] in db.relations():
                db.drop_table(rec["name"])
        elif rec["op"] == "create_index":
            deferred_indexes.append(rec)
    live_rels = {rel.oid: rel for rel in db.relations().values()}
    deferred_indexes = [ix for ix in deferred_indexes
                        if ix["table"] in db.relations()]

    # FPW coverage: which damaged pages can be repaired from the log.
    fpw_cover = {(entry[0], entry[1])
                 for _lsn, rec in replay
                 for entry in rec.get("fpw", ())}

    # ------------------------------------------------------------------
    # load page files (repairing torn pages from FPW where possible)
    # ------------------------------------------------------------------
    pages: Dict[Tuple[int, int], _PageState] = {}
    repaired: List[Tuple[int, int]] = []
    for oid in live_rels:
        path = store.path_for(pagefmt.KIND_HEAP, oid)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as f:
            page_no = 0
            while True:
                frame = f.read(store.page_bytes)
                if not frame:
                    break
                try:
                    decoded = pagefmt.decode_page(
                        frame, path=path, expect_kind=pagefmt.KIND_HEAP)
                except DataCorruptionError as exc:
                    if (oid, page_no) in fpw_cover:
                        # Torn write; REDO will reinstall the full
                        # image logged for this page.
                        pages[(oid, page_no)] = _PageState([], -1,
                                                           dirty=True)
                        repaired.append((oid, page_no))
                        page_no += 1
                        continue
                    raise DataCorruptionError(
                        f"{exc} (no full-page image available)",
                        path=exc.path, kind=exc.kind, page_no=page_no,
                        reason=exc.reason) from None
                if decoded is not None:
                    _, _, disk_no, page_lsn, payload = decoded
                    pages[(oid, disk_no)] = _PageState(
                        [e if e is not None else None
                         for e in payload["s"]], page_lsn)
                page_no += 1

    # ------------------------------------------------------------------
    # CLOG + old-serxid base state
    # ------------------------------------------------------------------
    statuses: Dict[int, XidStatus] = {}
    parents: Dict[int, int] = {}
    for _page_no, _lsn2, payload in store.read_pages(pagefmt.KIND_CLOG, 0):
        base = payload["b"]
        for off, ch in payload["st"].items():
            statuses[base + int(off)] = CHAR_STATUS[ch]
        for off, parent in payload["par"].items():
            parents[base + int(off)] = parent
    db.clog.restore(statuses, parents)
    old_serxid = {int(xid): (entry[0], entry[1])
                  for xid, entry in doc.get("old_serxid", {}).items()}
    for _page_no, _lsn2, payload in store.read_pages(pagefmt.KIND_SERXID,
                                                     0):
        for xid, seq, eo in payload["e"]:
            old_serxid.setdefault(int(xid), (seq, eo))

    # ------------------------------------------------------------------
    # REDO pass
    # ------------------------------------------------------------------
    ckpt_prepared = {p["gid"]: p for p in doc.get("prepared", ())}
    pending_prepared: Dict[str, Dict[str, Any]] = {}
    max_xid = doc["next_xid"] - 1
    commit_counter = doc["commit_counter"]
    commits_replayed = 0

    def register_xids(rec: Dict[str, Any]) -> None:
        nonlocal max_xid
        for xid in [*rec.get("c", ()), *rec.get("ab", ())]:
            max_xid = max(max_xid, xid)
        for child, parent in rec.get("par", {}).items():
            db.clog.register(int(child), parent)

    def apply_physical(rec: Dict[str, Any], lsn: int) -> None:
        touched: Set[Tuple[int, int]] = set()
        for oid, page_no, payload in rec.get("fpw", ()):
            key = (oid, page_no)
            if oid not in live_rels:
                continue
            state = pages.get(key)
            if state is None:
                state = pages[key] = _PageState([], -1, dirty=True)
            if state.lsn < lsn or key in touched:
                state.install_image(payload["s"], lsn)
                touched.add(key)
        for entry in rec.get("redo", ()):
            oid, page_no = entry[1], entry[2]
            if oid not in live_rels:
                continue
            key = (oid, page_no)
            state = pages.get(key)
            if state is None:
                state = pages[key] = _PageState([], -1, dirty=True)
            if not (state.lsn < lsn or key in touched):
                continue  # pageLSN rule: already on the page image
            touched.add(key)
            if entry[0] == "i":
                _op, _oid, _pg, slot, data, xmin, cmin = entry
                state.place(slot, [data, xmin, cmin, 0, 0, 0, None])
            else:
                _op, _oid, _pg, slot, xmax, cmax, nxt = entry
                state.stamp(slot, xmax, cmax, nxt,
                            path=store.path_for(pagefmt.KIND_HEAP, oid))
        for key in touched:
            pages[key].lsn = lsn

    for lsn, rec in replay:
        kind = rec.get("t")
        if kind == "commit":
            register_xids(rec)
            db.clog.set_committed(rec["c"])
            db.clog.set_aborted(rec["ab"])
            apply_physical(rec, lsn)
            if rec.get("seq"):
                commit_counter = max(commit_counter, int(rec["seq"]))
            commits_replayed += 1
        elif kind == "prepare":
            # A prepare that landed mid-checkpoint is also in the doc's
            # prepared set; the replayed frame (identical content) wins
            # so the survivor is not restored twice.
            ckpt_prepared.pop(rec["gid"], None)
            register_xids(rec)
            for xid in rec["c"]:
                if xid not in db.clog.entries():
                    db.clog.register(xid)
            db.clog.set_aborted(rec["ab"])
            apply_physical(rec, lsn)
            pending_prepared[rec["gid"]] = rec
        elif kind == "cprep":
            info = pending_prepared.pop(rec["gid"], None)
            if info is None:
                info = ckpt_prepared.pop(rec["gid"], None)
            if info is not None:
                db.clog.set_committed(info["c"])
            if rec.get("seq"):
                commit_counter = max(commit_counter, int(rec["seq"]))
            max_xid = max(max_xid, rec["xid"])
            commits_replayed += 1
        elif kind == "aprep":
            pending_prepared.pop(rec["gid"], None)
            ckpt_prepared.pop(rec["gid"], None)
            db.clog.set_aborted(rec["ab"])
            max_xid = max(max_xid, rec["xid"])

    # ------------------------------------------------------------------
    # install heaps
    # ------------------------------------------------------------------
    survivors = list(ckpt_prepared.values()) + list(
        pending_prepared.values())
    survivor_live: Set[int] = set()
    survivor_aborted: Set[int] = set()
    for info in survivors:
        survivor_live.update(info["c"])
        survivor_aborted.update(info["ab"])

    seen_xids: Set[int] = set()
    for oid, rel in sorted(live_rels.items()):
        page_nos = [p for (o, p) in pages if o == oid]
        heap_pages: List[HeapPage] = []
        for page_no in range(max(page_nos) + 1 if page_nos else 0):
            state = pages.get((oid, page_no))
            if state is None:
                heap_pages.append(HeapPage(page_no,
                                           db.config.heap_page_size))
                continue
            slots = []
            for slot, entry in enumerate(state.entries):
                if entry is None:
                    slots.append(None)
                    continue
                tup = pagefmt.decode_tuple(entry, page_no, slot)
                seen_xids.add(tup.xmin)
                if tup.xmax:
                    seen_xids.add(tup.xmax)
                slots.append(tup)
            heap_pages.append(HeapPage.restore(
                page_no, db.config.heap_page_size, slots,
                state.free_from_image))
        rel.heap.attach_pages(heap_pages)

    # ------------------------------------------------------------------
    # xid accounting: unknown xids belong to transactions that crashed
    # mid-flight -- mark them aborted (the MVCC stand-in for UNDO),
    # except prepared survivors, which stay in progress.
    # ------------------------------------------------------------------
    known = db.clog.entries()
    max_xid = max([max_xid, *known.keys(), *seen_xids], default=max_xid)
    for xid in sorted(seen_xids):
        if xid not in known and xid not in survivor_live:
            db.clog.register(xid)
            db.clog.set_aborted([xid])
    for xid in sorted(survivor_live):
        if xid not in known:
            db.clog.register(xid)
    db.clog.set_aborted(sorted(survivor_aborted))
    db.xids = XidAllocator(max_xid + 1)

    # ------------------------------------------------------------------
    # prepared-2PC survivors (section 7.1)
    # ------------------------------------------------------------------
    for info in sorted(survivors, key=lambda p: p["xid"]):
        snap = Snapshot(xmin=info["snap"]["xmin"],
                        xmax=info["snap"]["xmax"],
                        xip=frozenset(info["snap"]["xip"]))
        iso = IsolationLevel(info["iso"])
        txn = Transaction(info["xid"], iso, snap,
                          read_only=bool(info.get("ro")))
        txn.status = TxnStatus.PREPARED
        txn.gid = info["gid"]
        txn.merged_subs = [x for x in info["c"] if x != txn.xid]
        txn.all_xids = set(info["c"]) | set(info["ab"])
        txn.wal_changes = [tuple(ch) for ch in info["ch"]]
        txn.persisted_siread = {tuples_deep(t) for t in info["siread"]}
        db._active[txn.xid] = txn
        db._prepared[txn.gid] = txn
        db.lockmgr.acquire(txn.xid, ("xid", txn.xid),  # repro: noqa(LOCK002) -- re-taken for recovered prepared transactions; released when they resolve
                           LockMode.EXCLUSIVE)
        if iso.uses_ssi:
            sx = db.ssi.register_recovered_prepared(txn.xid, snap)
            db.ssi.lockmgr.restore_recovered(sx, txn.persisted_siread)
            txn.sxact = sx

    db.ssi.restore_recovered_state(commit_counter, old_serxid)

    # ------------------------------------------------------------------
    # rebuild indexes from the recovered heaps (forced oids), newest
    # catalog state only -- a dropped table's indexes died with it
    # ------------------------------------------------------------------
    next_oid = doc["next_oid"]
    # Dedupe by oid: an index created mid-checkpoint appears both in the
    # doc and as a replayed DDL record.
    unique_indexes: Dict[int, Dict[str, Any]] = {}
    for ix in deferred_indexes:
        unique_indexes.setdefault(ix["oid"], ix)
    for ix in sorted(unique_indexes.values(), key=lambda i: i["oid"]):
        db._next_oid = ix["oid"]
        index = db.create_index(ix["table"], ix["column"], name=ix["name"],
                                unique=bool(ix["unique"]),
                                using=ix.get("using", "btree"))
        assert index.oid == ix["oid"]
        next_oid = max(next_oid, ix["oid"] + 1)
    for t in doc["tables"]:
        next_oid = max(next_oid, t["oid"] + 1)
    for _lsn3, rec in replay:
        if rec.get("t") == "ddl":
            next_oid = max(next_oid, rec["oid"] + 1)
    db._next_oid = next_oid

    # Orphan page files (tables dropped after their last writeback).
    for oid in store.heap_oids():
        if oid not in live_rels:
            store.drop_heap(oid)

    # Replay-modified pages become dirty so the end-of-recovery
    # checkpoint writes them back.
    for (oid, page_no), state in sorted(pages.items()):
        if state.dirty:
            mgr.mark_dirty((pagefmt.KIND_HEAP, oid, page_no),
                           max(state.lsn, 0))

    db.statscat.bump_epoch()
    return {
        "redo_lsn": redo_lsn,
        "wal_end": valid_end,
        "torn_tail_bytes": torn_bytes,
        "frames_replayed": len(replay),
        "commits_replayed": commits_replayed,
        "repaired_pages": sorted(repaired),
        "prepared_recovered": sorted(db.prepared_gids()),
    }
