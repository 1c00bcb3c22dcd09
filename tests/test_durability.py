"""Unit tests for the durability layer (ISSUE 9 tentpole).

Page frames, the physical WAL, the dirty-page table, checkpoints
(including CLOG/serxid segment generations), clean-shutdown round
trips, the torn-page corruption property (satellite: checksums turn
arbitrary byte corruption into a structured DataCorruptionError), the
durability-off purity guarantee, the WAL-before-data sanitizer, and
the server stop() drain regression (an acked commit must never be
lost by a graceful stop).
"""

import os
import threading
import time

import pytest

from repro.config import DurabilityConfig, EngineConfig
from repro.engine import Database, Eq, IsolationLevel
from repro.errors import DataCorruptionError, UniqueViolationError
from repro.server import ReproServer, ServerConfig, connect
from repro.storage.durable import open_database, pagefmt
from repro.storage.durable.bufferpool import DirtyPageTable
from repro.storage.durable.walfile import WALFile, encode_frame, read_wal
from repro.storage.durable.io import DurableIO
from repro.analysis.sanitize.durable_check import DurableSanitizer
from repro.analysis.sanitize.violations import SanitizerViolation


def cfg_for(tmp_path, **kw) -> EngineConfig:
    kw.setdefault("fsync", False)
    return EngineConfig.durable(str(tmp_path),
                                durability=DurabilityConfig(**kw))


def small_db(tmp_path, **kw) -> Database:
    db = Database(cfg_for(tmp_path, **kw))
    db.create_table("t", ["k", "v"], key="k")
    s = db.session()
    for k in range(6):
        s.insert("t", {"k": k, "v": k * 10})
    return db


# ---------------------------------------------------------------------------
# page frames
# ---------------------------------------------------------------------------
class TestPageFormat:
    def test_round_trip(self):
        payload = {"s": [[{"k": 1}, 5, 0, 0, 0, 0, None], None]}
        frame = pagefmt.encode_page(pagefmt.KIND_HEAP, 7, 3, 1234,
                                    payload, 1024)
        assert len(frame) == 1024
        kind, oid, page_no, lsn, decoded = pagefmt.decode_page(
            frame, expect_kind=pagefmt.KIND_HEAP)
        assert (kind, oid, page_no, lsn) == (pagefmt.KIND_HEAP, 7, 3, 1234)
        assert decoded == payload

    def test_zero_frame_is_absent_page(self):
        assert pagefmt.decode_page(b"\x00" * 512) is None

    def test_any_flipped_byte_fails_checksum(self):
        frame = bytearray(pagefmt.encode_page(
            pagefmt.KIND_HEAP, 1, 0, 10, {"s": [None]}, 256))
        # Flip one byte in every checksummed region: header fields
        # (oid, page_lsn) and the payload. (The reserved header short
        # is zeroed in the CRC and legitimately ignored.)
        for offset in (8, 20, pagefmt.HEADER.size + 2):
            bad = bytearray(frame)
            bad[offset] ^= 0x40
            with pytest.raises(DataCorruptionError) as err:
                pagefmt.decode_page(bytes(bad), path="x.pg",
                                    expect_kind=pagefmt.KIND_HEAP)
            assert err.value.reason in ("checksum", "magic", "version",
                                        "short")
            assert err.value.path == "x.pg"

    def test_wrong_kind_rejected(self):
        frame = pagefmt.encode_page(pagefmt.KIND_CLOG, 0, 0, 0,
                                    {"b": 0}, 256)
        with pytest.raises(DataCorruptionError) as err:
            pagefmt.decode_page(frame, expect_kind=pagefmt.KIND_HEAP)
        assert err.value.reason == "magic"

    def test_oversized_payload_rejected(self):
        with pytest.raises(DataCorruptionError) as err:
            pagefmt.encode_page(pagefmt.KIND_HEAP, 1, 0, 0,
                                {"s": ["x" * 600]}, 256)
        assert err.value.reason == "overflow"


# ---------------------------------------------------------------------------
# the physical WAL
# ---------------------------------------------------------------------------
class TestWALFile:
    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WALFile(path, DurableIO(fsync=False))
        lsns = [wal.append({"t": "commit", "xid": i}) for i in range(5)]
        wal.flush()
        assert wal.durable_lsn == wal.end_lsn
        frames, valid_end = read_wal(path)
        assert valid_end == wal.end_lsn
        assert [rec["xid"] for _lsn, rec in frames] == list(range(5))
        assert [lsn for lsn, _rec in frames] == lsns
        wal.close()

    def test_torn_tail_is_clean_stop(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WALFile(path, DurableIO(fsync=False))
        wal.append({"t": "commit", "xid": 1})
        cut = wal.append({"t": "commit", "xid": 2})
        wal.append({"t": "commit", "xid": 3})
        wal.flush()
        wal.close()
        # Tear mid-way through the second frame.
        with open(path, "r+b") as f:
            f.truncate(cut + 7)
        frames, valid_end = read_wal(path)
        assert [rec["xid"] for _lsn, rec in frames] == [1]
        assert valid_end == cut

    def test_corrupt_frame_stops_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WALFile(path, DurableIO(fsync=False))
        wal.append({"t": "commit", "xid": 1})
        cut = wal.append({"t": "commit", "xid": 2})
        wal.flush()
        wal.close()
        blob = bytearray(open(path, "rb").read())
        blob[cut + 10] ^= 0xFF  # inside the second frame's body
        open(path, "wb").write(bytes(blob))
        frames, valid_end = read_wal(path)
        assert [rec["xid"] for _lsn, rec in frames] == [1]
        assert valid_end == cut

    def test_flush_upto_is_incremental(self, tmp_path):
        wal = WALFile(str(tmp_path / "wal.log"), DurableIO(fsync=False))
        first = wal.append({"a": 1})
        wal.append({"a": 2})
        wal.flush(first)
        assert wal.durable_lsn >= first
        flushes = wal.flushes
        wal.flush(first)   # already durable: no extra fsync
        assert wal.flushes == flushes
        wal.close()

    @staticmethod
    def concurrent_commits(tmp_path, group_commit, threads=8, commits=25):
        """``threads`` committers, each appending a record and flushing
        through its end ``commits`` times; a modeled 1 ms fsync keeps
        flushes overlapping."""
        wal = WALFile(str(tmp_path / "wal.log"),
                      DurableIO(fsync=False, flush_latency=0.001),
                      group_commit=group_commit)

        def committer(i):
            for j in range(commits):
                record = {"t": "commit", "xid": i * commits + j}
                lsn = wal.append(record)
                wal.flush(lsn + len(encode_frame(record)))

        workers = [threading.Thread(target=committer, args=(i,))
                   for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert wal.durable_lsn <= wal.end_lsn
        wal.close()
        return wal

    def test_group_commit_off_fsyncs_every_commit(self, tmp_path):
        wal = self.concurrent_commits(tmp_path, group_commit=False)
        assert wal.flushes == wal.records == 200
        assert wal.piggybacked == 0

    def test_group_commit_on_batches(self, tmp_path):
        wal = self.concurrent_commits(tmp_path, group_commit=True)
        assert wal.records == 200
        assert wal.flushes < 200
        assert wal.piggybacked > 0


# ---------------------------------------------------------------------------
# dirty-page table
# ---------------------------------------------------------------------------
class TestDirtyPageTable:
    def test_eviction_writes_back_and_keeps_bound(self):
        written = []
        pool = DirtyPageTable(2, lambda key, lsn: written.append((key, lsn)))
        pool.mark_dirty(("h", 1, 0), 10)
        pool.mark_dirty(("h", 1, 1), 20)
        assert not written
        pool.mark_dirty(("h", 1, 2), 30)   # over capacity: evict one
        assert len(pool) == 2
        assert written and pool.evictions == len(written)

    def test_redirty_advances_to_latest_lsn(self):
        # The in-memory page holds *all* changes, so writeback must
        # flush WAL through the newest record touching it -- the entry
        # tracks the max, which becomes the written page's pageLSN.
        pool = DirtyPageTable(8, lambda key, lsn: None)
        pool.mark_dirty(("h", 1, 0), 10)
        pool.mark_dirty(("h", 1, 0), 99)
        pool.mark_dirty(("h", 1, 0), 50)
        assert pool.rec_lsn(("h", 1, 0)) == 99

    def test_flush_all_empties(self):
        written = []
        pool = DirtyPageTable(8, lambda key, lsn: written.append(key))
        for page_no in range(5):
            pool.mark_dirty(("h", 1, page_no), page_no)
        pool.flush_all()
        assert len(pool) == 0
        assert sorted(written) == [("h", 1, p) for p in range(5)]

    def test_flush_all_keeps_pages_dirtied_mid_flush(self):
        # A checkpoint's writebacks release the engine latch around WAL
        # fsyncs, so a concurrent backend can commit mid-flush. The
        # callback below plays that backend: while page 1 is being
        # written it dirties a brand-new page, re-dirties page 0 (whose
        # writeback already completed), and re-dirties page 1 itself.
        # None of those may be wiped by flush_all -- they are not on
        # disk.
        pool = None
        written = []

        def writeback(key, lsn):
            written.append((key, lsn))
            if key == ("h", 1, 1) and len(written) == 2:
                pool.mark_dirty(("h", 1, 9), 99)   # new page
                pool.mark_dirty(("h", 1, 0), 99)   # already flushed
                pool.mark_dirty(("h", 1, 1), 99)   # mid-own-writeback

        pool = DirtyPageTable(8, writeback)
        pool.mark_dirty(("h", 1, 0), 10)
        pool.mark_dirty(("h", 1, 1), 20)
        pool.flush_all()
        assert pool.entries() == {("h", 1, 9): 99, ("h", 1, 0): 99,
                                  ("h", 1, 1): 99}
        assert written == [(("h", 1, 0), 10), (("h", 1, 1), 20)]
        # The survivors drain normally on the next flush.
        pool.flush_all()
        assert len(pool) == 0


# ---------------------------------------------------------------------------
# clean shutdown / reopen round trips
# ---------------------------------------------------------------------------
class TestCleanRoundTrip:
    def test_rows_indexes_and_ddl_survive(self, tmp_path):
        db = small_db(tmp_path)
        db.create_index("t", "v", unique=True)
        db.create_table("gone", ["a"])
        db.drop_table("gone")
        s = db.session()
        s.update("t", Eq("k", 3), {"v": 77})
        s.delete("t", Eq("k", 5))
        db.close()
        rec = open_database(str(tmp_path), cfg_for(tmp_path))
        s2 = rec.session()
        assert s2.select("t", Eq("k", 3)) == [{"k": 3, "v": 77}]
        assert s2.select("t", Eq("k", 5)) == []
        assert len(s2.select("t")) == 5
        assert "gone" not in rec.relations()
        # The recovered unique index still enforces uniqueness.
        with pytest.raises(UniqueViolationError):
            s2.insert("t", {"k": 9, "v": 77})
        rec.close()

    def test_fresh_directory_is_fresh_database(self, tmp_path):
        db = open_database(str(tmp_path / "new"),
                           cfg_for(tmp_path / "new"))
        db.create_table("t", ["k"], key="k")
        db.session().insert("t", {"k": 1})
        db.close()
        rec = open_database(str(tmp_path / "new"),
                            cfg_for(tmp_path / "new"))
        assert rec.session().select("t") == [{"k": 1}]
        rec.close()

    def test_auto_checkpoint_triggers_on_wal_volume(self, tmp_path):
        db = small_db(tmp_path, checkpoint_wal_bytes=500)
        before = db.durability.checkpoints
        s = db.session()
        for k in range(20, 40):
            s.insert("t", {"k": k, "v": 0})
        assert db.durability.checkpoints > before
        db.close()


# ---------------------------------------------------------------------------
# torn-page corruption property (satellite 3)
# ---------------------------------------------------------------------------
class TestCommitFrames:
    """The physical WAL carries only what recovery needs: replicas are
    fed by the master while attached, not from wal.log."""

    def test_commit_frames_carry_no_logical_changes(self, tmp_path):
        db = small_db(tmp_path)
        s = db.session()
        s.update("t", Eq("k", 1), {"v": 11})
        p = db.session()
        p.begin(IsolationLevel.SERIALIZABLE)
        p.insert("t", {"k": 50, "v": 0})
        p.prepare_transaction("g1")
        db.commit_prepared("g1")
        db.close()
        frames, _ = read_wal(str(tmp_path / "wal.log"))
        kinds = [rec["t"] for _lsn, rec in frames]
        assert {"commit", "prepare", "cprep"} <= set(kinds)
        for _lsn, rec in frames:
            if rec["t"] in ("commit", "cprep"):
                assert "ch" not in rec and "m" not in rec, rec
        # A recovered prepared transaction still ships its changes at
        # COMMIT PREPARED, so its prepare frame keeps them.
        (prepare,) = [rec for _lsn, rec in frames if rec["t"] == "prepare"]
        assert prepare["ch"] == [["insert", "t", None, {"k": 50, "v": 0}]]

    def test_commit_frames_with_logical_changes_still_recover(self,
                                                              tmp_path):
        """A wal.log written by an older version, whose commit frames
        still carry ``ch`` and ``m``, opens to the rows its redo holds:
        recovery ignores both keys. The injected ``ch`` names a row no
        commit wrote, so reading it would show up in the table or in a
        replica's base copy."""
        from repro.replication import Replica
        from repro.storage.durable.walfile import encode_frame
        db = small_db(tmp_path)
        db.session().delete("t", Eq("k", 2))
        expected = sorted(r["k"] for r in db.session().select("t"))
        del db  # kill: the only checkpoint is the initial one (redo 0)
        wal_path = str(tmp_path / "wal.log")
        frames, _ = read_wal(wal_path)
        with open(wal_path, "wb") as fh:
            for _lsn, rec in frames:
                if rec["t"] == "commit":
                    rec["ch"] = [["insert", "t", None, {"k": -1, "v": -1}]]
                    rec["m"] = 1
                fh.write(encode_frame(rec))
        rec_db = open_database(str(tmp_path), cfg_for(tmp_path))
        assert sorted(r["k"] for r in rec_db.session().select("t")) == \
            expected
        replica = Replica(rec_db)
        assert sorted(r["k"] for r in replica.query("t")) == expected
        rec_db.close()


class TestCorruptionDetection:
    def corrupt_and_open(self, tmp_path, offset):
        db = small_db(tmp_path)
        oid = db.relation("t").oid
        db.close()
        path = os.path.join(str(tmp_path), "pages", f"{oid}.pg")
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0x55]))
        return open_database(str(tmp_path), cfg_for(tmp_path))

    @pytest.mark.parametrize("offset", [
        8,                          # header (oid field)
        pagefmt.HEADER.size + 4,    # payload
        40,                         # payload start region
    ])
    def test_corrupt_heap_page_is_structured_error(self, tmp_path, offset):
        with pytest.raises(DataCorruptionError) as err:
            self.corrupt_and_open(tmp_path, offset)
        assert err.value.reason in ("checksum", "magic")
        assert err.value.kind == "heap"
        assert err.value.path and err.value.path.endswith(".pg")
        assert err.value.sqlstate == "XX001"

    def test_corrupt_clog_segment_detected(self, tmp_path):
        db = small_db(tmp_path)
        db.close()
        pages_dir = os.path.join(str(tmp_path), "pages")
        name = None
        for entry in os.listdir(pages_dir):
            if entry.startswith("clog."):
                name = entry
        assert name is not None
        with open(os.path.join(pages_dir, name), "r+b") as f:
            f.seek(pagefmt.HEADER.size + 1)
            f.write(b"\xde")
        with pytest.raises(DataCorruptionError):
            open_database(str(tmp_path), cfg_for(tmp_path))


# ---------------------------------------------------------------------------
# checkpoint segment generations
# ---------------------------------------------------------------------------
class TestSegmentGenerations:
    def test_checkpoint_rotates_and_reaps_segments(self, tmp_path):
        db = small_db(tmp_path)
        pages_dir = os.path.join(str(tmp_path), "pages")
        first = dict(db.durability.store.special_names)
        db.durability.checkpoint()
        second = dict(db.durability.store.special_names)
        assert first["clog"] != second["clog"]
        files = set(os.listdir(pages_dir))
        assert second["clog"] in files
        assert first["clog"] not in files, "old generation not reaped"
        db.close()
        third = dict(db.durability.store.special_names)
        files = set(os.listdir(pages_dir))
        clogs = {f for f in files if f.startswith("clog.")}
        assert clogs == {third["clog"]}
        rec = open_database(str(tmp_path), cfg_for(tmp_path))
        assert len(rec.session().select("t")) == 6
        rec.close()

    def test_dense_clog_segment_splits_across_pages(self, tmp_path):
        """A full CLOG segment (clog_segment_xids entries, one xid per
        autocommit) encodes to more JSON than one frame holds; the
        checkpoint must spill the segment across physical pages and
        recovery must merge them back -- long-running workloads hit
        this, not the anomaly-sized tests."""
        db = Database(cfg_for(tmp_path, checkpoint_wal_bytes=1 << 30))
        seg = db.config.durability.clog_segment_xids
        db.create_table("t", ["k"], key="k")
        s = db.session()
        for k in range(seg + 50):    # > one dense segment of xids
            s.begin(IsolationLevel.REPEATABLE_READ)
            s.insert("t", {"k": k})
            if k % 3 == 2:
                s.rollback()
            else:
                s.commit()
        db.checkpoint()
        n_rows = len(db.session().select("t"))
        n_xids = len(db.clog.entries())   # after the select's own xid
        clog_file = os.path.join(
            str(tmp_path), "pages", db.durability.store.special_names["clog"])
        n_pages = os.path.getsize(clog_file) // db.config.durability.page_bytes
        assert n_pages >= 2, "dense segment did not spill to a second page"
        db.close()
        rec = open_database(str(tmp_path), cfg_for(tmp_path))
        assert len(rec.clog.entries()) == n_xids
        assert len(rec.session().select("t")) == n_rows
        rec.close()


# ---------------------------------------------------------------------------
# checkpoint vs concurrent commits (review regressions)
# ---------------------------------------------------------------------------
class TestCheckpointConcurrency:
    def test_commit_landing_mid_checkpoint_survives_crash(self, tmp_path):
        """The server's flush gate releases the engine latch around WAL
        fsyncs inside a checkpoint's writebacks, so a backend can commit
        mid-flush. Played here by a writeback hook that commits a row
        while the dirty-page flush is running: the checkpoint must
        neither wipe that page's dirty entry nor publish a redo_lsn past
        the commit's record, or a crash silently loses committed data."""
        db = small_db(tmp_path)
        mgr = db.durability
        orig = mgr.pool._writeback
        fired = []

        def writeback(key, lsn):
            orig(key, lsn)
            if not fired:
                # The commit's frame starts at the current WAL end.
                fired.append(mgr.wal.end_lsn)
                db.session().insert("t", {"k": 100, "v": 1})
                assert mgr.wal.end_lsn > fired[0]

        mgr.pool._writeback = writeback
        doc = mgr.checkpoint()
        assert fired, "writeback hook never ran: no dirty pages?"
        mgr.pool._writeback = orig
        commit_lsn = fired[0]
        assert doc["redo_lsn"] <= commit_lsn, \
            "redo_lsn past a commit that landed mid-checkpoint"
        del db  # kill without close: only the checkpoint + WAL survive
        rec = open_database(str(tmp_path), cfg_for(tmp_path))
        assert rec.session().select("t", Eq("k", 100)) == \
            [{"k": 100, "v": 1}]
        assert len(rec.session().select("t")) == 7
        rec.close()

    def test_auto_checkpoint_skips_while_one_in_flight(self, tmp_path):
        """maybe_auto_checkpoint runs under the engine latch; blocking
        on an in-flight checkpoint (which must reacquire that latch
        after its fsyncs) would deadlock, and proceeding would overlap
        generation switches. It must skip."""
        db = small_db(tmp_path)
        mgr = db.durability
        mgr.cfg.checkpoint_wal_bytes = 1
        mgr._wal_bytes_at_ckpt = -(10 ** 9)
        before = mgr.checkpoints
        assert mgr._ckpt_lock.acquire(blocking=False)
        try:
            mgr.maybe_auto_checkpoint()   # in flight elsewhere: skip
            assert mgr.checkpoints == before
        finally:
            mgr._ckpt_lock.release()
        mgr.maybe_auto_checkpoint()       # lock free again: fire
        assert mgr.checkpoints == before + 1
        mgr.cfg.checkpoint_wal_bytes = 0
        db.close()

    def test_crashed_generation_leftover_is_truncated(self, tmp_path):
        """A crash mid-checkpoint can leave an unpublished generation
        file under the very name the next checkpoint picks; its stale
        frames must not survive past the rewritten prefix (write_page
        opens existing files r+b)."""
        db = small_db(tmp_path)
        mgr = db.durability
        leftovers = mgr._next_segment_names()
        pages_dir = os.path.join(str(tmp_path), "pages")
        for name in leftovers.values():
            with open(os.path.join(pages_dir, name), "wb") as f:
                f.write(b"\xff" * (mgr.cfg.page_bytes * 4))
        db.close()   # shutdown checkpoint reuses exactly those names
        assert dict(mgr.store.special_names) == leftovers
        assert os.path.getsize(os.path.join(
            pages_dir, leftovers["clog"])) < mgr.cfg.page_bytes * 4
        rec = open_database(str(tmp_path), cfg_for(tmp_path))
        assert len(rec.session().select("t")) == 6
        rec.close()


# ---------------------------------------------------------------------------
# post-recovery housekeeping (review regressions)
# ---------------------------------------------------------------------------
class TestDurabilityHousekeeping:
    def test_recovery_restarts_async_flusher(self, tmp_path):
        kw = {"synchronous_commit": False, "commit_delay": 0.005}
        db = small_db(tmp_path, **kw)
        assert db.durability._flusher is not None
        db.close()
        rec = open_database(str(tmp_path), cfg_for(tmp_path, **kw))
        mgr = rec.durability
        assert mgr._flusher is not None and mgr._flusher.is_alive(), \
            "recovered async-commit database has no walwriter"
        rec.session().insert("t", {"k": 50, "v": 5})
        deadline = time.time() + 5
        while (mgr.wal.durable_lsn < mgr.wal.end_lsn
               and time.time() < deadline):
            time.sleep(0.005)
        assert mgr.wal.durable_lsn == mgr.wal.end_lsn, \
            "background flusher never persisted the acked commit"
        rec.close()

    def test_acked_commits_pruned_once_durable(self, tmp_path):
        db = small_db(tmp_path)   # synchronous_commit=True
        mgr = db.durability
        assert mgr.acked == {}, \
            "acked entries must be pruned once their WAL is durable"
        s = db.session()
        for k in range(20, 40):
            s.insert("t", {"k": k, "v": 0})
        assert mgr.acked == {}
        db.close()


# ---------------------------------------------------------------------------
# durability-off purity
# ---------------------------------------------------------------------------
class TestDurabilityOff:
    def test_default_config_has_no_durability_layer(self, tmp_path):
        db = Database(EngineConfig())
        assert db.durability is None
        db.create_table("t", ["k"], key="k")
        db.session().insert("t", {"k": 1})
        db.close()     # no-op
        db.checkpoint()
        assert os.listdir(str(tmp_path)) == []   # nothing ever written

    def test_disk_and_memory_engines_agree(self, tmp_path):
        mem = Database(EngineConfig())
        dur = Database(cfg_for(tmp_path))
        for db in (mem, dur):
            db.create_table("t", ["k", "v"], key="k")
            s = db.session()
            for k in range(8):
                s.insert("t", {"k": k, "v": k})
            s.begin(IsolationLevel.SERIALIZABLE)
            s.update("t", Eq("k", 2), {"v": 99})
            s.delete("t", Eq("k", 7))
            s.commit()
        assert (mem.session().select("t")
                == dur.session().select("t"))
        dur.close()


# ---------------------------------------------------------------------------
# the WAL-before-data sanitizer
# ---------------------------------------------------------------------------
class TestDurableSanitizer:
    def test_clean_engine_passes(self, tmp_path):
        db = small_db(tmp_path)
        DurableSanitizer(db).check()
        db.close()

    def test_in_memory_engine_is_noop(self):
        db = Database(EngineConfig())
        DurableSanitizer(db).check()

    def test_writeback_ahead_of_wal_flagged(self, tmp_path):
        db = small_db(tmp_path)
        mgr = db.durability
        mgr.store.written_lsns[(pagefmt.KIND_HEAP, 999, 0)] = (
            mgr.wal.durable_lsn + 10 ** 6)
        with pytest.raises(SanitizerViolation) as err:
            DurableSanitizer(db).check()
        assert err.value.invariant == "wal-before-data"
        db.durability = None   # neuter close-time re-checks
        del db

    def test_unflushed_ack_flagged(self, tmp_path):
        db = small_db(tmp_path)
        mgr = db.durability
        mgr.acked[12345] = mgr.wal.end_lsn + 10 ** 6
        with pytest.raises(SanitizerViolation) as err:
            DurableSanitizer(db).check()
        assert err.value.invariant == "ack-durable"
        db.durability = None
        del db

    def test_runner_wires_durable_sanitizer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        db = Database(cfg_for(tmp_path))
        db.create_table("t", ["k"], key="k")
        db.session().insert("t", {"k": 1})
        assert db.sanitizers is not None
        assert db.sanitizers.stats()["durable"] >= 1
        db.close()


# ---------------------------------------------------------------------------
# server stop() drains acked commits (satellite 4)
# ---------------------------------------------------------------------------
class TestServerStopDrain:
    def test_stop_never_loses_an_acked_commit(self, tmp_path):
        db = Database(cfg_for(tmp_path, synchronous_commit=False))
        server = ReproServer(db, ServerConfig(port=0)).start()
        try:
            with connect(server.address) as client:
                client.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
                client.sql("INSERT INTO t (k, v) VALUES (1, 10)")
                client.sql("INSERT INTO t (k, v) VALUES (2, 20)")
            mgr = db.durability
            assert mgr.acked, "async commits should be acknowledged"
        finally:
            leaks = server.stop()
        assert leaks == {"threads": [], "connections": []}
        mgr = db.durability
        assert mgr.wal.durable_lsn == mgr.wal.end_lsn, \
            "stop() returned with acked WAL frames still unflushed"
        # Kill (no close): the acked rows must already be recoverable.
        del db
        rec = open_database(str(tmp_path), cfg_for(tmp_path))
        rows = rec.session().select("t")
        assert sorted(r["k"] for r in rows) == [1, 2]
        rec.close()

    def test_synchronous_commit_durable_at_ack(self, tmp_path):
        db = Database(cfg_for(tmp_path))   # synchronous_commit=True
        server = ReproServer(db, ServerConfig(port=0)).start()
        try:
            with connect(server.address) as client:
                client.sql("CREATE TABLE t (k INT PRIMARY KEY)")
                client.sql("INSERT INTO t (k) VALUES (7)")
                mgr = db.durability
                assert mgr.wal.durable_lsn == mgr.wal.end_lsn
        finally:
            server.stop()
        del db
        rec = open_database(str(tmp_path), cfg_for(tmp_path))
        assert rec.session().select("t") == [{"k": 7}]
        rec.close()
