"""The performance layer (hint bits, visibility map, FSM, SSI read
early exit) must change cost, never behaviour.

* Hint bits are only ever set to a status that agrees with the commit
  log, across commits, aborts, subtransactions and two-phase commit,
  so a hinted visibility verdict always equals the CLOG's.
* Visibility-map bits are set only by VACUUM, cleared by every write
  path, and scans over all-visible pages never surface dead tuples or
  rows invisible to old snapshots.
* The FSM places each insert where a linear probe would: the tail page
  if it has room, else the lowest page with a vacuumed slot.
* The SSI read early exit fires under a covering relation lock, charges
  the work the skipped lock acquisition would have, and leaves
  outcomes, abort causes and the SIREAD lock table unchanged -- with
  or without tracing, over all-visible pages or not.
"""

import random

import pytest

from repro.config import EngineConfig, ObsConfig
from repro.engine import Database, Eq, IsolationLevel
from repro.errors import AbortCause, SerializationFailure
from repro.mvcc.snapshot import Snapshot
from repro.mvcc.visibility import TxnView, tuple_visibility
from repro.storage.page import HeapPage
from repro.storage.tuple import TID, HeapTuple
from repro.storage.vismap import VisibilityMap

SER = IsolationLevel.SERIALIZABLE
RR = IsolationLevel.REPEATABLE_READ


def traced_config() -> EngineConfig:
    return EngineConfig(obs=ObsConfig(enabled=True))


def all_tuples(db):
    for rel in db.relations().values():
        for tup in rel.heap.scan():
            yield tup


def assert_hints_sound(db):
    """Every set hint bit agrees with the commit log."""
    clog = db.clog
    for tup in all_tuples(db):
        if tup.xmin_committed:
            assert clog.did_commit(tup.xmin)
        if tup.xmin_aborted:
            assert clog.did_abort(tup.xmin)
        if tup.xmax_committed:
            assert clog.did_commit(tup.xmax)
        if tup.xmax_aborted:
            assert clog.did_abort(tup.xmax)
        assert not (tup.xmin_committed and tup.xmin_aborted)
        assert not (tup.xmax_committed and tup.xmax_aborted)


# ----------------------------------------------------------------------
# __slots__ (no per-instance __dict__ on the hot structures)
# ----------------------------------------------------------------------
class TestSlots:
    @pytest.mark.parametrize("obj", [
        HeapTuple(tid=TID(0, 0), data={}, xmin=1, cmin=0),
        TID(0, 0),
        Snapshot(xmin=1, xmax=2),
        HeapPage(0, 8),
        VisibilityMap(),
    ], ids=lambda o: type(o).__name__)
    def test_no_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")
        # Frozen slotted dataclasses raise TypeError on some CPython
        # versions instead of AttributeError/FrozenInstanceError.
        with pytest.raises((AttributeError, TypeError)):
            obj.bogus_attribute = 1

    def test_sxact_and_target_are_slotted(self):
        from repro.ssi.sxact import SerializableXact
        from repro.ssi.targets import rel_target
        sx = SerializableXact(1, Snapshot(xmin=1, xmax=2), snapshot_seq=0)
        assert not hasattr(sx, "__dict__")
        # Targets are plain tuples: no per-instance dict by construction.
        assert not hasattr(rel_target(7), "__dict__")


# ----------------------------------------------------------------------
# hint bits
# ----------------------------------------------------------------------
class TestHintBits:
    def test_scan_sets_bits_that_agree_with_clog(self):
        db = Database(EngineConfig())
        db.create_table("t", ["k"])
        s = db.session()
        for k in range(5):
            s.insert("t", {"k": k})
        s.begin(RR)
        s.insert("t", {"k": 99})
        s.rollback()
        db.session().select("t")  # first scan sets xmin hints
        assert_hints_sound(db)
        hinted = [t for t in all_tuples(db)
                  if t.xmin_committed or t.xmin_aborted]
        assert len(hinted) == 6
        before = db.obs.metrics.counter("perf.hint_hits").value
        db.session().select("t")  # second scan answers from the hints
        assert db.obs.metrics.counter("perf.hint_hits").value > before

    def test_no_bit_set_for_in_progress_xid(self):
        db = Database(EngineConfig())
        db.create_table("t", ["k"])
        writer = db.session()
        writer.begin(RR)
        writer.insert("t", {"k": 1})
        db.session().select("t")  # concurrent scan: xmin in progress
        tup = next(all_tuples(db))
        assert not (tup.xmin_committed or tup.xmin_aborted)
        writer.commit()
        db.session().select("t")
        assert next(all_tuples(db)).xmin_committed

    def test_restamped_xmax_resets_hint(self):
        db = Database(EngineConfig())
        db.create_table("t", ["k", "v"])
        s = db.session()
        s.insert("t", {"k": 1, "v": 0})
        s.begin(RR)
        s.update("t", Eq("k", 1), {"v": 1})
        s.rollback()
        db.vacuum()  # hints the aborted deleter
        old = [t for t in all_tuples(db) if t.data["v"] == 0][0]
        assert old.xmax_aborted
        s.begin(RR)
        s.update("t", Eq("k", 1), {"v": 2})  # restamps xmax
        assert not old.xmax_aborted and not old.xmax_committed
        s.commit()
        assert_hints_sound(db)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_mix_sound_and_equivalent(self, seed):
        """Random commits/aborts/subxacts/2PC: bits stay sound, and the
        hinted verdict on every tuple equals the verdict on an unhinted
        copy (which must consult the CLOG), for snapshots old and new."""
        db = Database(EngineConfig())
        db.create_table("t", ["k", "v"], key="k")
        rng = random.Random(seed)
        sessions = [db.session() for _ in range(3)]
        snapshots = []
        for step in range(120):
            s = rng.choice(sessions)
            op = rng.random()
            try:
                if not s.in_transaction:
                    s.begin(rng.choice([RR, SER]))
                if op < 0.35:
                    s.insert("t", {"k": rng.randrange(60), "v": step})
                elif op < 0.55:
                    s.update("t", Eq("k", rng.randrange(60)), {"v": step})
                elif op < 0.65:
                    s.delete("t", Eq("k", rng.randrange(60)))
                elif op < 0.80:
                    s.savepoint("sp")
                    s.insert("t", {"k": rng.randrange(60, 90), "v": step})
                    if rng.random() < 0.5:
                        s.rollback_to_savepoint("sp")
                elif op < 0.9:
                    s.select("t")
                    snapshots.append(db.take_snapshot())
                else:
                    if rng.random() < 0.3:
                        s.prepare_transaction(f"g{step}")
                        if rng.random() < 0.5:
                            db.commit_prepared(f"g{step}")
                        else:
                            db.rollback_prepared(f"g{step}")
                    elif rng.random() < 0.5:
                        s.commit()
                    else:
                        s.rollback()
            except Exception:
                pass
            if rng.random() < 0.1:
                db.vacuum()
        for s in sessions:
            if s.in_transaction:
                try:
                    s.rollback()
                except Exception:
                    pass
        db.session().select("t")  # hint everything that is final
        assert_hints_sound(db)
        snapshots.append(db.take_snapshot())
        view = TxnView(xids=frozenset(), curcid=0)
        hinted = 0
        for tup in all_tuples(db):
            bare = HeapTuple(tid=tup.tid, data=tup.data, xmin=tup.xmin,
                             cmin=tup.cmin, xmax=tup.xmax, cmax=tup.cmax,
                             xmax_lock_only=tup.xmax_lock_only)
            hinted += tup.xmin_committed or tup.xmin_aborted
            for snap in snapshots:
                assert (tuple_visibility(tup, snap, view, db.clog)
                        == tuple_visibility(bare, snap, view, db.clog))
        assert hinted > 0


# ----------------------------------------------------------------------
# visibility map
# ----------------------------------------------------------------------
class TestVisibilityMap:
    def setup_db(self, rows=12, config=None):
        db = Database(config or EngineConfig())
        db.create_table("t", ["k", "v"])
        s = db.session()
        for k in range(rows):
            s.insert("t", {"k": k, "v": 0})
        db.vacuum()
        return db

    def vm(self, db):
        return db.relation("t").heap.vismap

    def test_vacuum_sets_bits_and_scan_skips(self):
        db = self.setup_db()
        heap = db.relation("t").heap
        assert len(self.vm(db)) == heap.page_count
        before = db.obs.metrics.counter("perf.vismap_skips").value
        rows = db.session().select("t")
        assert len(rows) == 12
        assert db.obs.metrics.counter("perf.vismap_skips").value > before

    def test_traced_scan_takes_the_all_visible_shortcut(self):
        """Tracing watches the scan path, it does not replace it: a
        traced sequential scan over a vacuumed table still skips the
        MVCC checks, and the tracer gets one read.page event per
        covered page, carrying the page's tuple count."""
        db = self.setup_db(rows=40, config=traced_config())
        heap = db.relation("t").heap
        skips = db.obs.metrics.counter("perf.vismap_skips")
        before = skips.value
        s = db.session()
        s.begin(SER)
        assert len(s.select("t")) == 40
        xid = s.txn.xid
        s.commit()
        assert skips.value - before == heap.page_count
        events = db.obs.trace_events(kind="read.page", xid=xid)
        assert len(events) == heap.page_count
        assert sum(e.data["tuples"] for e in events) == 40
        assert not db.obs.trace_events(kind="read.tuple", xid=xid)

    @pytest.mark.parametrize("write", ["insert", "update", "delete",
                                       "for_update"])
    def test_every_write_path_clears_the_bit(self, write):
        db = self.setup_db()
        s = db.session()
        s.begin(RR)
        if write == "insert":
            tid = s.insert("t", {"k": 99, "v": 0})
            touched = {tid.page}
        elif write == "update":
            s.update("t", Eq("k", 3), {"v": 1})
            touched = {t.tid.page for t in all_tuples(db)
                       if t.data["k"] == 3}
        elif write == "delete":
            s.delete("t", Eq("k", 3))
            touched = {t.tid.page for t in all_tuples(db)
                       if t.data["k"] == 3}
        else:
            rows = s.select_for_update("t", Eq("k", 3))
            assert rows
            touched = {t.tid.page for t in all_tuples(db)
                       if t.data["k"] == 3}
        assert touched
        for page_no in touched:
            assert not self.vm(db).is_all_visible(page_no)
        s.rollback()

    def test_old_snapshot_still_correct_after_vacuum(self):
        """A reader whose snapshot predates a newer insert: vacuum must
        not mark the newcomer's page all-visible while the old reader
        is active, so the reader keeps not seeing it."""
        db = self.setup_db()
        old = db.session()
        old.begin(RR)
        old.select("t")  # materialize the old snapshot
        s = db.session()
        s.insert("t", {"k": 100, "v": 7})
        db.vacuum()
        new_page = [t.tid.page for t in all_tuples(db)
                    if t.data["k"] == 100][0]
        assert not self.vm(db).is_all_visible(new_page)
        assert all(r["k"] != 100 for r in old.select("t"))
        old.commit()

    def test_dead_tuples_never_returned(self):
        db = self.setup_db()
        s = db.session()
        s.delete("t", Eq("k", 5))
        db.vacuum()
        rows = db.session().select("t")
        assert sorted(r["k"] for r in rows) == [k for k in range(12)
                                                if k != 5]
        # Pages are all-visible again and the fast path agrees.
        heap = db.relation("t").heap
        assert len(self.vm(db)) == heap.page_count

    def test_rewrite_starts_with_empty_vismap(self):
        db = self.setup_db()
        db.session().recluster_table("t")
        assert len(self.vm(db)) == 0
        assert len(db.session().select("t")) == 12


# ----------------------------------------------------------------------
# free-space map
# ----------------------------------------------------------------------
class TestFSM:
    @staticmethod
    def probe(heap) -> int:
        """Where a linear probe (the heap without an FSM) would put the
        next insert: the tail page if it has room, else the lowest page
        with room, else a new page."""
        pages = list(heap.scan_pages())
        if pages and pages[-1].has_room():
            return pages[-1].page_no
        for page in pages:
            if page.has_room():
                return page.page_no
        return len(pages)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_placement_identical_with_and_without_fsm(self, seed):
        db = Database(EngineConfig())
        db.create_table("t", ["k"])
        heap = db.relation("t").heap
        s = db.session()
        rng = random.Random(seed)
        live = set()
        reused = 0
        for step in range(300):
            op = rng.random()
            if op < 0.6 or not live:
                expected = self.probe(heap)
                tail = heap.page_count - 1
                tid = s.insert("t", {"k": step})
                assert tid.page == expected
                reused += tid.page < tail
                live.add(step)
            elif op < 0.9:
                k = rng.choice(sorted(live))
                s.delete("t", Eq("k", k))
                live.discard(k)
            else:
                db.vacuum()
        assert reused, "vacuous run: no insert reused a vacuumed page"
        db.vacuum()
        assert sorted(t.data["k"] for t in heap.scan()) == sorted(live)


# ----------------------------------------------------------------------
# SSI read early exit
# ----------------------------------------------------------------------
def siread_table(db):
    """Comparable view of the SIREAD lock table: (target, holder xid)."""
    out = set()
    for row in db.ssi.lockmgr.iter_locks():
        holder = row["holder"]
        out.add((row["target"],
                 holder.xid if holder is not None else None))
    return out


def write_skew(vacuum: bool, traced: bool):
    """The doctors write-skew, driven deterministically; returns
    (outcomes, abort causes, SIREAD table before commits, on-call
    doctors left)."""
    db = Database(traced_config() if traced else EngineConfig())
    db.create_table("doctors", ["name", "oncall"])
    s = db.session()
    s.insert("doctors", {"name": "alice", "oncall": True})
    s.insert("doctors", {"name": "bob", "oncall": True})
    if vacuum:
        db.vacuum()  # all-visible pages: the scan skips MVCC checks
    s1, s2 = db.session(), db.session()
    s1.begin(SER)
    s2.begin(SER)
    for sess, me in ((s1, "alice"), (s2, "bob")):
        if len(sess.select("doctors", Eq("oncall", True))) >= 2:
            sess.update("doctors", Eq("name", me), {"oncall": False})
    locks = siread_table(db)
    outcomes, causes = [], []
    for sess in (s1, s2):
        try:
            sess.commit()
            outcomes.append("commit")
            causes.append(None)
        except SerializationFailure as exc:
            outcomes.append("abort")
            causes.append(exc.cause)
    final = len(db.session().select("doctors", Eq("oncall", True)))
    return outcomes, causes, locks, final


class TestSSIFastPath:
    def test_write_skew_identical_with_fast_paths(self):
        """The all-visible shortcut and tracing change neither the
        verdict, the abort cause, nor the SIREAD footprint."""
        runs = [write_skew(vacuum, traced)
                for vacuum in (False, True) for traced in (False, True)]
        assert all(run == runs[0] for run in runs[1:])
        outcomes, causes, locks, final = runs[0]
        assert outcomes == ["commit", "abort"]
        assert causes == [None, AbortCause.DOOMED_AT_COMMIT]
        # Each reader holds exactly its relation lock: the scans took
        # no tuple or page locks under it.
        assert locks == {(("r", 1), 5), (("r", 1), 6)}
        assert final == 1  # the invariant held

    def test_fast_path_fires_under_covering_relation_lock(self):
        db = Database(EngineConfig())
        db.create_table("t", ["k"])
        s = db.session()
        for k in range(8):
            s.insert("t", {"k": k})
        db.vacuum()
        reader = db.session()
        reader.begin(SER)
        reader.select("t", Eq("k", -1))  # relation SIREAD lock
        # Clear the page's all-visible bit with a write, so the second
        # scan checks visibility per tuple under the covering lock.
        db.session().insert("t", {"k": 99})
        counter = db.obs.metrics.counter("perf.siread_fastpath_hits")
        lockmgr = db.ssi.lockmgr
        before, work_before = counter.value, lockmgr.work_units
        reader.select("t", Eq("k", -1))
        # The 8 old tuples are covered; k=99 is invisible (concurrent
        # creator) and goes through on_read_tuple for its rw-conflict.
        assert counter.value - before == 8
        # Each skipped acquisition is still charged its work unit, on
        # top of the one the relation-lock re-acquisition costs.
        assert lockmgr.work_units - work_before == 8 + 1
        reader.commit()

    def test_scripted_write_skew_outcome(self):
        db = Database(EngineConfig())
        db.create_table("acct", ["owner", "bal"], key="owner")
        s = db.session()
        s.insert("acct", {"owner": "x", "bal": 60})
        s.insert("acct", {"owner": "y", "bal": 60})
        db.vacuum()
        s1, s2 = db.session(), db.session()
        s1.begin(SER)
        s2.begin(SER)
        total1 = sum(r["bal"] for r in s1.select("acct"))
        total2 = sum(r["bal"] for r in s2.select("acct"))
        s1.update("acct", Eq("owner", "x"), {"bal": total1 - 100})
        s2.update("acct", Eq("owner", "y"), {"bal": total2 - 100})
        outcome = []
        for sess in (s1, s2):
            try:
                sess.commit()
                outcome.append("commit")
            except SerializationFailure as exc:
                outcome.append(exc.cause)
        rows = sorted((r["owner"], r["bal"])
                      for r in db.session().select("acct"))
        assert outcome == ["commit", AbortCause.DOOMED_AT_COMMIT]
        assert rows == [("x", 20), ("y", 60)]
