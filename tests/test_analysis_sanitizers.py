"""Runtime invariant sanitizers (repro.analysis.sanitize): each test
seeds one specific corruption and asserts the matching violation; a
clean engine must always pass."""

import pytest

from repro.analysis.sanitize import (HeapSanitizer, LockLeakSanitizer,
                                     SSISanitizer, SanitizerRunner,
                                     SanitizerViolation)
from repro.config import EngineConfig, SanitizerConfig
from repro.engine import Database, Eq, IsolationLevel
from repro.locks.modes import LockMode
from repro.mvcc.xid import INVALID_XID

SER = IsolationLevel.SERIALIZABLE


@pytest.fixture
def db():
    database = Database(EngineConfig())
    database.create_table("t", ["id", "v"], key="id")
    s = database.session()
    for i in range(6):
        s.insert("t", {"id": i, "v": 0})
    return database


def retained_reader(db):
    """Commit a serializable reader while another serializable txn is
    still active, so its sxact stays on the committed-retained list
    with its SIREAD locks (paper section 4.7)."""
    holdover, reader = db.session(), db.session()
    holdover.begin(SER)
    holdover.select("t", Eq("id", 0))
    reader.begin(SER)
    xid = reader.txn.xid
    reader.select("t")
    reader.commit()
    sx = db.ssi.sxact_for_xid(xid)
    assert sx is not None and sx.committed
    assert sx in db.ssi.committed_retained()
    return sx


def raises_invariant(check, invariant, sanitizer):
    with pytest.raises(SanitizerViolation) as exc_info:
        check()
    violation = exc_info.value
    assert violation.invariant == invariant
    assert violation.sanitizer == sanitizer
    assert str(violation).startswith(f"[{sanitizer}:{invariant}]")
    return violation


class TestCleanEngine:
    def test_all_sanitizers_pass(self, db):
        s1, s2 = db.session(), db.session()
        s1.begin(SER)
        s1.update("t", Eq("id", 0), {"v": 1})
        s2.begin(SER)
        s2.select("t")
        SSISanitizer(db).check()
        HeapSanitizer(db).check()
        LockLeakSanitizer(db).check()
        s1.commit()
        s2.commit()
        runner = SanitizerRunner(db)
        runner.check_now()
        assert runner.stats()["ssi"] == 1

    def test_violation_is_an_assertion_error(self):
        assert issubclass(SanitizerViolation, AssertionError)


class TestSSISanitizer:
    def test_siread_stale_holder(self, db):
        sx = retained_reader(db)
        sx.locks_released = True  # cleanup lied: locks are still there
        raises_invariant(lambda: SSISanitizer(db).check(),
                         "siread-stale-holder", "ssi")

    def test_siread_unknown_holder(self, db):
        sx = retained_reader(db)
        db.ssi._committed.remove(sx)  # leak the sxact past tracking
        raises_invariant(lambda: SSISanitizer(db).check(),
                         "siread-unknown-holder", "ssi")

    def test_per_txn_mode_skips_lock_table_sweep(self, db):
        sx = retained_reader(db)
        sx.locks_released = True
        SSISanitizer(db).check(sweep=False)  # cheap mode: no table scan

    def test_conflict_asymmetry(self, db):
        s1, s2 = db.session(), db.session()
        s1.begin(SER)
        s1.select("t", Eq("id", 0))
        s2.begin(SER)
        s2.select("t", Eq("id", 1))
        sx1 = db.ssi.sxact_for_xid(s1.txn.xid)
        sx2 = db.ssi.sxact_for_xid(s2.txn.xid)
        sx1.out_conflicts.add(sx2)  # one-sided edge
        raises_invariant(lambda: SSISanitizer(db).check(),
                         "conflict-asymmetry", "ssi")

    def test_conflict_dangling(self, db):
        s1, s2 = db.session(), db.session()
        s1.begin(SER)
        s1.select("t", Eq("id", 0))
        s2.begin(SER)
        aborted = db.ssi.sxact_for_xid(s2.txn.xid)
        s2.rollback()
        assert aborted.aborted
        sx1 = db.ssi.sxact_for_xid(s1.txn.xid)
        sx1.in_conflicts.add(aborted)  # abort should have unlinked this
        raises_invariant(lambda: SSISanitizer(db).check(),
                         "conflict-dangling", "ssi")

    def test_earliest_out_monotone(self, db):
        writer = retained_reader(db)
        s = db.session()
        s.begin(SER)
        reader = db.ssi.sxact_for_xid(s.txn.xid)
        reader.out_conflicts.add(writer)
        writer.in_conflicts.add(reader)
        assert reader.earliest_out_commit_seq > writer.cseq
        raises_invariant(lambda: SSISanitizer(db).check(),
                         "earliest-out-monotone", "ssi")

    def test_doom_without_info(self, db):
        s = db.session()
        s.begin(SER)
        sx = db.ssi.sxact_for_xid(s.txn.xid)
        sx.doomed = True
        assert sx.doom_info is None
        raises_invariant(lambda: SSISanitizer(db).check(),
                         "doom-without-info", "ssi")

    def test_lifecycle_finished_in_active_set(self, db):
        sx = retained_reader(db)
        db.ssi._active.add(sx)  # committed sxact back in the active set
        raises_invariant(lambda: SSISanitizer(db).check(),
                         "lifecycle-state", "ssi")

    def test_violation_carries_state_dump(self, db):
        sx = retained_reader(db)
        sx.locks_released = True
        violation = raises_invariant(lambda: SSISanitizer(db).check(),
                                     "siread-stale-holder", "ssi")
        assert "active transactions" in violation.dump
        assert "committed-retained" in violation.dump
        assert violation.render().count("\n") >= 2


class TestHeapSanitizer:
    def corrupt_tuple(self, db):
        heap = db.relation("t").heap
        return heap, next(heap.scan())

    def test_xmin_unstamped(self, db):
        _, tup = self.corrupt_tuple(db)
        tup.xmin = INVALID_XID
        raises_invariant(lambda: HeapSanitizer(db).check(),
                         "xmin-unstamped", "heap")

    def test_chain_without_deleter(self, db):
        _, tup = self.corrupt_tuple(db)
        tup.next_tid = tup.tid
        assert tup.xmax == INVALID_XID
        raises_invariant(lambda: HeapSanitizer(db).check(),
                         "chain-without-deleter", "heap")

    def test_hint_contradiction(self, db):
        _, tup = self.corrupt_tuple(db)
        tup.xmin_committed = True
        tup.xmin_aborted = True
        raises_invariant(lambda: HeapSanitizer(db).check(),
                         "hint-contradiction", "heap")

    def test_hint_clog_disagreement(self, db):
        _, tup = self.corrupt_tuple(db)
        assert db.clog.did_commit(tup.xmin)
        tup.xmin_committed = False
        tup.xmin_aborted = True  # hint contradicts the commit log
        violation = raises_invariant(lambda: HeapSanitizer(db).check(),
                                     "hint-clog-disagreement", "heap")
        assert violation.subject["hint"] == "xmin_aborted"

    def test_chain_cycle(self, db):
        _, tup = self.corrupt_tuple(db)
        tup.xmax = tup.xmin  # stamped deleter so the chain is "real"
        tup.next_tid = tup.tid
        raises_invariant(lambda: HeapSanitizer(db).check(),
                         "chain-cycle", "heap")

    def test_vismap_not_all_visible(self, db):
        heap, tup = self.corrupt_tuple(db)
        tup.xmax = tup.xmin  # committed deleter on the page
        heap.vismap.set_all_visible(tup.tid.page)
        raises_invariant(lambda: HeapSanitizer(db).check(),
                         "vismap-not-all-visible", "heap")

    def test_fsm_missing_page(self):
        config = EngineConfig()
        db = Database(config)
        db.create_table("big", ["id"], key="id")
        s = db.session()
        for i in range(2 * config.heap_page_size + 1):
            s.insert("big", {"id": i})
        heap = db.relation("big").heap
        assert heap.page_count >= 3
        HeapSanitizer(db).check()
        # Physically free a slot on a full non-tail page behind the
        # FSM's back: the page now has room no insert can find.
        page = next(heap.scan_pages())
        assert not page.has_room()
        page.remove(0)
        assert page.page_no not in heap.fsm_entries()
        raises_invariant(lambda: HeapSanitizer(db).check(),
                         "fsm-missing-page", "heap")


class TestLockLeakSanitizer:
    def test_lock_leak_at_txn_end(self, db):
        db.lockmgr.acquire(999, ("rel", 1), LockMode.SHARE)
        violation = raises_invariant(
            lambda: LockLeakSanitizer(db).check_txn_end(999),
            "lock-leak-txn-end", "locks")
        assert violation.subject["xid"] == 999

    def test_orphan_owner_sweep(self, db):
        db.lockmgr.acquire(999, ("rel", 1), LockMode.SHARE)
        raises_invariant(lambda: LockLeakSanitizer(db).check(),
                         "lock-orphan-owner", "locks")

    def test_other_txns_locks_are_not_leaks(self, db):
        s = db.session()
        s.begin(SER)
        s.update("t", Eq("id", 0), {"v": 9})  # holds real locks
        LockLeakSanitizer(db).check()
        LockLeakSanitizer(db).check_txn_end(999_999)
        s.commit()


class TestRunnerWiring:
    def test_sanitizers_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert Database(EngineConfig()).sanitizers is None

    def test_config_enables_runner(self):
        config = EngineConfig()
        config.sanitize = SanitizerConfig.all_on()
        assert Database(config).sanitizers is not None

    def test_env_flag_forces_runner(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Database(EngineConfig()).sanitizers is not None

    def test_commit_hook_catches_release_all_bypass(self, monkeypatch):
        config = EngineConfig()
        config.sanitize = SanitizerConfig.all_on()
        db = Database(config)
        db.create_table("t", ["id"], key="id")
        s = db.session()
        s.insert("t", {"id": 1})
        monkeypatch.setattr(db.lockmgr, "release_all", lambda owner: 0)
        s.begin(SER)
        s.insert("t", {"id": 2})
        with pytest.raises(SanitizerViolation) as exc_info:
            s.commit()
        assert exc_info.value.invariant == "lock-leak-txn-end"

    def test_sweep_interval_batches_heap_checks(self, db):
        db.config.sanitize = SanitizerConfig.all_on(sweep_interval=4)
        runner = SanitizerRunner(db)
        for _ in range(8):
            s = db.session()
            s.begin(SER)
            s.select("t", Eq("id", 0))
            s.commit()
            runner.on_txn_end(type("Txn", (), {"xid": 0})())
        stats = runner.stats()
        assert stats["sweeps"] == 2
        assert stats["heap"] == 2
        assert stats["ssi"] == 8
