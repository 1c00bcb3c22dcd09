"""Streaming replication and safe snapshots on replicas (section 7.2)."""

import gc
import threading
import time
import weakref

import pytest

from repro.config import DurabilityConfig, EngineConfig
from repro.engine import Database, Eq, Func, IsolationLevel
from repro.errors import (FeatureNotSupportedError, RetryableError,
                          StatementTimeout)
from repro.replication import CommitRecord, Replica, ReplicaReadMode
from repro.storage.durable import open_database

SER = IsolationLevel.SERIALIZABLE


@pytest.fixture
def master():
    db = Database(EngineConfig())
    db.create_table("control", ["id", "batch"], key="id")
    db.create_table("receipts", ["rid", "batch", "amount"], key="rid")
    s = db.session()
    s.insert("control", {"id": 0, "batch": 1})
    return db


class TestLogShipping:
    def test_changes_replicate(self, master):
        replica = Replica(master)
        s = master.session()
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        s.update("control", Eq("id", 0), {"batch": 2})
        replica.catch_up()
        assert replica.query("receipts") == [
            {"rid": 1, "batch": 1, "amount": 5}]
        assert replica.query("control")[0]["batch"] == 2

    def test_deletes_replicate(self, master):
        replica = Replica(master)
        s = master.session()
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        s.delete("receipts", Eq("rid", 1))
        replica.catch_up()
        assert replica.query("receipts") == []

    def test_uncommitted_changes_do_not_replicate(self, master):
        replica = Replica(master)
        s = master.session()
        s.begin(SER)
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        replica.catch_up()
        assert replica.query("receipts") == []
        s.commit()
        replica.catch_up()
        assert len(replica.query("receipts")) == 1

    def test_aborted_changes_never_ship(self, master):
        replica = Replica(master)
        s = master.session()
        s.begin(SER)
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        s.rollback()
        replica.catch_up()
        assert replica.query("receipts") == []

    def test_incremental_catch_up(self, master):
        replica = Replica(master)
        s = master.session()
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        assert replica.catch_up() >= 1
        assert replica.catch_up() == 0
        s.insert("receipts", {"rid": 2, "batch": 1, "amount": 6})
        assert replica.catch_up() == 1


def commit_records_alive() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, CommitRecord))


class TestFeed:
    """The master builds commit records only for attached replicas,
    and holds those replicas weakly."""

    def test_no_commit_record_without_a_replica(self, master):
        before = commit_records_alive()
        s = master.session()
        for rid in range(500):
            s.insert("receipts", {"rid": rid, "batch": 1, "amount": rid})
        assert commit_records_alive() == before

    def test_dropped_replica_stops_being_fed(self, master):
        replica = Replica(master)
        s = master.session()
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        assert len(replica.feed) == 1
        ref = weakref.ref(replica)
        del replica
        gc.collect()
        assert ref() is None
        before = commit_records_alive()
        for rid in range(2, 50):
            s.insert("receipts", {"rid": rid, "batch": 1, "amount": rid})
        assert commit_records_alive() == before
        gauge = master.obs.metrics.gauge("replica.safe_snapshot_lag",
                                         replica="standby")
        assert gauge.read() == 0

    def test_attach_copies_committed_rows_only(self, master):
        """The base copy is one master snapshot; a transaction open at
        attach reaches the replica through the feed, once."""
        open_txn = master.session()
        open_txn.begin(SER)
        open_txn.insert("receipts", {"rid": 7, "batch": 1, "amount": 7})
        replica = Replica(master)
        assert replica.query("receipts") == []
        assert replica.query("control") == [{"id": 0, "batch": 1}]
        open_txn.commit()
        assert replica.catch_up() == 1
        assert replica.query("receipts") == [
            {"rid": 7, "batch": 1, "amount": 7}]


class TestKeylessTables:
    """Changes apply as each commit's net change over multisets of
    whole rows: on a table without a key, one change's new row can
    equal another change's old row."""

    def test_update_chain_does_not_diverge(self):
        from repro.sql import SQLSession
        db = Database(EngineConfig())
        sql = SQLSession(db.session())
        sql.execute("CREATE TABLE counters (v INT)")
        replica = Replica(db)
        sql.execute("INSERT INTO counters (v) VALUES (1), (2)")
        sql.execute("UPDATE counters SET v = v + 1")
        replica.catch_up()
        master_rows = sorted(r["v"] for r in db.session().select("counters"))
        assert master_rows == [2, 3]
        assert sorted(r["v"] for r in replica.query("counters")) == \
            master_rows

    def test_removes_exactly_the_copies_a_commit_removed(self):
        db = Database(EngineConfig())
        db.create_table("counters", ["v"])
        s = db.session()
        s.begin()
        s.insert("counters", {"v": 1})
        s.insert("counters", {"v": 1})
        s.commit()
        replica = Replica(db)
        first = []

        def first_match(row):
            # Matches only the first row version it is asked about (by
            # identity): updates one of two identical rows.
            if not first:
                first.append(row)
            return row is first[0]

        s.update("counters", Func(first_match), {"v": 2})
        replica.catch_up()
        assert sorted(r["v"] for r in s.select("counters")) == [1, 2]
        assert sorted(r["v"] for r in replica.query("counters")) == [1, 2]


class TestReplicaOfRecoveredDatabase:
    def test_replica_sees_rows_committed_before_the_checkpoint(self,
                                                              tmp_path):
        """Recovery replays only the frames past the checkpoint's
        redo_lsn, but a replica attached afterwards applies the commit
        stream from its first record, so that stream must cover the
        whole log -- including a prepared transaction whose PREPARE
        precedes the checkpoint and whose COMMIT PREPARED follows it."""
        def cfg():
            return EngineConfig.durable(
                str(tmp_path), durability=DurabilityConfig(fsync=False))

        db = Database(cfg())
        db.create_table("t", ["k", "v"], key="k")
        s = db.session()
        for k in range(5):
            s.insert("t", {"k": k, "v": k})
        p = db.session()
        p.begin(SER)
        p.insert("t", {"k": 8, "v": 8})
        p.prepare_transaction("pp")
        db.checkpoint()
        for k in range(5, 8):
            s.insert("t", {"k": k, "v": k})
        db.commit_prepared("pp")
        del db, s, p  # kill: no clean shutdown
        recovered = open_database(str(tmp_path), cfg())
        replica = Replica(recovered)
        replica.catch_up()
        assert sorted(r["k"] for r in replica.query("t")) == list(range(9))
        recovered.close()


class TestSafeSnapshotsOnReplica:
    def test_serializable_requires_safe_snapshot(self, master):
        # Attach while a read/write serializable transaction is open:
        # the base copy is then not a safe point.
        rw = master.session()
        rw.begin(SER)
        rw.select("control", Eq("id", 0))
        replica = Replica(master)
        with pytest.raises(FeatureNotSupportedError):
            replica.query("control", mode=ReplicaReadMode.LATEST_SAFE)
        rw.rollback()

    def test_quiescent_attach_is_a_safe_point(self, master):
        replica = Replica(master)
        assert replica.has_safe_snapshot
        assert replica.query("control", mode=ReplicaReadMode.LATEST_SAFE
                             ) == [{"id": 0, "batch": 1}]

    def test_safe_marker_enables_serializable_reads(self, master):
        replica = Replica(master)
        s = master.session()
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        replica.catch_up()
        # The autocommit insert ran with no other r/w serializable
        # transactions active, so its commit record carries the marker.
        assert replica.has_safe_snapshot
        rows = replica.query("receipts", mode=ReplicaReadMode.LATEST_SAFE)
        assert len(rows) == 1

    def test_unsafe_window_holds_back_safe_state(self, master):
        """While a r/w serializable transaction is open on the master,
        commits are not safe points; the safe state lags."""
        replica = Replica(master)
        s = master.session()
        s.insert("receipts", {"rid": 1, "batch": 1, "amount": 5})
        long_txn = master.session()
        long_txn.begin(SER)
        long_txn.select("control", Eq("id", 0))  # keep it active & r/w
        s2 = master.session()
        s2.insert("receipts", {"rid": 2, "batch": 1, "amount": 6})
        replica.catch_up()
        # Latest state has both rows; safe state is stale.
        assert len(replica.query("receipts")) == 2
        assert len(replica.query("receipts",
                                 mode=ReplicaReadMode.LATEST_SAFE)) == 1
        assert replica.safe_snapshot_lag >= 1
        long_txn.commit()
        s3 = master.session()
        s3.insert("receipts", {"rid": 3, "batch": 1, "amount": 7})
        replica.catch_up()
        assert len(replica.query("receipts",
                                 mode=ReplicaReadMode.LATEST_SAFE)) == 3

    def test_report_anomaly_prevented_on_safe_snapshot(self, master):
        """The section 7.2 scenario: the REPORT query runs on the
        standby. On the latest state it can expose the batch-processing
        anomaly; on the safe snapshot it cannot, because the safe state
        is a prefix of the apparent serial order."""
        replica = Replica(master)
        t2 = master.session()   # NEW-RECEIPT, still open
        t2.begin(SER)
        batch = t2.select("control", Eq("id", 0))[0]["batch"]
        t3 = master.session()   # CLOSE-BATCH
        t3.begin(SER)
        t3.update("control", Eq("id", 0), lambda r: {"batch": r["batch"] + 1})
        t3.commit()             # not a safe point: t2 still active
        replica.catch_up()
        # REPORT on the replica's LATEST state: sees batch closed and
        # batch-1 total = 0. Then t2's receipt lands in batch 1 ->
        # anomaly (the total changed after the report).
        latest_ctrl = replica.query("control")[0]["batch"]
        assert latest_ctrl == 2
        latest_total = sum(r["amount"] for r in replica.query(
            "receipts", Eq("batch", 1)))
        assert latest_total == 0
        t2.insert("receipts", {"rid": 1, "batch": batch, "amount": 10})
        t2.commit()  # allowed on the master: no dangerous structure
        #              without the REPORT transaction (section 3.3) --
        #              the replica read was invisible to the master.
        replica.catch_up()
        new_total = sum(r["amount"] for r in replica.query(
            "receipts", Eq("batch", 1)))
        assert new_total == 10  # the anomaly: report said 0, now 10
        # The safe snapshot never showed the closed batch with total 0:
        # safe points only exist where no r/w txn was active.
        safe_ctrl = replica.query("control",
                                  mode=ReplicaReadMode.LATEST_SAFE)
        safe_total = sum(r["amount"] for r in replica.query(
            "receipts", Eq("batch", 1),
            mode=ReplicaReadMode.LATEST_SAFE))
        assert (safe_ctrl[0]["batch"], safe_total) in ((1, 0), (2, 10))


class TestWaitSafeMode:
    """SERIALIZABLE READ ONLY DEFERRABLE on the standby: WAIT_SAFE
    waits (bounded) for a safe snapshot instead of failing fast."""

    def busy_master(self):
        """A master that never produced a safe point: a serializable
        r/w transaction has been active since before its first commit."""
        db = Database(EngineConfig())
        db.create_table("control", ["id", "batch"], key="id")
        hog = db.session()
        hog.begin(SER)
        hog.insert("control", {"id": 99, "batch": 0})
        s = db.session()
        s.insert("control", {"id": 0, "batch": 1})  # marker: unsafe
        return db, hog

    def test_wait_safe_reads_when_marker_exists(self, master):
        replica = Replica(master)
        rows = replica.query("control", mode=ReplicaReadMode.WAIT_SAFE)
        assert rows[0]["batch"] == 1

    def test_wait_safe_timeout_raises_retryable_57014(self):
        db, hog = self.busy_master()
        replica = Replica(db)
        with pytest.raises(StatementTimeout) as exc:
            replica.query("control", mode=ReplicaReadMode.WAIT_SAFE,
                          wait_timeout=0.05)
        assert exc.value.sqlstate == "57014"
        assert isinstance(exc.value, RetryableError)
        hog.rollback()

    def test_wait_absorbs_marker_appearing_mid_wait(self):
        db, hog = self.busy_master()
        replica = Replica(db)

        def finish():
            time.sleep(0.05)
            hog.commit()          # master quiesces
            db.session().insert("control", {"id": 1, "batch": 2})

        t = threading.Thread(target=finish)
        t.start()
        rows = replica.query("control", mode=ReplicaReadMode.WAIT_SAFE,
                             wait_timeout=5.0)
        t.join()
        assert {r["id"] for r in rows} >= {0, 99}

    def test_safe_snapshot_lag_gauge_tracks_staleness(self):
        db, hog = self.busy_master()
        replica = Replica(db, name="standby-1")
        gauge = db.obs.metrics.gauge("replica.safe_snapshot_lag",
                                     replica="standby-1")
        db.session().insert("control", {"id": 2, "batch": 0})  # unsafe
        replica.catch_up()
        assert gauge.read() == replica.safe_snapshot_lag > 0
        hog.commit()
        db.session().insert("control", {"id": 1, "batch": 2})
        replica.catch_up()
        assert replica.has_safe_snapshot
        assert gauge.read() == 0
