"""repro.shard: partitioning, routing, commit paths, distributed SSI
certification, snapshot coherence, 2PC recovery, and replica routing."""

import threading
from functools import partial

import pytest

from repro.config import DurabilityConfig, EngineConfig
from repro.engine import Eq, IsolationLevel
from repro.engine.coordinator import Coordinator, Decision, DecisionLog
from repro.engine.predicate import And, Ge, Gt, Le
from repro.errors import (FeatureNotSupportedError, ReadOnlyTransactionError,
                          SerializationFailure)
from repro.shard.database import ShardedDatabase
from repro.shard.partition import Partitioner, shard_for
from repro.shard.threaded import (ThreadedShardedDatabase,
                                  ThreadedShardedSession)
from repro.storage.durable import SimulatedCrash, open_database

SER = IsolationLevel.SERIALIZABLE
RR = IsolationLevel.REPEATABLE_READ


def make_db(n_shards=2, **engine_kw):
    sdb = ShardedDatabase(
        n_shards, [EngineConfig(**engine_kw) for _ in range(n_shards)])
    sdb.create_table("accounts", ["id", "bal"], key="id")
    sdb.load_rows("accounts", [{"id": i, "bal": 100} for i in range(8)])
    return sdb


def two_keys_on_distinct_shards(n_shards=2):
    a = next(i for i in range(64) if shard_for(i, n_shards) == 0)
    b = next(i for i in range(64) if shard_for(i, n_shards) == 1)
    return a, b


class TestPartitioner:
    def test_shard_for_is_deterministic_and_in_range(self):
        for key in [0, 1, "x", (1, 2), 999999]:
            s = shard_for(key, 4)
            assert s == shard_for(key, 4)
            assert 0 <= s < 4

    def test_single_shard_short_circuit(self):
        assert shard_for("anything", 1) == 0

    def test_key_equality_routes_to_one_shard(self):
        p = Partitioner(4)
        p.add_table("t", "id")
        shards = p.shards_for_predicate("t", Eq("id", 7))
        assert shards == [shard_for(7, 4)]

    def test_range_predicate_fans_out(self):
        p = Partitioner(4)
        p.add_table("t", "id")
        assert p.shards_for_predicate(
            "t", And(Ge("id", 0), Le("id", 9))) == [0, 1, 2, 3]
        assert p.shards_for_predicate("t", None) == [0, 1, 2, 3]

    def test_keyless_table_pins_to_shard_zero(self):
        p = Partitioner(4)
        p.add_table("ctl", None)
        assert p.shards_for_predicate("ctl", None) == [0]
        assert p.shard_for_row("ctl", {"k": 1}) == 0

    def test_missing_partition_key_raises(self):
        p = Partitioner(2)
        p.add_table("t", "id")
        with pytest.raises(ValueError):
            p.shard_for_row("t", {"other": 1})

    def test_shard_key_extractor_changes_affinity(self):
        p = Partitioner(4)
        # district key embeds its warehouse as key // 100.
        p.add_table("district", "dk", shard_key=lambda k: k // 100)
        p.add_table("warehouse", "w", shard_key=lambda k: k)
        for w in range(1, 9):
            home = p.shards_for_predicate("warehouse", Eq("w", w))
            for d in range(10):
                assert p.shard_for_row(
                    "district", {"dk": w * 100 + d}) == home[0]


class TestRoutingAndDML:
    def test_fanout_select_merges_all_shards(self):
        sdb = make_db()
        sess = sdb.session(SER)
        rows = sess.run_transaction(lambda s: s.select("accounts"))
        assert sorted(r["id"] for r in rows) == list(range(8))
        # Data really is split: no shard holds everything.
        per_shard = [len(db.session().select("accounts"))
                     for db in sdb.shards]
        assert all(0 < n < 8 for n in per_shard)
        assert sum(per_shard) == 8

    def test_key_equality_opens_one_branch(self):
        sdb = make_db()
        sess = sdb.session(SER)
        sess.begin(SER)
        sess.select("accounts", Eq("id", 3))
        assert len(sess._branches) == 1
        assert list(sess._branches) == [shard_for(3, 2)]
        sess.commit()

    def test_autocommit_statement(self):
        sdb = make_db()
        sess = sdb.session(SER)
        assert not sess.in_transaction()
        sess.update("accounts", Eq("id", 1), {"bal": 42})
        assert not sess.in_transaction()
        rows = sdb.session(SER).select("accounts", Eq("id", 1))
        assert rows[0]["bal"] == 42

    def test_cross_shard_aggregates_merge(self):
        sdb = make_db()
        sess = sdb.session(SER)
        sess.update("accounts", Eq("id", 0), {"bal": 20})
        got = sess.scan_aggregate(
            "accounts",
            [("COUNT", "id"), ("SUM", "bal"), ("MIN", "bal"),
             ("MAX", "bal"), ("AVG", "bal")])
        assert got[0] == 8
        assert got[1] == 20 + 7 * 100
        assert got[2] == 20 and got[3] == 100
        assert got[4] == pytest.approx((20 + 700) / 8)

    def test_update_and_delete_counts_sum_across_shards(self):
        sdb = make_db()
        sess = sdb.session(SER)
        assert sess.update("accounts", Gt("id", -1), {"bal": 1}) == 8
        assert sess.delete("accounts", Gt("id", 3)) == 4
        assert len(sess.select("accounts")) == 4

    def test_savepoints_unsupported(self):
        sdb = make_db()
        sess = sdb.session(SER)
        with pytest.raises(FeatureNotSupportedError):
            sess.savepoint("sp1")


@pytest.fixture(params=["base", "threaded"])
def router(request):
    """(sharded database, session factory) for each router that commits
    through the coordinator's driver."""
    sdb = make_db()
    if request.param == "base":
        yield sdb, sdb.session
        return
    tdb = ThreadedShardedDatabase(sdb)
    yield sdb, tdb.session
    tdb.close()


def spy_on_branch_calls(sdb, monkeypatch):
    """Record (engine method, thread name) for every prepare and
    commit-prepared call on the shards."""
    seen = []
    for db in sdb.shards:
        for method in ("prepare_txn", "commit_prepared"):
            def spy(*args, _real=getattr(db, method), _method=method):
                seen.append((_method, threading.current_thread().name))
                return _real(*args)
            monkeypatch.setattr(db, method, spy)
    return seen


class TestCommitPaths:
    """The decision log per commit path, on both routers."""

    def test_single_shard_commit_skips_coordinator(self, router):
        sdb, open_session = router
        sess = open_session(SER)
        gid = sess.begin(SER)
        sess.update("accounts", Eq("id", 2), {"bal": 7})
        assert sess.commit()
        assert len(sdb.coordinator.log) == 0
        assert sdb.certifier.state_of(gid) == "committed"

    def test_empty_commit_skips_coordinator(self, router):
        sdb, open_session = router
        sess = open_session(SER)
        gid = sess.begin(SER)
        assert sess.commit()
        assert len(sdb.coordinator.log) == 0
        assert sdb.certifier.state_of(gid) == "committed"

    def test_one_writer_multi_shard_commit_skips_decision_log(self, router):
        a, b = two_keys_on_distinct_shards()
        sdb, open_session = router
        sess = open_session(SER)
        sess.begin(SER)
        sess.select("accounts", Eq("id", a))   # reader branch
        sess.update("accounts", Eq("id", b), {"bal": 5})
        assert len(sess._branches) == 2
        assert sess.commit()
        # One-phase: no coordinator decision, nothing left prepared.
        assert len(sdb.coordinator.log) == 0
        assert all(db.prepared_gids() == [] for db in sdb.shards)
        rows = open_session(SER).select("accounts", Eq("id", b))
        assert rows[0]["bal"] == 5

    def test_two_writer_commit_logs_decision_and_applies_both(
            self, router, monkeypatch):
        a, b = two_keys_on_distinct_shards()
        sdb, open_session = router
        sess = open_session(SER)
        gid = sess.begin(SER)
        sess.update("accounts", Eq("id", a), {"bal": 1})
        sess.update("accounts", Eq("id", b), {"bal": 2})
        seen = spy_on_branch_calls(sdb, monkeypatch)
        assert sess.commit()
        assert list(sdb.coordinator.log) == [(gid, Decision.COMMITTED)]
        assert all(db.prepared_gids() == [] for db in sdb.shards)
        check = open_session(SER)
        assert check.select("accounts", Eq("id", a))[0]["bal"] == 1
        assert check.select("accounts", Eq("id", b))[0]["bal"] == 2
        # The threaded router fans prepares and commits out to the
        # per-shard workers; the base router runs them in turn.
        assert sorted(m for m, _t in seen) == [
            "commit_prepared", "commit_prepared",
            "prepare_txn", "prepare_txn"]
        threads = {t for _m, t in seen}
        if isinstance(sess, ThreadedShardedSession):
            assert threads == {"shard-worker-0", "shard-worker-1"}
        else:
            assert threads == {threading.current_thread().name}

    def test_two_writer_prepare_failure_logs_abort(self, router):
        """A branch whose PREPARE fails its local SSI check aborts the
        whole transaction: the other branch's prepare is rolled back
        and ABORTED is logged."""
        x, y = [k for k in range(8) if shard_for(k, 2) == 0][:2]
        _a, b = two_keys_on_distinct_shards()
        sdb, open_session = router
        pivot, t_in, t_out = (open_session(SER) for _ in range(3))
        gid = pivot.begin(SER)
        t_in.begin(SER)
        t_out.begin(SER)
        pivot.select("accounts", Eq("id", x))
        t_in.select("accounts", Eq("id", y))
        pivot.update("accounts", Eq("id", y), {"bal": 1})   # t_in -> pivot
        pivot.update("accounts", Eq("id", b), {"bal": 1})   # second writer
        t_out.update("accounts", Eq("id", x), {"bal": 2})   # pivot -> t_out
        assert t_out.commit()     # t_out commits first: pivot is doomed
        with pytest.raises(SerializationFailure):
            pivot.commit()
        t_in.rollback()
        assert list(sdb.coordinator.log) == [(gid, Decision.ABORTED)]
        assert all(db.prepared_gids() == [] for db in sdb.shards)
        assert open_session(SER).select(
            "accounts", Eq("id", b))[0]["bal"] == 100

    def test_rollback_leaves_no_branch_state(self, router):
        a, b = two_keys_on_distinct_shards()
        sdb, open_session = router
        sess = open_session(SER)
        gid = sess.begin(SER)
        sess.update("accounts", Eq("id", a), {"bal": 0})
        sess.update("accounts", Eq("id", b), {"bal": 0})
        sess.rollback()
        assert sdb.certifier.state_of(gid) == "aborted"
        rows = open_session(SER).select("accounts")
        assert all(r["bal"] == 100 for r in rows)


class TestDistributedSSI:
    def _write_skew(self, sdb, iso=SER):
        """Cross-shard write skew: each side reads both accounts and
        debits its own; each shard sees only one rw edge."""
        a, b = two_keys_on_distinct_shards()
        s1, s2 = sdb.session(iso), sdb.session(iso)
        s1.begin(iso)
        s2.begin(iso)
        for s in (s1, s2):
            s.select("accounts", Eq("id", a))
            s.select("accounts", Eq("id", b))
        s1.update("accounts", Eq("id", a), {"bal": -90})
        s2.update("accounts", Eq("id", b), {"bal": -90})
        return s1, s2

    def test_cross_shard_write_skew_aborts_under_serializable(self):
        sdb = make_db(record_history=True)
        s1, s2 = self._write_skew(sdb)
        assert s1.commit()
        with pytest.raises(SerializationFailure):
            s2.commit()
        assert sdb.check_serializable().serializable

    def test_cross_shard_write_skew_commits_under_snapshot_isolation(self):
        sdb = make_db(record_history=True)
        s1, s2 = self._write_skew(sdb, iso=RR)
        assert s1.commit()
        assert s2.commit()   # the anomaly plain SI+2PC admits
        check = sdb.check_serializable()
        assert not check.serializable
        assert check.cycle

    def test_late_branch_after_multi_shard_commit_restarts(self):
        a, b = two_keys_on_distinct_shards()
        sdb = make_db()
        reader = sdb.session(SER)
        reader.begin(SER)
        reader.select("accounts", Eq("id", a))     # snapshot shard 0 only
        writer = sdb.session(SER)
        writer.begin(SER)
        writer.update("accounts", Eq("id", a), {"bal": 10})
        writer.update("accounts", Eq("id", b), {"bal": 10})
        assert writer.commit()                      # footprint {0, 1}
        with pytest.raises(SerializationFailure) as exc:
            reader.select("accounts", Eq("id", b))  # late shard-1 branch
        assert "snapshot" in str(exc.value)

    def test_certifier_stats_expose_epoch_and_states(self):
        sdb = make_db()
        sess = sdb.session(SER)
        sess.run_transaction(
            lambda s: s.update("accounts", Gt("id", -1), {"bal": 3}))
        stats = sdb.certifier.stats()
        assert stats["txns"] >= 1
        assert stats["multi_commit_epoch"] >= 1
        assert stats.get("state_committed", 0) >= 1


class TestThreadedRouter:
    def test_concurrent_transfers_preserve_total(self):
        sdb = make_db(n_shards=2)
        tdb = ThreadedShardedDatabase(sdb)
        n_clients, moves = 4, 8
        start = threading.Barrier(n_clients)
        errors = []

        def run(idx):
            sess = tdb.session(SER)
            start.wait()
            for i in range(moves):
                src, dst = (idx + i) % 8, (idx + i + 1) % 8

                def transfer(s):
                    bal = s.select("accounts", Eq("id", src))[0]["bal"]
                    s.update("accounts", Eq("id", src), {"bal": bal - 1})
                    peer = s.select("accounts", Eq("id", dst))[0]["bal"]
                    s.update("accounts", Eq("id", dst), {"bal": peer + 1})

                try:
                    sess.run_transaction(transfer)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        sess = tdb.session(SER)
        total = sess.run_transaction(
            lambda s: s.scan_aggregate("accounts", [("SUM", "bal")]))
        assert total[0] == 8 * 100
        tdb.close()
        sdb.close()


class TestDecisionLogRecovery:
    def test_decision_log_replays_from_disk(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        log = DecisionLog(path)
        log.append(("g1", Decision.COMMITTED))
        log.append(("g2", Decision.ABORTED))
        reopened = DecisionLog(path)
        assert list(reopened) == [("g1", Decision.COMMITTED),
                                  ("g2", Decision.ABORTED)]

    def test_recover_resolves_in_doubt_branches(self, tmp_path):
        """Presumed abort across a coordinator restart: a prepared
        branch with a logged COMMIT decision commits; a prepared branch
        whose decision never made the log rolls back."""
        path = str(tmp_path / "decisions.jsonl")
        sdb = ShardedDatabase(
            2, [EngineConfig(), EngineConfig()], coordinator_log=path)
        sdb.create_table("accounts", ["id", "bal"], key="id")
        sdb.load_rows("accounts", [{"id": i, "bal": 100} for i in range(4)])

        # Crash window 1: decision logged, branches still prepared.
        s0 = sdb.shards[0].session()
        s0.begin(SER)
        s0.update("accounts", None, {"bal": 1})
        s0.prepare_transaction("gA:s0")
        sdb.coordinator.log.append(("gA", Decision.COMMITTED))
        # Crash window 2: prepared, no decision record.
        s1 = sdb.shards[1].session()
        s1.begin(SER)
        s1.update("accounts", None, {"bal": 2})
        s1.prepare_transaction("gB:s1")

        # "Restart": a fresh sharded deployment over the same engines
        # and the same on-disk decision log.
        sdb2 = ShardedDatabase.__new__(ShardedDatabase)
        sdb2.n_shards = 2
        sdb2.shards = sdb.shards
        from repro.engine.coordinator import Coordinator
        sdb2.coordinator = Coordinator(
            {"s0": sdb.shards[0], "s1": sdb.shards[1]}, log_path=path)
        actions = sdb2.coordinator.recover()
        assert actions == {"gA:s0": "committed", "gB:s1": "rolled back"}
        assert all(db.prepared_gids() == [] for db in sdb.shards)
        rows0 = sdb.shards[0].session().select("accounts")
        assert all(r["bal"] == 1 for r in rows0)       # gA applied
        rows1 = sdb.shards[1].session().select("accounts")
        assert all(r["bal"] == 100 for r in rows1)     # gB rolled back


class PowerCut:
    """Kills a commit after its ``at``-th step. Steps are the driver's
    engine calls plus the certification and the decision append; once
    power is cut every further step raises SimulatedCrash, as it would
    in a dead process."""

    def __init__(self, at: int) -> None:
        self.at = at
        self.steps = []

    def step(self, label, fn, *args, **kw):
        if len(self.steps) == self.at:
            raise SimulatedCrash("call", label, "after the power cut")
        result = fn(*args, **kw)
        self.steps.append(label)
        if len(self.steps) == self.at:
            raise SimulatedCrash("call", label)
        return result

    def arm(self, monkeypatch, sdb, sess) -> None:
        run_on, certifier = sess._run_on, sdb.certifier
        log = sdb.coordinator.log

        def engine_call(shard, fn, *args, **kw):
            name = getattr(fn, "func", fn).__name__
            return self.step(f"{name}@s{shard}", run_on, shard, fn,
                             *args, **kw)

        monkeypatch.setattr(sess, "_run_on", engine_call)
        monkeypatch.setattr(
            certifier, "register_multi_commit",
            partial(self.step, "certify", certifier.register_multi_commit))
        monkeypatch.setattr(log, "append",
                            partial(self.step, "decide", log.append))


class TestCommitKillPoints:
    """Crash a durable sharded commit at every step of the driver, then
    reopen every shard and resolve in-doubt branches from the decision
    log: rows are all-or-nothing across shards, and committed exactly
    when the commit point was reached."""

    TWO_WRITERS = ["prepare_transaction@s0", "prepare_transaction@s1",
                   "certify", "decide",
                   "commit_prepared@s0", "commit_prepared@s1"]
    ONE_WRITER = ["prepare_transaction@s0", "certify", "commit@s1",
                  "commit_prepared@s0"]

    @staticmethod
    def cfg(data_dir):
        return EngineConfig.durable(
            str(data_dir), durability=DurabilityConfig(fsync=False))

    def run(self, tmp_path, monkeypatch, at, *, write_a):
        a, b = two_keys_on_distinct_shards()
        dirs = [tmp_path / f"s{i}" for i in range(2)]
        log_path = str(tmp_path / "decisions.jsonl")
        sdb = ShardedDatabase(2, [self.cfg(d) for d in dirs],
                              coordinator_log=log_path)
        sdb.create_table("accounts", ["id", "bal"], key="id")
        sdb.load_rows("accounts", [{"id": i, "bal": 100} for i in range(8)])
        sess = sdb.session(SER)
        sess.begin(SER)
        if write_a:
            sess.update("accounts", Eq("id", a), {"bal": 1})
        else:
            sess.select("accounts", Eq("id", a))
        sess.update("accounts", Eq("id", b), {"bal": 2})
        cut = PowerCut(at)
        cut.arm(monkeypatch, sdb, sess)
        if at is None:
            assert sess.commit()
            return cut.steps, None, None
        with pytest.raises(SimulatedCrash):
            sess.commit()
        monkeypatch.undo()
        del sdb, sess  # kill: no clean shutdown
        shards = [open_database(str(d), self.cfg(d)) for d in dirs]
        coordinator = Coordinator(
            {ShardedDatabase.shard_name(i): db
             for i, db in enumerate(shards)}, log_path=log_path)
        actions = coordinator.recover()
        assert all(db.prepared_gids() == [] for db in shards)
        bals = (shards[0].session().select("accounts", Eq("id", a))[0]["bal"],
                shards[1].session().select("accounts", Eq("id", b))[0]["bal"])
        for db in shards:
            db.close()
        return cut.steps, bals, set(actions.values())

    def test_steps_of_each_path(self, tmp_path, monkeypatch):
        steps, _, _ = self.run(tmp_path / "two", monkeypatch, None,
                               write_a=True)
        assert steps == self.TWO_WRITERS
        steps, _, _ = self.run(tmp_path / "one", monkeypatch, None,
                               write_a=False)
        assert steps == self.ONE_WRITER

    @pytest.mark.parametrize("at", range(1, len(TWO_WRITERS) + 1),
                             ids=TWO_WRITERS)
    def test_two_writer_crash(self, tmp_path, monkeypatch, at):
        steps, bals, actions = self.run(tmp_path, monkeypatch, at,
                                        write_a=True)
        assert steps == self.TWO_WRITERS[:at]
        if "decide" in steps:
            assert bals == (1, 2)
            assert actions <= {"committed"}
        else:
            assert bals == (100, 100)
            assert actions == {"rolled back"}

    @pytest.mark.parametrize("at", range(1, len(ONE_WRITER) + 1),
                             ids=ONE_WRITER)
    def test_one_writer_crash(self, tmp_path, monkeypatch, at):
        """The writer's commit record is the commit point; a prepared
        reader left behind rolls back."""
        steps, bals, actions = self.run(tmp_path, monkeypatch, at,
                                        write_a=False)
        assert steps == self.ONE_WRITER[:at]
        assert bals == ((100, 2) if "commit@s1" in steps else (100, 100))
        assert actions <= {"rolled back"}


class TestDeferrableRouting:
    def make(self):
        sdb = make_db()
        sdb.attach_replicas()
        # The base copies hold the loaded rows and are safe points (no
        # serializable txn is active); refreshing applies nothing new.
        sdb.refresh_replicas()
        return sdb

    def test_deferrable_reads_route_to_replicas(self):
        sdb = self.make()
        sess = sdb.session(SER)
        sess.begin(SER, read_only=True, deferrable=True)
        rows = sess.select("accounts")
        assert sorted(r["id"] for r in rows) == list(range(8))
        assert sess._branches == {}       # no master branch ever opened
        assert sess.commit()

    def test_deferrable_rejects_writes(self):
        sdb = self.make()
        sess = sdb.session(SER)
        sess.begin(SER, read_only=True, deferrable=True)
        with pytest.raises(ReadOnlyTransactionError):
            sess.update("accounts", Eq("id", 1), {"bal": 0})

    def test_deferrable_requires_serializable_read_only(self):
        sdb = self.make()
        with pytest.raises(FeatureNotSupportedError):
            sdb.session(SER).begin(SER, deferrable=True)
        with pytest.raises(FeatureNotSupportedError):
            sdb.session(SER).begin(RR, read_only=True, deferrable=True)

    def test_threaded_router_attaches_under_shard_latches(self,
                                                           monkeypatch):
        from repro.engine.database import Database
        from repro.engine.latches import RANK_ENGINE, holds_rank
        latched = []
        attach = Database.attach_replica

        def spy(db, replica):
            latched.append(holds_rank(RANK_ENGINE))
            return attach(db, replica)

        monkeypatch.setattr(Database, "attach_replica", spy)
        tdb = ThreadedShardedDatabase(make_db())
        try:
            tdb.attach_replicas()
            assert latched == [True, True]
            sess = tdb.session(SER)
            sess.begin(SER, read_only=True, deferrable=True)
            rows = sess.select("accounts")
            assert sorted(r["id"] for r in rows) == list(range(8))
            assert sess.commit()
        finally:
            tdb.close()

    def test_deferrable_needs_attached_replicas(self):
        sdb = make_db()
        with pytest.raises(FeatureNotSupportedError):
            sdb.session(SER).begin(SER, read_only=True, deferrable=True)
