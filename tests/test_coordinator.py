"""The external two-phase-commit coordinator (section 7.1 footnote)."""

import pytest

from repro.config import EngineConfig
from repro.engine import Database, Eq, IsolationLevel
from repro.engine.coordinator import Coordinator, Decision, DecisionLog
from repro.errors import DataCorruptionError, SerializationFailure

SER = IsolationLevel.SERIALIZABLE


@pytest.fixture
def banks():
    east, west = Database(EngineConfig()), Database(EngineConfig())
    for db in (east, west):
        db.create_table("accounts", ["id", "balance"], key="id")
        s = db.session()
        s.insert("accounts", {"id": 1, "balance": 100})
    return {"east": east, "west": west}


@pytest.fixture
def coordinator(banks):
    return Coordinator(banks)


class TestAtomicCommit:
    def test_cross_database_transfer(self, coordinator, banks):
        dtx = coordinator.transaction()
        dtx.on("east").update("accounts", Eq("id", 1),
                              lambda r: {"balance": r["balance"] - 30})
        dtx.on("west").update("accounts", Eq("id", 1),
                              lambda r: {"balance": r["balance"] + 30})
        dtx.commit()
        assert banks["east"].session().select(
            "accounts", Eq("id", 1))[0]["balance"] == 70
        assert banks["west"].session().select(
            "accounts", Eq("id", 1))[0]["balance"] == 130
        assert coordinator.decision_for("dtx1") is Decision.COMMITTED

    def test_one_writer_commits_one_phase_without_a_decision(
            self, coordinator, banks):
        """With a single writer branch that branch's own commit record
        is the commit point: the reader branch is prepared and then
        committed, and the decision log stays empty."""
        dtx = coordinator.transaction()
        assert dtx.on("east").select("accounts", Eq("id", 1))
        dtx.on("west").update("accounts", Eq("id", 1), {"balance": 7})
        dtx.commit()
        assert len(coordinator.log) == 0
        assert banks["west"].session().select(
            "accounts", Eq("id", 1))[0]["balance"] == 7
        assert all(db.prepared_gids() == [] for db in banks.values())

    def test_rollback_affects_all_branches(self, coordinator, banks):
        dtx = coordinator.transaction()
        dtx.on("east").update("accounts", Eq("id", 1), {"balance": 0})
        dtx.on("west").update("accounts", Eq("id", 1), {"balance": 0})
        dtx.rollback()
        for db in banks.values():
            assert db.session().select(
                "accounts", Eq("id", 1))[0]["balance"] == 100

    def test_prepare_failure_aborts_everything(self, coordinator, banks):
        """An SSI pre-commit failure on one branch must abort the whole
        distributed transaction -- including branches already
        prepared."""
        east = banks["east"]
        # Build a dangerous structure on east so its PREPARE fails.
        a, b = east.session(), east.session()
        a.begin(SER)
        b.begin(SER)
        a.select("accounts", Eq("id", 1))

        dtx = coordinator.transaction()
        dtx.on("west").update("accounts", Eq("id", 1), {"balance": 55})
        victim = dtx.on("east")
        victim.select("accounts", Eq("id", 1))
        # Make `victim` the pivot: in-edge from a, out-edge to b's
        # committed update.
        b.update("accounts", Eq("id", 1), {"balance": 99})
        b.commit()
        victim_failed = False
        try:
            victim.update("accounts", Eq("id", 1), {"balance": 77})
            dtx.commit()
        except SerializationFailure:
            victim_failed = True
            if not dtx._finished:
                dtx.rollback()
        a.rollback()
        assert victim_failed
        # West's prepared branch must have been rolled back: balance
        # unchanged and no dangling prepared transaction.
        assert banks["west"].session().select(
            "accounts", Eq("id", 1))[0]["balance"] == 100
        assert banks["west"].prepared_gids() == []
        assert banks["east"].prepared_gids() == []


class TestRecovery:
    def test_recover_commits_logged_decisions(self, coordinator, banks):
        """Coordinator crash between the decision record and phase 2:
        recovery completes the commit on every branch."""
        dtx = coordinator.transaction(gid="g")
        dtx.on("east").update("accounts", Eq("id", 1), {"balance": 1})
        dtx.on("west").update("accounts", Eq("id", 1), {"balance": 2})
        # Manually run phase 1 + decision log, then "crash".
        for name in ("east", "west"):
            dtx.on(name).prepare_transaction(f"g:{name}")
        coordinator.log.append(("g", Decision.COMMITTED))
        actions = coordinator.recover()
        assert actions == {"g:east": "committed", "g:west": "committed"}
        assert banks["east"].session().select(
            "accounts", Eq("id", 1))[0]["balance"] == 1
        assert banks["west"].session().select(
            "accounts", Eq("id", 1))[0]["balance"] == 2

    def test_recover_presumes_abort_without_decision(self, coordinator,
                                                     banks):
        dtx = coordinator.transaction(gid="g")
        dtx.on("east").update("accounts", Eq("id", 1), {"balance": 1})
        dtx.on("east").prepare_transaction("g:east")
        # Crash before west prepared and before any decision logged.
        dtx.on("west").rollback()
        actions = coordinator.recover()
        assert actions == {"g:east": "rolled back"}
        assert banks["east"].session().select(
            "accounts", Eq("id", 1))[0]["balance"] == 100

    def test_recover_ignores_foreign_prepared_transactions(self,
                                                           coordinator,
                                                           banks):
        s = banks["east"].session()
        s.begin(SER)
        s.update("accounts", Eq("id", 1), {"balance": 5})
        s.prepare_transaction("manual-2pc")
        assert coordinator.recover() == {}
        assert banks["east"].prepared_gids() == ["manual-2pc"]
        banks["east"].rollback_prepared("manual-2pc")


class TestDecisionLogFile:
    def test_torn_last_line_is_cut_off(self, tmp_path):
        """A crash mid-append leaves a partial last line. It never
        finished its fsync, so reopening drops it (presumed abort) and
        truncates the file, keeping later appends parseable."""
        path = tmp_path / "decisions.jsonl"
        DecisionLog(str(path)).append(("g1", Decision.COMMITTED))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"gid": "g2", "deci')
        reopened = DecisionLog(str(path))
        assert list(reopened) == [("g1", Decision.COMMITTED)]
        reopened.append(("g3", Decision.ABORTED))
        assert list(DecisionLog(str(path))) == [
            ("g1", Decision.COMMITTED), ("g3", Decision.ABORTED)]

    def test_undecodable_inner_line_is_corruption(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        path.write_text('{"gid": "g1", "deci\n'
                        '{"gid": "g2", "decision": "committed"}\n')
        with pytest.raises(DataCorruptionError) as err:
            DecisionLog(str(path))
        assert err.value.path == str(path)
