"""Differential planner suite: plans may change, answers may not.

Every corpus replay (the canonical anomalies) is executed twice: once
with no statistics, so every scan takes the rule-based choice, and once
with ANALYZE run on the initial state, so the cost-based path prices
every scan. The contract: scan choice is invisible to semantics --
identical committed row sets, identical committed-transaction sets,
and identical serializability verdicts, under both snapshot isolation
and SSI.

The suite also runs a skewed-AND program built here (corpus programs
use single-conjunct predicates, so they exercise the cache + fallback
paths but not the conjunct *reordering*), covering the one case where
the cost planner actually changes the chosen index.
"""

from pathlib import Path

import pytest

from repro.engine.isolation import IsolationLevel
from repro.engine.predicate import And, Eq
from repro.explore import load_replay, run_replay

CORPUS_DIR = Path(__file__).resolve().parent / "explore_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

def run_pair(replay, isolation=None):
    """(rule-planned run, cost-planned run)."""
    off = run_replay(replay, isolation)
    on = run_replay(replay, isolation, analyze=True)
    return off, on


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_identical_outcome_under_snapshot_isolation(path):
    """Strict replay at the file's own isolation level: same schedule,
    same committed rows, same (non-)serializable verdict."""
    replay = load_replay(str(path))
    off, on = run_pair(replay)
    assert off.record.complete and on.record.complete
    assert not off.diverged and not on.diverged, \
        "scan choice changed the replayable step structure"
    assert off.record.state == on.record.state
    assert off.record.committed_txns == on.record.committed_txns
    assert off.record.check.serializable == on.record.check.serializable
    assert not on.record.check.serializable, \
        f"{path.stem}: pinned anomaly disappeared with cost planning"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_identical_ssi_verdict_under_serializable(path):
    """SSI must break the dangerous structure under either plan:
    serializable history, at least one serialization failure."""
    replay = load_replay(str(path))
    off, on = run_pair(replay, IsolationLevel.SERIALIZABLE)
    assert off.record.complete and on.record.complete
    assert off.record.check.serializable and on.record.check.serializable
    assert (off.record.serialization_failures >= 1) \
        == (on.record.serialization_failures >= 1)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_planner_on_is_deterministic(path):
    replay = load_replay(str(path))
    first = run_replay(replay, analyze=True)
    second = run_replay(replay, analyze=True)
    assert first.record.state == second.record.state
    assert first.record.schedule == second.record.schedule


def test_skewed_and_predicate_same_rows_either_plan():
    """Direct engine-level differential on the plan the cost planner
    actually changes: And(low-cardinality, unique-key). The rule plan
    (no statistics) scans through the grp index, the cost plan through
    the primary key; both must return the same rows."""
    from repro.config import EngineConfig
    from repro.engine import Database

    def build(analyze):
        db = Database(EngineConfig())
        db.create_table("t", ["k", "grp", "v"], key="k")
        db.create_index("t", "grp")
        s = db.session()
        s.begin()
        for i in range(120):
            s.insert("t", {"k": i, "grp": i % 3, "v": i * 7})
        s.commit()
        if analyze:
            db.analyze()
        return db

    answers = []
    for analyze in (False, True):
        db = build(analyze)
        s = db.session()
        s.begin()
        rows = []
        for i in range(60):
            pred = And(Eq("grp", i % 3), Eq("k", (i * 37) % 120))
            rows.append(sorted(tuple(sorted(r.items()))
                               for r in s.select("t", pred)))
        s.commit()
        answers.append(rows)
    assert answers[0] == answers[1]
    # Sanity: the two runs really did choose differently.
    pred = And(Eq("grp", 1), Eq("k", 1))
    for analyze, column, source in ((False, "grp", "rule"),
                                    (True, "k", "cost")):
        db = build(analyze)
        choice = db.planner.choose(db.relation("t"), pred)
        assert (choice.column, choice.source) == (column, source)
