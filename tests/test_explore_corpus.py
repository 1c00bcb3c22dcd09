"""Anomaly regression corpus: every checked-in replay file must keep
reproducing its anomaly, and the serializable implementations must keep
preventing it.

Each file under tests/explore_corpus/ pins one witness schedule for a
canonical anomaly from the paper. The contract per file:

* replayed strictly at its own isolation level (snapshot isolation),
  the exact committed history is NOT serializable -- the anomaly is
  still there, deterministically;
* replayed under SERIALIZABLE, at least one transaction hits a
  serialization failure (SSI breaks the dangerous structure) and the
  committed history IS serializable;
* replayed under S2PL, the committed history is serializable.

If an engine change breaks any of these, the failing replay file is
the smallest known reproducer -- debug with
``python -m repro.explore replay tests/explore_corpus/<name>.json``.
"""

from pathlib import Path

import pytest

from repro.engine.isolation import IsolationLevel
from repro.explore import load_replay, run_replay

CORPUS_DIR = Path(__file__).resolve().parent / "explore_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

#: The canonical anomalies that must always be present.
REQUIRED = {"write_skew", "batch_processing", "receipt_report",
            "read_only_anomaly", "phantom_under_join",
            "write_skew_via_aggregate"}


def test_corpus_is_complete():
    names = {path.stem for path in CORPUS_FILES}
    assert REQUIRED <= names, f"missing corpus files: {REQUIRED - names}"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_replay_file_is_well_formed(path):
    replay = load_replay(str(path))
    assert replay.isolation is IsolationLevel.REPEATABLE_READ
    assert replay.schedule, "empty schedule"
    assert replay.expect.get("anomaly"), \
        "corpus files must expect an anomaly (else they are vacuous)"
    assert replay.description


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_anomaly_reproduces_under_snapshot_isolation(path):
    replay = load_replay(str(path))
    result = run_replay(replay)  # strict, sanitized, own isolation
    assert result.record.complete, result.record.error
    assert not result.diverged, \
        "schedule no longer replays exactly -- engine nondeterminism?"
    assert not result.record.check.serializable, \
        f"{path.stem}: pinned SI anomaly disappeared"
    assert result.ok, result.summary()


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_replay_is_deterministic(path):
    replay = load_replay(str(path))
    first = run_replay(replay)
    second = run_replay(replay)
    assert first.record.state == second.record.state
    assert first.record.schedule == second.record.schedule
    assert (first.record.check.serializable
            == second.record.check.serializable)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_ssi_prevents_the_anomaly(path):
    replay = load_replay(str(path))
    result = run_replay(replay, IsolationLevel.SERIALIZABLE)
    assert result.record.complete, result.record.error
    assert result.record.check.serializable, \
        f"{path.stem}: SSI committed the anomaly!"
    assert result.record.serialization_failures >= 1, \
        f"{path.stem}: SSI never aborted -- how did it stay serializable?"
    assert result.ok, result.summary()


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_s2pl_prevents_the_anomaly(path):
    replay = load_replay(str(path))
    result = run_replay(replay, IsolationLevel.S2PL)
    assert result.record.complete, result.record.error
    assert result.record.check.serializable, \
        f"{path.stem}: S2PL committed the anomaly!"
    assert result.ok, result.summary()


def test_phantom_read_is_judged_against_the_readers_snapshot():
    """Client 1 takes its snapshot, client 0 inserts and commits, then
    client 1 counts the department: its snapshot misses the new row, so
    it admits an expense too. That history is not serializable, and the
    Adya graph must say so -- the recorded read carries the reader's
    own snapshot, not one taken after client 0 committed."""
    replay = load_replay(str(CORPUS_DIR / "write_skew_via_aggregate.json"))
    replay.schedule = [0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1]
    result = run_replay(replay)
    assert result.record.complete and not result.diverged
    (_name, rows), = result.record.state
    assert len(rows) == 3  # both clients admitted an expense
    assert not result.record.check.serializable
