"""Replay files: a failing (program, schedule) pair as portable JSON.

A replay file is self-contained: the initial tables and rows, every
client's transaction programs, the isolation level, the exact schedule
(the sequence of client ids the scheduler picked), and the expected
verdicts. ``python -m repro.explore replay FILE`` re-executes it and
exits nonzero unless the expectations reproduce.

Expectations (all optional):

* ``anomaly`` -- replayed at the file's own isolation level, the
  committed history is NOT serializable (the pinned SI anomaly);
* ``serializable_aborts`` -- replayed under SERIALIZABLE, at least one
  transaction hits a serialization failure and the committed history IS
  serializable (SSI breaks the dangerous structure);
* ``s2pl_serializable`` -- replayed under S2PL the history is
  serializable (blocking prevents the anomaly outright).

Replay is *strict* at the file's own isolation level: every scheduled
pick must name a runnable client, or the result is flagged as diverged
(and ``anomaly`` fails). Under other isolation levels aborts and
retries legitimately change the step structure, so replay is lenient:
a scheduled client that is not currently runnable is substituted by
the first runnable one, deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.isolation import IsolationLevel
from repro.explore.explorer import RunRecord, execute_schedule
from repro.explore.program import Program
from repro.sim.client import Client

REPLAY_FORMAT = "repro-explore-replay"
REPLAY_VERSION = 1


@dataclass
class Replay:
    program: Program
    isolation: IsolationLevel
    schedule: List[int]
    expect: Dict[str, Any] = field(default_factory=dict)
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": REPLAY_FORMAT,
            "version": REPLAY_VERSION,
            "description": self.description,
            "isolation": self.isolation.value,
            "program": self.program.to_dict(),
            "schedule": list(self.schedule),
            "expect": dict(self.expect),
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Replay":
        if d.get("format") != REPLAY_FORMAT:
            raise ValueError(
                f"not a {REPLAY_FORMAT} file (format={d.get('format')!r})")
        if int(d.get("version", 0)) > REPLAY_VERSION:
            raise ValueError(
                f"replay file version {d['version']} is newer than "
                f"supported version {REPLAY_VERSION}")
        return Replay(program=Program.from_dict(d["program"]),
                      isolation=IsolationLevel(d["isolation"]),
                      schedule=[int(c) for c in d["schedule"]],
                      expect=dict(d.get("expect", {})),
                      description=d.get("description", ""))


def save_replay(path: str, replay: Replay) -> None:
    with open(path, "w") as fp:
        json.dump(replay.to_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_replay(path: str) -> Replay:
    with open(path) as fp:
        return Replay.from_dict(json.load(fp))


class FixedSchedulePolicy:
    """Scheduler pick policy that follows a recorded schedule.

    Lenient mode substitutes the first runnable client when the
    scheduled one cannot run (and after the schedule is exhausted);
    strict mode only flags the divergence -- both stay deterministic.
    """

    def __init__(self, schedule: List[int], strict: bool = True) -> None:
        self.schedule = schedule
        self.strict = strict
        self.position = 0
        self.diverged = False
        self.choices: List[int] = []

    def pick(self, runnable: List[Client]) -> Optional[Client]:
        chosen = None
        if self.position < len(self.schedule):
            want = self.schedule[self.position]
            self.position += 1
            for client in runnable:
                if client.client_id == want:
                    chosen = client
                    break
            if chosen is None:
                self.diverged = True
        if chosen is None:
            chosen = runnable[0]
        self.choices.append(chosen.client_id)
        return chosen


@dataclass
class ReplayResult:
    isolation: IsolationLevel
    record: RunRecord
    diverged: bool
    #: Per-expectation verdicts actually evaluated for this run.
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def summary(self) -> str:
        verdicts = ", ".join(f"{name}={'ok' if ok else 'FAIL'}"
                             for name, ok in sorted(self.checks.items()))
        serializable = (self.record.check.serializable
                        if self.record.check is not None else None)
        return (f"replay under {self.isolation.value}: "
                f"commits={self.record.commits} "
                f"serialization_failures={self.record.serialization_failures} "
                f"serializable={serializable} diverged={self.diverged}"
                + (f" [{verdicts}]" if verdicts else ""))


def run_replay(replay: Replay,
               isolation: Optional[IsolationLevel] = None, *,
               strict: Optional[bool] = None,
               sanitize: bool = True,
               max_steps: int = 4000,
               analyze: bool = False) -> ReplayResult:
    """Re-execute a replay file and evaluate its expectations under the
    given isolation level (default: the file's own). ``analyze``
    passes through to the database build (differential planner
    testing: same schedule, different scan plans)."""
    iso = isolation or replay.isolation
    if strict is None:
        strict = iso is replay.isolation
    policy = FixedSchedulePolicy(replay.schedule, strict=strict)
    record = execute_schedule(replay.program, iso, policy.pick,
                              max_steps=max_steps, sanitize=sanitize,
                              analyze=analyze)
    result = ReplayResult(isolation=iso, record=record,
                          diverged=policy.diverged)
    _evaluate(replay, result)
    return result


def _evaluate(replay: Replay, result: ReplayResult) -> None:
    expect = replay.expect
    record = result.record
    if not record.complete:
        result.notes.append(f"run did not complete ({record.error})")
        result.checks["complete"] = False
        return
    serializable = record.check.serializable
    if result.isolation is replay.isolation and expect.get("anomaly"):
        result.checks["anomaly"] = (not serializable
                                    and not result.diverged)
        if result.diverged:
            result.notes.append("strict replay diverged from the schedule")
    if (result.isolation is IsolationLevel.SERIALIZABLE
            and expect.get("serializable_aborts")):
        result.checks["serializable_aborts"] = (
            serializable and record.serialization_failures >= 1)
    if (result.isolation is IsolationLevel.S2PL
            and expect.get("s2pl_serializable")):
        result.checks["s2pl_serializable"] = serializable
