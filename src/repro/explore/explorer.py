"""Interleaving enumeration over static programs.

Two exploration strategies over the schedule space of a
:class:`repro.explore.program.Program`:

* :func:`explore_exhaustive` -- depth-first enumeration of *all*
  statement interleavings up to a bound, with sleep-set pruning of
  commuting statement pairs (Godefroid-style partial-order reduction:
  once a branch explored statement ``s`` at a node, sibling branches
  need not re-explore ``s`` until some statement *dependent* with ``s``
  has executed, because the two orders are Mazurkiewicz-equivalent);
* :func:`explore_random` -- seeded random walks for program spaces too
  large to enumerate, with the full choice sequence recorded so any
  failure replays exactly.

Every completed schedule is checked by the differential oracles in
:mod:`repro.explore.oracles`; oracle failures become
:class:`ScheduleFinding` records carrying the exact schedule, which
the shrinker and replay-file machinery consume.

The explorer drives the stock :class:`repro.sim.scheduler.Scheduler`
through its pluggable pick policy, so it exercises the same engine
code paths as the benchmarks -- only the choice of which client steps
next differs.
"""

from __future__ import annotations

import random  # seeded Random only; every walk records its choices
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.isolation import IsolationLevel
from repro.explore.program import Program, Txn, txn_name
from repro.sim import ops
from repro.sim.client import Client
from repro.sim.scheduler import Scheduler
from repro.verify import CheckResult, check_serializable


class ExplorationError(RuntimeError):
    """Internal invariant breach in the explorer itself (e.g. a replayed
    prefix diverged, meaning the engine was nondeterministic)."""


# ---------------------------------------------------------------------------
# step metadata and the independence relation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StepMeta:
    """What one scheduler step did, at the granularity the pruning
    relation needs: statement kind plus target table."""

    kind: str
    table: Optional[str] = None


#: Transaction-control steps: ordering against anything else may change
#: snapshot contents, lock release order, or SSI commit ordering.
CONTROL_KINDS = frozenset({"begin", "commit", "abort"})
#: Statement kinds that write (or lock for write).
WRITE_KINDS = frozenset({"insert", "update", "delete", "select_for_update"})
#: Client-local bookkeeping step (transaction handoff): touches no
#: shared engine state at all.
BOUNDARY = StepMeta("boundary")
#: A step during which the transaction aborted (statement failure,
#: failed commit, retry): released locks and SSI state -- treat as
#: dependent with everything.
ABORT_META = StepMeta("abort")


def independent(a: StepMeta, b: StepMeta) -> bool:
    """Conservative Mazurkiewicz independence for two adjacent steps of
    different clients: True only when swapping them provably yields the
    same engine state and the same behaviour of both steps.

    * boundary steps touch only client-local state: independent with
      everything;
    * control steps (begin/commit/abort) are dependent with everything
      (snapshots, lock release, commit ordering);
    * two reads commute even on the same table (SIREAD acquisition is
      idempotent and order-insensitive);
    * anything else on the same table conflicts (tuple placement, lock
      queues, first-committer-wins, SSI conflict edges);
    * statements on disjoint tables commute.
    """
    if a.kind == "boundary" or b.kind == "boundary":
        return True
    if a.kind in CONTROL_KINDS or b.kind in CONTROL_KINDS:
        return False
    if a.table != b.table:
        return True
    return not (a.kind in WRITE_KINDS or b.kind in WRITE_KINDS)


class MetaCell:
    """Mutable holder the compiled program writes its current step's
    metadata into, so the explorer can observe what each scheduler step
    actually executed (guards and retries make this impossible to
    predict statically)."""

    __slots__ = ("meta",)

    def __init__(self) -> None:
        self.meta = StepMeta("begin")


def _txn_factory(cell: MetaCell, txn: Txn, isolation: IsolationLevel):
    """Compile one transaction into a restartable generator factory
    that stamps ``cell.meta`` before every yield."""

    def factory():
        def run():
            cell.meta = StepMeta("begin")
            yield ops.begin(isolation, read_only=txn.read_only)
            results: List[Any] = []
            for stmt in txn.stmts:
                if not stmt.guard_passes(results):
                    results.append(None)
                    continue
                cell.meta = StepMeta(stmt.op, stmt.table)
                results.append((yield stmt.to_op(results)))
            cell.meta = StepMeta("commit")
            yield ops.commit()
            cell.meta = BOUNDARY

        return run()

    return factory


def attach_clients(program: Program, db, scheduler: Scheduler,
                   isolation: IsolationLevel,
                   max_retries: int = 8) -> List[MetaCell]:
    """Register one simulated client per program client; returns the
    per-client metadata cells."""
    cells: List[MetaCell] = []
    for cid, txns in enumerate(program.clients):
        cell = MetaCell()
        queue = [(txn_name(cid, idx), _txn_factory(cell, txn, isolation))
                 for idx, txn in enumerate(txns)]
        queue.reverse()

        def source(queue=queue):
            return queue.pop() if queue else None

        scheduler.add_client(Client(cid, db.session(), source,
                                    max_retries=max_retries))
        cells.append(cell)
    return cells


# ---------------------------------------------------------------------------
# single-schedule execution
# ---------------------------------------------------------------------------
@dataclass
class RunRecord:
    """Everything the oracles need from one executed schedule."""

    schedule: List[int]
    complete: bool          # every client finished (oracles apply)
    pruned: bool            # stopped by sleep-set pruning (covered elsewhere)
    capped: bool            # hit the per-run step bound
    steps: int
    commits: int
    aborts: int
    serialization_failures: int
    committed_txns: Tuple[str, ...]
    check: Optional[CheckResult] = None
    state: Optional[tuple] = None   # canonical final state (hashable)
    error: Optional[str] = None     # stall / sanitizer violation text


def canonical_state(db, program: Program) -> tuple:
    """Hashable snapshot of all committed rows, per table."""
    session = db.session()
    out = []
    for spec in program.tables:
        rows = session.select(spec.name)
        out.append((spec.name,
                    tuple(sorted(tuple(sorted(r.items())) for r in rows))))
    return tuple(out)


def execute_schedule(program: Program, isolation: IsolationLevel, policy, *,
                     max_steps: int = 4000, sanitize: bool = False,
                     max_retries: int = 8,
                     analyze: bool = False, db=None) -> RunRecord:
    """Run the program once under ``policy`` (a scheduler pick policy)
    and collect the oracle inputs. The policy's recorded choices are
    read back from its ``choices`` attribute if present. ``analyze``
    passes through to :meth:`Program.build_db` (differential planner
    testing). ``db`` substitutes a pre-built database (the
    durability tests run the same schedule on a disk-backed engine)."""
    if db is None:
        db = program.build_db(sanitize=sanitize, analyze=analyze)
    scheduler = Scheduler(db, policy=policy)
    cells = attach_clients(program, db, scheduler, isolation,
                           max_retries=max_retries)
    binder = getattr(policy, "__self__", policy)
    if hasattr(binder, "bind"):
        binder.bind(scheduler.clients, cells)
    error = None
    try:
        scheduler.run(max_steps=max_steps)
    except RuntimeError as exc:            # scheduler stall
        error = f"stall: {exc}"
    except AssertionError as exc:          # sanitizer violation
        error = f"sanitizer: {exc}"
    if hasattr(binder, "finish"):
        binder.finish(error=error is not None)
    complete = error is None and all(c.finished for c in scheduler.clients)
    capped = error is None and not complete and scheduler.steps >= max_steps
    pruned = bool(getattr(binder, "pruned", False))
    committed: List[str] = []
    for client in scheduler.clients:
        committed.extend(client.stats.by_type)
    stats = [c.stats for c in scheduler.clients]
    record = RunRecord(
        schedule=list(getattr(binder, "choices", ())),
        complete=complete, pruned=pruned, capped=capped,
        steps=scheduler.steps,
        commits=sum(s.commits for s in stats),
        aborts=sum(s.aborts for s in stats),
        serialization_failures=sum(s.serialization_failures for s in stats),
        committed_txns=tuple(sorted(committed)),
        error=error)
    if complete:
        # Graph verdict first: the final-state read below appends
        # (harmless) read events to the same recorder.
        record.check = check_serializable(db.recorder)
        record.state = canonical_state(db, program)
    return record


# ---------------------------------------------------------------------------
# findings and reports
# ---------------------------------------------------------------------------
@dataclass
class ScheduleFinding:
    """One interesting (schedule, verdict) pair: an oracle failure, or
    -- under snapshot isolation -- an expected anomaly witness."""

    kind: str               # non-serializable-commit | state-divergence |
                            # stall | sanitizer
    isolation: str
    schedule: List[int]
    detail: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleFinding({self.kind} under {self.isolation}, "
                f"schedule={self.schedule}, {self.detail})")


@dataclass
class ExplorationReport:
    """Aggregate outcome of one exploration campaign."""

    isolation: IsolationLevel
    strategy: str                     # "exhaustive" | "random"
    schedules_complete: int = 0
    schedules_pruned: int = 0
    schedules_capped: int = 0
    #: True when the DFS enumerated the whole (pruned) schedule tree
    #: without hitting max_schedules.
    exhausted: bool = False
    #: Oracle failures: guarantees of this isolation level violated.
    violations: List[ScheduleFinding] = field(default_factory=list)
    #: Non-serializable committed histories observed where the
    #: isolation level permits them (the SI anomaly witnesses).
    anomalies: List[ScheduleFinding] = field(default_factory=list)
    distinct_states: Set[tuple] = field(default_factory=set)
    errors: List[ScheduleFinding] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return (self.schedules_complete + self.schedules_pruned
                + self.schedules_capped)

    def summary(self) -> str:
        return (f"{self.strategy} exploration under "
                f"{self.isolation.value}: "
                f"{self.schedules_complete} complete schedules "
                f"({self.schedules_pruned} pruned, "
                f"{self.schedules_capped} capped, "
                f"exhausted={self.exhausted}), "
                f"{len(self.distinct_states)} distinct final states, "
                f"{len(self.anomalies)} anomalies, "
                f"{len(self.violations)} violations")


# ---------------------------------------------------------------------------
# exhaustive DFS with sleep sets
# ---------------------------------------------------------------------------
class _Frame:
    """One node of the DFS choice tree (persists across re-executions)."""

    __slots__ = ("choice", "untried", "sleep", "meta")

    def __init__(self, choice: int, untried: List[int],
                 sleep: Set[Tuple[int, StepMeta]]) -> None:
        self.choice = choice
        self.untried = untried
        self.sleep = sleep
        self.meta: Optional[StepMeta] = None


class _DFSDriver:
    """Pick policy for one DFS iteration: replays the frame-stack
    prefix, then extends first-unslept-choice to a leaf, appending new
    frames as it goes."""

    def __init__(self, frames: List[_Frame], prune: bool) -> None:
        self.frames = frames
        self.prune = prune
        self.depth = 0
        self.pruned = False
        self.choices: List[int] = []
        self.current_sleep: Set[Tuple[int, StepMeta]] = set()
        self._clients: Dict[int, Client] = {}
        self._cells: List[MetaCell] = []
        self._pending: Optional[Tuple[_Frame, Client, int]] = None

    def bind(self, clients: List[Client], cells: List[MetaCell]) -> None:
        self._clients = {c.client_id: c for c in clients}
        self._cells = cells

    def pick(self, runnable: List[Client]) -> Optional[Client]:
        self._finalize_pending()
        cids = [c.client_id for c in runnable]
        if self.depth < len(self.frames):
            frame = self.frames[self.depth]
            if frame.choice not in cids:
                raise ExplorationError(
                    f"prefix replay diverged at step {self.depth}: "
                    f"client {frame.choice} not runnable in {cids}")
        else:
            asleep = {cid for cid, _meta in self.current_sleep}
            candidates = [cid for cid in cids if cid not in asleep]
            if not candidates:
                # Every enabled transition is asleep: all completions of
                # this node are Mazurkiewicz-equivalent to schedules the
                # DFS already explored.
                self.pruned = True
                return None
            frame = _Frame(candidates[0], candidates[1:],
                           set(self.current_sleep))
            self.frames.append(frame)
        self.depth += 1
        self.choices.append(frame.choice)
        client = self._clients[frame.choice]
        self._pending = (frame, client, client.stats.aborts)
        return client

    def finish(self, error: bool = False) -> None:
        if error and self._pending is not None:
            frame, _client, _aborts = self._pending
            frame.meta = ABORT_META
            self._pending = None
        self._finalize_pending()

    def _finalize_pending(self) -> None:
        """Observe what the previously picked step actually did, and
        derive the next node's sleep set from it."""
        if self._pending is None:
            return
        frame, client, aborts_before = self._pending
        self._pending = None
        meta = self._cells[client.client_id].meta
        if client.stats.aborts > aborts_before:
            meta = ABORT_META
        frame.meta = meta
        if self.prune:
            self.current_sleep = {entry for entry in frame.sleep
                                  if independent(entry[1], meta)}


def _backtrack(frames: List[_Frame], prune: bool) -> bool:
    """Advance the frame stack to the next unexplored branch; returns
    False when the tree is exhausted."""
    while frames:
        frame = frames[-1]
        if frame.untried:
            if prune:
                frame.sleep.add((frame.choice, frame.meta))
            frame.choice = frame.untried.pop(0)
            frame.meta = None
            return True
        frames.pop()
    return False


def explore_exhaustive(program: Program, isolation: IsolationLevel, *,
                       max_schedules: Optional[int] = None,
                       max_steps_per_run: int = 4000,
                       prune: bool = True,
                       sanitize: bool = False,
                       serial_oracle: bool = True,
                       perm_limit: int = 5,
                       max_retries: int = 8) -> ExplorationReport:
    """Enumerate all interleavings (up to the bounds) depth-first.

    Each iteration re-executes the program from scratch along the
    current choice prefix -- stateless model checking; the engine is
    deterministic, so replaying a prefix always reaches the same state.
    """
    from repro.explore.oracles import apply_oracles
    report = ExplorationReport(isolation=isolation, strategy="exhaustive")
    frames: List[_Frame] = []
    serial_cache: Dict = {}
    while True:
        driver = _DFSDriver(frames, prune=prune)
        record = execute_schedule(program, isolation, driver.pick,
                                  max_steps=max_steps_per_run,
                                  sanitize=sanitize,
                                  max_retries=max_retries)
        if record.error is not None:
            kind = record.error.split(":", 1)[0]
            report.errors.append(ScheduleFinding(
                kind, isolation.value, record.schedule, record.error))
            report.violations.append(ScheduleFinding(
                kind, isolation.value, record.schedule, record.error))
        elif record.pruned:
            report.schedules_pruned += 1
        elif record.capped:
            report.schedules_capped += 1
        elif record.complete:
            report.schedules_complete += 1
            apply_oracles(report, program, isolation, record,
                          serial_cache, serial_oracle=serial_oracle,
                          perm_limit=perm_limit)
        if max_schedules is not None and report.runs >= max_schedules:
            break
        if not _backtrack(frames, prune):
            report.exhausted = True
            break
    return report


# ---------------------------------------------------------------------------
# seeded random exploration
# ---------------------------------------------------------------------------
class _RandomDriver:
    """Seeded random pick policy that records its choices."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.choices: List[int] = []
        self.pruned = False

    def pick(self, runnable: List[Client]) -> Optional[Client]:
        client = self.rng.choice(runnable)
        self.choices.append(client.client_id)
        return client


def explore_random(program: Program, isolation: IsolationLevel, *,
                   trials: int, seed: int = 0,
                   max_steps_per_run: int = 4000,
                   sanitize: bool = False,
                   serial_oracle: bool = True,
                   perm_limit: int = 5,
                   max_retries: int = 8) -> ExplorationReport:
    """Sample ``trials`` random schedules; every run's full choice
    sequence is recorded, so seed + trial index (or the schedule in any
    finding) replays it exactly."""
    from repro.explore.oracles import apply_oracles
    report = ExplorationReport(isolation=isolation, strategy="random")
    serial_cache: Dict = {}
    for trial in range(trials):
        driver = _RandomDriver(seed * 1_000_003 + trial)
        record = execute_schedule(program, isolation, driver.pick,
                                  max_steps=max_steps_per_run,
                                  sanitize=sanitize,
                                  max_retries=max_retries)
        if record.error is not None:
            kind = record.error.split(":", 1)[0]
            report.errors.append(ScheduleFinding(
                kind, isolation.value, record.schedule, record.error))
            report.violations.append(ScheduleFinding(
                kind, isolation.value, record.schedule, record.error))
        elif record.capped:
            report.schedules_capped += 1
        elif record.complete:
            report.schedules_complete += 1
            apply_oracles(report, program, isolation, record,
                          serial_cache, serial_oracle=serial_oracle,
                          perm_limit=perm_limit)
    return report
