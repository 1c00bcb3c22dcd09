"""External two-phase-commit coordinator.

The paper notes (section 7.1, footnote): "PostgreSQL does not itself
support distributed transactions; its two-phase commit support is
intended as a primitive that can be used to build an external
transaction coordinator." This module is that coordinator: it runs one
logical transaction across several databases, keeps its own decision
log, and recovers in-doubt branches after a crash.

:meth:`Coordinator.commit_branches` is the one commit driver. It serves
both :class:`DistributedTransaction` and the shard router
(``repro.shard.session``), which adds its cross-shard certification and
its per-shard parallel fan-out as two hooks. It picks the protocol from
the branches it is given: one branch, or one writer branch, commits
locally (its commit record is the commit point, and no decision is
logged); two or more writers run full two-phase commit around a
COMMITTED record in the decision log.

Serializability remains a *per-database* guarantee, exactly as with
PostgreSQL: SSI on each participant plus atomic commit across them.
"""

from __future__ import annotations

import enum
import json
import os
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.isolation import IsolationLevel
from repro.errors import (DataCorruptionError, InvalidTransactionStateError,
                          ReproError)


class Decision(enum.Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"


class DecisionLog:
    """The coordinator's decision log: append-only (gid, decision).

    With a ``path`` every append is written as one JSON line and
    fsynced before returning -- the append IS the commit point of the
    two-phase protocol, so it must survive a coordinator crash. A new
    coordinator pointed at the same path replays the log on
    construction and can resolve in-doubt prepared branches
    (:meth:`Coordinator.recover`). Without a path the log is in-memory
    only (the seed behaviour, still used by single-process tests).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        import threading
        self.path = path
        # Concurrent client threads of the shard router append
        # decisions; the log write + list append must stay atomic.
        self._mutex = threading.Lock()
        self._entries: List[Tuple[str, Decision]] = []
        if path is not None and os.path.exists(path):
            self._replay(path)

    def _replay(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        complete = data.rfind(b"\n") + 1
        for lineno, line in enumerate(data[:complete].splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                entry = (rec["gid"], Decision(rec["decision"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise DataCorruptionError(
                    f"decision log line {lineno} is not a decision record",
                    path=path, kind="decision_log",
                    reason="decode") from exc
            self._entries.append(entry)
        if complete < len(data):
            # A torn last line: its append never returned from fsync, so
            # no branch acted on it and presumed abort holds. Cut it off
            # so that later appends start on a line boundary.
            with open(path, "r+b") as fh:
                fh.truncate(complete)
                os.fsync(fh.fileno())

    def append(self, entry: Tuple[str, Decision]) -> None:
        gid, decision = entry
        with self._mutex:
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"gid": gid,
                                         "decision": decision.value}) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            self._entries.append((gid, decision))

    def __iter__(self) -> Iterator[Tuple[str, Decision]]:
        return iter(self._entries)

    def __reversed__(self) -> Iterator[Tuple[str, Decision]]:
        return reversed(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, idx):
        return self._entries[idx]


class DistributedTransaction:
    """One transaction spanning every database the coordinator knows."""

    def __init__(self, coordinator: "Coordinator", gid: str,
                 isolation: IsolationLevel) -> None:
        self.coordinator = coordinator
        self.gid = gid
        self.sessions = {name: db.session()
                         for name, db in coordinator.databases.items()}
        for session in self.sessions.values():
            session.begin(isolation)
        self._finished = False

    def on(self, name: str):
        """The branch session for one participant database."""
        return self.sessions[name]

    # -- two-phase commit ------------------------------------------------
    def commit(self) -> None:
        """Commit every branch atomically through
        :meth:`Coordinator.commit_branches`.

        If any branch fails to prepare or commit (e.g. an SSI
        pre-commit check fires there), every branch is rolled back and
        the error is re-raised: atomicity across databases.
        """
        self._check_active()
        try:
            self.coordinator.commit_branches(self.gid, self.sessions)
        except ReproError:
            self._rollback_sessions()
            raise
        finally:
            self._finished = True

    def rollback(self) -> None:
        self._check_active()
        self._rollback_sessions()
        self.coordinator.log.append((self.gid, Decision.ABORTED))
        self._finished = True

    def _rollback_sessions(self) -> None:
        for session in self.sessions.values():
            if session.in_transaction():
                session.rollback()

    def _check_active(self) -> None:
        if self._finished:
            raise InvalidTransactionStateError(
                f"distributed transaction {self.gid} already finished")


#: One engine call of the driver: (branch name, zero-argument call).
BranchCall = Tuple[str, Callable[[], Any]]
#: Its outcome: (result, exception), exactly one of them set.
CallResult = Tuple[Any, Optional[BaseException]]


def _in_turn(calls: List[BranchCall]) -> List[CallResult]:
    """The default ``fan_out``: run the calls one after another."""
    out: List[CallResult] = []
    for _name, call in calls:
        try:
            out.append((call(), None))
        except ReproError as exc:
            out.append((None, exc))
    return out


def _raise_first(results: List[CallResult]) -> None:
    for _result, exc in results:
        if exc is not None:
            raise exc


class Coordinator:
    """Drives distributed transactions over named databases."""

    def __init__(self, databases: Dict[str, "object"],
                 log_path: Optional[str] = None) -> None:
        self.databases = dict(databases)
        #: Durable decision log: (gid, decision), append-only. With a
        #: ``log_path`` it survives coordinator restarts (JSONL replay).
        self.log = DecisionLog(log_path)
        self._next_gid = 1

    def transaction(self, gid: Optional[str] = None,
                    isolation: IsolationLevel =
                    IsolationLevel.SERIALIZABLE) -> DistributedTransaction:
        if gid is None:
            gid = f"dtx{self._next_gid}"
            self._next_gid += 1
        return DistributedTransaction(self, gid, isolation)

    def commit_branches(self, gid: str, sessions: Dict[str, Any], *,
                        certify: Callable[[], None] = lambda: None,
                        fan_out: Callable[[List[BranchCall]],
                                          List[CallResult]] = _in_turn
                        ) -> None:
        """Commit the branch sessions that are in a transaction, as one.

        With at most one writer branch (``txn.wal_changes``) the other
        branches are PREPAREd, ``certify()`` runs, and the writer -- or
        the lone branch -- commits locally: its commit record is the
        commit point and no decision is logged. With two or more
        writers every branch is PREPAREd, ``certify()`` runs, and
        COMMITTED is logged as the commit point. Either way the
        prepared branches then commit. A :class:`ReproError` before the
        commit point rolls the prepared branches back (logging ABORTED
        when two-phase) and is re-raised; branches never prepared are
        left to the caller. Any other exception is a crash and leaves
        in-doubt branches to :meth:`recover`.

        Every engine call goes through ``fan_out``, which runs
        (branch, call) pairs and returns (result, exception) pairs in
        order; the shard router runs them in parallel, each under its
        shard's engine latch, and certifies across shards in
        ``certify``.
        """
        live = {name: sess for name, sess in sessions.items()
                if sess.in_transaction()}
        writers = [name for name, sess in live.items()
                   if sess.txn.wal_changes]
        two_phase = len(writers) > 1
        # The branch that commits locally, if any.
        if len(writers) == 1:
            local = writers[0]
        elif len(live) == 1:
            local, = live
        else:
            local = None

        def resolve(method: str) -> None:
            """COMMIT or ROLLBACK PREPARED every prepared branch."""
            _raise_first(fan_out([
                (name, partial(getattr(self.databases[name], method),
                               f"{gid}:{name}"))
                for name in prepared]))

        to_prepare = [name for name in live if name != local]
        prepared: List[str] = []
        try:
            results = fan_out([
                (name, partial(live[name].prepare_transaction,
                               f"{gid}:{name}"))
                for name in to_prepare])
            prepared = [name for name, (_r, exc)
                        in zip(to_prepare, results) if exc is None]
            _raise_first(results)
            certify()
            if two_phase:
                # The decision record is the commit point: branches
                # prepared before it commit even across a crash.
                self.log.append((gid, Decision.COMMITTED))
            elif local is not None:
                _raise_first(fan_out([(local, live[local].commit)]))
        except ReproError:
            resolve("rollback_prepared")
            if two_phase:
                self.log.append((gid, Decision.ABORTED))
            raise
        resolve("commit_prepared")

    def decision_for(self, gid: str) -> Optional[Decision]:
        for logged_gid, decision in reversed(self.log):
            if logged_gid == gid:
                return decision
        return None

    def recover(self) -> Dict[str, str]:
        """Resolve in-doubt branches after a crash.

        Presumed abort: a prepared branch whose gid has a logged COMMIT
        decision is committed; any other prepared branch of ours is
        rolled back (the coordinator never logged the commit point, so
        no branch can have committed).
        """
        actions: Dict[str, str] = {}
        for name, db in self.databases.items():
            for branch_gid in db.prepared_gids():
                gid, _, participant = branch_gid.partition(":")
                if participant != name:
                    continue  # not one of ours
                if self.decision_for(gid) is Decision.COMMITTED:
                    db.commit_prepared(branch_gid)
                    actions[branch_gid] = "committed"
                else:
                    db.rollback_prepared(branch_gid)
                    actions[branch_gid] = "rolled back"
        return actions
