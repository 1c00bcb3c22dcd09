"""ShardedSession: one logical connection over N shard engines.

Statements route through the partitioner -- a primary-key equality
predicate pins a statement to one shard, anything else fans out -- and
shard branches open lazily: a transaction that only ever touches one
shard never pays for the others.

Every commit goes through the one two-phase-commit driver,
:meth:`Coordinator.commit_branches`, which picks the protocol from the
branches: a single branch, or a single writer branch, commits locally
with no decision record; two or more writers prepare, log COMMITTED in
the coordinator's persistent decision log, and commit prepared. The
router supplies two hooks. ``certify`` is what no commit skips: it
exports the branch rw-antidependency summaries to the
:class:`~repro.shard.certifier.GlobalCertifier` and runs the
cross-shard dangerous-structure check, because a single-shard
transaction can still be the T1 or T3 of a structure whose pivot spans
shards. ``fan_out`` runs the driver's engine calls through
:meth:`_map`, which subclasses (``repro.shard.threaded``) override to
run thread-per-shard in parallel under the existing engine latch ranks.

Lazy branch snapshots are policed for cross-shard atomicity: opening a
late branch re-checks the certifier's recent multi-shard commit
footprints and restarts the transaction (retryable 40001) when a
commit became visible between two of its branch snapshots
(:meth:`GlobalCertifier.check_branch_coherence`).

SERIALIZABLE READ ONLY DEFERRABLE routes reads to per-shard
safe-snapshot replicas (section 4.3 / 7.2): such a transaction opens
no branches at all and can never abort or be aborted.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.isolation import IsolationLevel
from repro.engine.predicate import Predicate
from repro.errors import (FeatureNotSupportedError,
                          InvalidTransactionStateError,
                          ReadOnlyTransactionError, ReproError,
                          RetryableError, WouldBlock)
from repro.engine.transaction import TxnStatus


def _merge_concat(parts: List[Any]) -> List[Any]:
    out: List[Any] = []
    for part in parts:
        out.extend(part)
    return out


def _merge_sum(parts: List[int]) -> int:
    return sum(parts)


def _merge_single(parts: List[Any]) -> Any:
    return parts[0]


class ShardedSession:
    """One client connection to a :class:`ShardedDatabase`."""

    def __init__(self, sdb, session_id: int,
                 default_isolation: IsolationLevel) -> None:
        self.sdb = sdb
        self.session_id = session_id
        self.default_isolation = default_isolation
        self.gid: Optional[str] = None
        self.isolation: Optional[IsolationLevel] = None
        self.read_only = False
        self._replica_mode = False
        #: shard index -> branch Session (lazily opened).
        self._branches: Dict[int, Any] = {}
        #: shard index -> certifier epoch observed before that branch's
        #: snapshot (snapshot-coherence bookkeeping).
        self._branch_epochs: Dict[int, int] = {}
        self._failed = False
        self._pending: Optional[Iterator] = None
        self._pending_autocommit = False

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------
    def begin(self, isolation: Optional[IsolationLevel] = None, *,
              read_only: bool = False, deferrable: bool = False) -> str:
        if self.gid is not None:
            raise InvalidTransactionStateError(
                "a transaction is already in progress")
        if self._pending is not None:
            raise InvalidTransactionStateError("a statement is suspended")
        iso = isolation or self.default_isolation
        if deferrable:
            if not (read_only and iso.uses_ssi):
                raise FeatureNotSupportedError(
                    "DEFERRABLE requires SERIALIZABLE READ ONLY")
            if self.sdb.replicas is None:
                raise FeatureNotSupportedError(
                    "DEFERRABLE routing needs attach_replicas()")
        self.isolation = iso
        self.read_only = read_only
        self._replica_mode = deferrable
        self._failed = False
        self.gid = self.sdb.next_gid()
        if not self._replica_mode:
            self.sdb.certifier.begin(self.gid)
        return self.gid

    def commit(self) -> bool:
        """COMMIT. Mirrors :meth:`Session.commit`: committing a FAILED
        transaction rolls back and returns False; a certification or
        branch pre-commit failure raises (retryable 40001)."""
        gid = self._require_txn(allow_failed=True)
        self._pending = None
        if self._replica_mode:
            self._reset()
            return True
        if self._failed:
            self._abort_all(gid)
            return False
        branches = {s: sess for s, sess in sorted(self._branches.items())
                    if sess.in_transaction()}
        certifier = self.sdb.certifier
        # Captured now: a prepared branch session detaches its txn.
        sxacts = [(s, sess.txn.sxact) for s, sess in branches.items()]
        shard_of = {self.sdb.shard_name(s): s for s in branches}

        def certify() -> None:
            certifier.certify(gid, sxacts)
            if len(branches) > 1:
                # Before any branch commit applies, and read-only
                # branches included (see register_multi_commit).
                certifier.register_multi_commit(list(branches))

        def fan_out(calls):
            results = self._map([
                (shard_of[name], partial(self._run_on, shard_of[name], call))
                for name, call in calls])
            return [(result, exc) for _s, result, exc in results]

        try:
            certifier.ensure_not_doomed(gid)
            self.sdb.coordinator.commit_branches(
                gid, {name: branches[s] for name, s in shard_of.items()},
                certify=certify, fan_out=fan_out)
        except ReproError:
            certifier.abort(gid)
            self._rollback_live_branches()
            self._reset()
            raise
        certifier.finish_commit(gid)
        self._reset()
        return True

    def rollback(self) -> None:
        gid = self._require_txn(allow_failed=True)
        self._pending = None
        if self._replica_mode:
            self._reset()
            return
        self._abort_all(gid)

    def in_transaction(self) -> bool:
        return self.gid is not None

    @property
    def blocked(self) -> bool:
        return self._pending is not None

    def run_transaction(self, fn, isolation: Optional[IsolationLevel] = None,
                        *, max_retries: int = 50, read_only: bool = False,
                        deferrable: bool = False):
        """Execute ``fn(session)`` with serialization-failure retry --
        the middleware loop the paper assumes (section 3.3), now also
        absorbing cross-shard certification aborts and snapshot-
        coherence restarts."""
        attempts = 0
        while True:
            attempts += 1
            try:
                self.begin(isolation, read_only=read_only,
                           deferrable=deferrable)
                result = fn(self)
                self.commit()
                return result
            except RetryableError:
                if self.gid is not None:
                    self.rollback()
                if attempts > max_retries:
                    raise

    # -- unsupported compound control ------------------------------------
    def savepoint(self, name: str) -> None:
        raise FeatureNotSupportedError(
            "savepoints are not supported on sharded sessions")

    rollback_to_savepoint = savepoint
    release_savepoint = savepoint

    # ------------------------------------------------------------------
    # DML statements
    # ------------------------------------------------------------------
    def select(self, table: str, where: Optional[Predicate] = None):
        if self._replica_mode:
            return self._replica_select(table, where)
        shards = self._route(table, where)
        return self._statement(shards,
                               lambda sess: sess.select(table, where),
                               _merge_concat)

    def scan_rows(self, table: str, where: Optional[Predicate] = None):
        if self._replica_mode:
            return self._replica_select(table, where)
        shards = self._route(table, where)
        return self._statement(shards,
                               lambda sess: sess.scan_rows(table, where),
                               _merge_concat)

    def select_for_update(self, table: str,
                          where: Optional[Predicate] = None):
        self._forbid_replica_write()
        shards = self._route(table, where)
        return self._statement(
            shards, lambda sess: sess.select_for_update(table, where),
            _merge_concat)

    def insert(self, table: str, row: Dict[str, Any]):
        self._forbid_replica_write()
        shard = self.sdb.partitioner.shard_for_row(table, row)
        return self._statement([shard],
                               lambda sess: sess.insert(table, row),
                               _merge_single)

    def update(self, table: str, where: Optional[Predicate], updates):
        self._forbid_replica_write()
        shards = self._route(table, where)
        return self._statement(
            shards, lambda sess: sess.update(table, where, updates),
            _merge_sum)

    def delete(self, table: str, where: Optional[Predicate] = None):
        self._forbid_replica_write()
        shards = self._route(table, where)
        return self._statement(
            shards, lambda sess: sess.delete(table, where), _merge_sum)

    def scan_aggregate(self, table: str, specs,
                       where: Optional[Predicate] = None):
        if self._replica_mode:
            raise FeatureNotSupportedError(
                "aggregate pushdown is not routed to replicas")
        specs = [tuple(s) for s in specs]
        shards = self._route(table, where)
        if len(shards) == 1:
            return self._statement(
                shards, lambda sess: sess.scan_aggregate(table, specs,
                                                         where),
                _merge_single)
        # AVG cannot be merged from per-shard AVGs: fan out SUM+COUNT
        # and recombine (NULL semantics preserved: empty input -> None).
        expanded: List[Tuple[str, Optional[str]]] = []
        slots: List[Tuple[str, int, int]] = []
        for func, col in specs:
            if func == "AVG":
                slots.append((func, len(expanded), len(expanded) + 1))
                expanded.append(("SUM", col))
                expanded.append(("COUNT", col))
            else:
                slots.append((func, len(expanded), -1))
                expanded.append((func, col))
        return self._statement(
            shards,
            lambda sess: sess.scan_aggregate(table, expanded, where),
            lambda parts: self._merge_aggregates(slots, parts))

    @staticmethod
    def _merge_aggregates(slots, parts: List[List[Any]]) -> List[Any]:
        merged: List[Any] = []
        for func, i, j in slots:
            col = [part[i] for part in parts]
            if func == "COUNT":
                merged.append(sum(v for v in col if v is not None))
            elif func == "SUM":
                vals = [v for v in col if v is not None]
                merged.append(sum(vals) if vals else None)
            elif func in ("MIN", "MAX"):
                vals = [v for v in col if v is not None]
                merged.append((min(vals) if func == "MIN" else max(vals))
                              if vals else None)
            elif func == "AVG":
                total = sum(v for v in col if v is not None)
                count = sum(v for part in parts
                            if (v := part[j]) is not None)
                merged.append(total / count if count else None)
            else:
                raise FeatureNotSupportedError(
                    f"cannot merge {func} across shards")
        return merged

    # ------------------------------------------------------------------
    # routing / branches
    # ------------------------------------------------------------------
    def _route(self, table: str, where: Optional[Predicate]) -> List[int]:
        return self.sdb.partitioner.shards_for_predicate(table, where)

    def _branch(self, shard: int):
        sess = self._branches.get(shard)
        if sess is not None:
            return sess
        assert self.gid is not None
        if (self.isolation.uses_ssi and self._branch_epochs):
            # A late branch: restart if a multi-shard commit became
            # visible between this snapshot and an earlier branch's.
            self.sdb.certifier.check_branch_coherence(
                self.gid, self._branch_epochs, shard)
        # Read the epoch *before* the snapshot: a commit registering
        # in between is conservatively treated as post-snapshot.
        epoch = self.sdb.certifier.epoch
        sess = self._open_branch(shard)
        self._run_on(shard, sess.begin, self.isolation,
                     read_only=self.read_only)
        self.sdb.certifier.note_branch(self.gid, shard, sess.txn.xid)
        self._branch_epochs[shard] = epoch
        self._branches[shard] = sess
        return sess

    def _open_branch(self, shard: int):
        """Subclass hook: how a branch session is created."""
        return self.sdb.shards[shard].session()

    def _run_on(self, shard: int, fn: Callable, *args, **kw):
        """Subclass hook: run one engine call against ``shard`` (the
        threaded router routes this through the shard's engine latch)."""
        return fn(*args, **kw)

    def _map(self, calls: List[Tuple[int, Callable]]
             ) -> List[Tuple[int, Any, Optional[BaseException]]]:
        """Subclass hook: run independent per-shard thunks, returning
        (shard, result, exception) triples in input order. The base
        implementation is sequential; the threaded router fans out."""
        out = []
        for shard, fn in calls:
            try:
                out.append((shard, fn(), None))
            except BaseException as exc:  # noqa: BLE001 - collected
                out.append((shard, None, exc))
        return out

    # ------------------------------------------------------------------
    # statement machinery (WouldBlock-resumable fan-out)
    # ------------------------------------------------------------------
    def _statement(self, shards: List[int], fn: Callable,
                   merge: Callable[[List[Any]], Any]):
        if self._pending is not None:
            raise InvalidTransactionStateError(
                "a statement is suspended; resume() it first")
        if self._failed:
            raise InvalidTransactionStateError(
                "current transaction is aborted, commands ignored until "
                "end of transaction block")
        autocommit = self.gid is None
        if autocommit:
            self.begin(self.default_isolation)
        gen = self._fanout(sorted(set(shards)), fn, merge)
        return self._drive(gen, autocommit)

    def _fanout(self, shards: List[int], fn: Callable,
                merge: Callable) -> Iterator:
        results = []
        for shard in shards:
            sess = self._branch(shard)
            try:
                result = self._run_on(shard, fn, sess)
            except WouldBlock as wb:
                result = yield from self._await_branch(shard, sess, wb)
            results.append(result)
        return merge(results)

    def _await_branch(self, shard: int, sess, wb: WouldBlock) -> Iterator:
        while True:
            yield wb.condition
            try:
                return self._run_on(shard, sess.resume)
            except WouldBlock as again:
                wb = again

    def _drive(self, gen: Iterator, autocommit: bool):
        try:
            condition = next(gen)
        except StopIteration as stop:
            return self._finish_statement(stop.value, autocommit)
        except ReproError as exc:
            self._statement_failed(autocommit, exc)
            raise
        self._pending = gen
        self._pending_autocommit = autocommit
        raise WouldBlock(condition, session=self)

    def resume(self):
        if self._pending is None:
            raise InvalidTransactionStateError("no suspended statement")
        gen = self._pending
        try:
            condition = next(gen)
        except StopIteration as stop:
            autocommit = self._pending_autocommit
            self._pending = None
            return self._finish_statement(stop.value, autocommit)
        except ReproError as exc:
            autocommit = self._pending_autocommit
            self._pending = None
            self._statement_failed(autocommit, exc)
            raise
        raise WouldBlock(condition, session=self)

    def _finish_statement(self, value, autocommit: bool):
        self._pending = None
        if autocommit:
            self.commit()
        return value

    def _statement_failed(self, autocommit: bool, exc: Exception) -> None:
        if self.gid is None:
            return
        self._failed = True
        if autocommit:
            self.rollback()

    # ------------------------------------------------------------------
    # abort / cleanup
    # ------------------------------------------------------------------
    def _abort_all(self, gid: str) -> bool:
        self._rollback_live_branches()
        self.sdb.certifier.abort(gid)
        self._reset()
        return False

    def _rollback_live_branches(self) -> None:
        for shard, sess in self._branches.items():
            if sess.in_transaction():
                txn = sess.txn
                if txn.status in (TxnStatus.ACTIVE, TxnStatus.FAILED):
                    self._run_on(shard, sess.rollback)
                else:
                    sess.txn = None  # already aborted/committed: detach

    def _reset(self) -> None:
        self.gid = None
        self.isolation = None
        self.read_only = False
        self._replica_mode = False
        self._branches = {}
        self._branch_epochs = {}
        self._failed = False
        self._pending = None

    def _require_txn(self, allow_failed: bool = False) -> str:
        if self.gid is None:
            raise InvalidTransactionStateError("no transaction in progress")
        if self._failed and not allow_failed:
            raise InvalidTransactionStateError(
                "current transaction is aborted, commands ignored until "
                "end of transaction block")
        return self.gid

    def _forbid_replica_write(self) -> None:
        if self._replica_mode:
            raise ReadOnlyTransactionError(
                "cannot execute writes in a READ ONLY DEFERRABLE "
                "transaction")

    # ------------------------------------------------------------------
    # DEFERRABLE: safe-snapshot replica routing (sections 4.3 / 7.2)
    # ------------------------------------------------------------------
    def _replica_select(self, table: str, where: Optional[Predicate]):
        from repro.replication.replica import ReplicaReadMode
        shards = self._route(table, where)
        rows: List[Dict[str, Any]] = []
        for shard in sorted(set(shards)):
            replica = self.sdb.replicas[shard]
            rows.extend(self._run_on(
                shard, replica.query, table, where,
                mode=ReplicaReadMode.WAIT_SAFE))
        return rows
