"""Session: the per-connection public API.

Statements are PostgreSQL-flavoured:

* with no open transaction, each statement runs in its own implicit
  transaction (autocommit);
* a failed statement puts the transaction in the FAILED state and only
  ROLLBACK / ROLLBACK TO SAVEPOINT are accepted afterwards;
* statements that must wait raise :class:`repro.errors.WouldBlock`;
  the deterministic scheduler resumes them transparently, and direct
  callers may call :meth:`Session.resume` after resolving the
  conflict.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.engine.isolation import IsolationLevel
from repro.engine.predicate import AlwaysTrue, Predicate
from repro.engine.transaction import Subtransaction, Transaction, TxnStatus
from repro.errors import (InvalidTransactionStateError, RetryableError,
                          ReproError, SerializationFailure, WouldBlock)
from repro.locks.modes import LockMode
from repro.storage.tuple import TID

Updates = Union[Dict[str, Any], Callable[[Dict[str, Any]], Dict[str, Any]]]


def _compose(*gens) -> Iterator:
    result = None
    for gen in gens:
        result = yield from gen
    return result


class Session:
    """One client connection."""

    def __init__(self, db, session_id: int,
                 default_isolation: IsolationLevel) -> None:
        self.db = db
        self.session_id = session_id
        self.default_isolation = default_isolation
        self.txn: Optional[Transaction] = None
        self._pending: Optional[Iterator] = None
        self._pending_autocommit = False
        self._pending_is_begin = False
        #: Scheduler-driven sessions surface voluntary mid-scan Yields
        #: (repro.waits.Yield) as WouldBlock so clients interleave;
        #: direct callers run straight through them.
        self.cooperative = False
        #: Real-thread wait handler (repro.server). When set, a wait
        #: condition is handed to the hook -- which parks the calling
        #: OS thread on the engine latch's condition variable until the
        #: condition is ready (or raises a timeout error) -- and the
        #: statement then continues in place; WouldBlock is never
        #: raised. When None (the default, and always under the
        #: deterministic scheduler) behaviour is byte-identical to the
        #: seed. Yields reach the hook only when ``cooperative`` is
        #: also set, mirroring the scheduler contract.
        self.wait_hook: Optional[Callable[[Any], None]] = None

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------
    def begin(self, isolation: Optional[IsolationLevel] = None, *,
              read_only: bool = False, deferrable: bool = False
              ) -> Transaction:
        """BEGIN [ISOLATION LEVEL ...] [READ ONLY [, DEFERRABLE]].

        A DEFERRABLE transaction may suspend (WouldBlock) until a safe
        snapshot is available (section 4.3).
        """
        if self.txn is not None:
            raise InvalidTransactionStateError(
                "a transaction is already in progress")
        if self._pending is not None:
            raise InvalidTransactionStateError("a statement is suspended")
        iso = isolation or self.default_isolation
        gen = self.db.begin_gen(iso, read_only=read_only,
                                deferrable=deferrable)
        txn = self._drive(gen, autocommit=False, is_begin=True)
        return txn

    def commit(self) -> bool:
        """COMMIT. Returns True on a real commit; committing a FAILED
        transaction rolls back instead and returns False (PostgreSQL's
        behaviour for COMMIT after an error)."""
        txn = self._require_txn(allow_failed=True)
        self.txn = None
        self._pending = None
        if txn.status is TxnStatus.FAILED:
            txn.status = TxnStatus.ACTIVE
            self.db.abort_txn(txn)
            return False
        try:
            self.db.commit_txn(txn)
        except RetryableError:
            self.db.stats.serialization_failures += 1
            raise
        return True

    def rollback(self) -> None:
        txn = self._require_txn(allow_failed=True)
        self.txn = None
        self._pending = None
        if txn.status is TxnStatus.FAILED:
            txn.status = TxnStatus.ACTIVE
        self.db.abort_txn(txn)

    def prepare_transaction(self, gid: str) -> None:
        """PREPARE TRANSACTION 'gid' (two-phase commit, section 7.1)."""
        txn = self._require_txn()
        try:
            self.db.prepare_txn(txn, gid)
        except RetryableError:
            self.db.stats.serialization_failures += 1
            self.txn = None
            raise
        self.txn = None  # the prepared transaction detaches

    # -- savepoints (section 7.3) ----------------------------------------
    def savepoint(self, name: str) -> None:
        txn = self._require_txn()
        sub_xid = self.db.xids.assign()
        self.db.clog.register(sub_xid, parent=txn.current_xid)
        txn.subxacts.append(Subtransaction(name, sub_xid))
        txn.all_xids.add(sub_xid)
        if txn.sxact is not None:
            self.db.ssi.register_subxact(txn.sxact, sub_xid)

    def rollback_to_savepoint(self, name: str) -> None:
        """Aborts the subtransactions inside the savepoint. SIREAD
        locks acquired inside are kept: the data read may have been
        externalized (section 7.3)."""
        txn = self._require_txn(allow_failed=True)
        names = [s.name for s in txn.subxacts]
        if name not in names:
            raise InvalidTransactionStateError(f"no savepoint {name!r}")
        keep = names.index(name)
        dropped = txn.subxacts[keep:]
        txn.subxacts = txn.subxacts[:keep]
        doomed_xids = []
        for sub in dropped:
            doomed_xids.append(sub.xid)
            doomed_xids.extend(sub.merged)
        self.db.clog.set_aborted(doomed_xids)
        if txn.status is TxnStatus.FAILED:
            txn.status = TxnStatus.ACTIVE
        self._pending = None
        # Re-establish the savepoint itself (PostgreSQL keeps it).
        self.savepoint(name)

    def release_savepoint(self, name: str) -> None:
        txn = self._require_txn()
        names = [s.name for s in txn.subxacts]
        if name not in names:
            raise InvalidTransactionStateError(f"no savepoint {name!r}")
        # Subtransactions merge into their parent frame: they commit or
        # abort with it.
        keep = names.index(name)
        released = txn.subxacts[keep:]
        txn.subxacts = txn.subxacts[:keep]
        merged = []
        for sub in released:
            merged.append(sub.xid)
            merged.extend(sub.merged)
        if txn.subxacts:
            txn.subxacts[-1].merged.extend(merged)
        else:
            txn.merged_subs.extend(merged)

    # ------------------------------------------------------------------
    # DML statements
    # ------------------------------------------------------------------
    def select(self, table: str, where: Optional[Predicate] = None
               ) -> List[Dict[str, Any]]:
        pred = where or AlwaysTrue()
        return self._statement(
            table, LockMode.ACCESS_SHARE,
            lambda txn: self.db.executor.select_gen(txn, table, pred))

    def scan_rows(self, table: str, where: Optional[Predicate] = None
                  ) -> List[Dict[str, Any]]:
        """SELECT returning zero-copy row views (same visibility,
        locking, and ordering as select()).

        The returned dicts are the live heap tuples: callers MUST NOT
        mutate them or hold them across statements -- copy with
        ``dict(row)`` for anything longer-lived. The SQL layer reads
        through this, so no statement pays a per-row dict copy it
        does not need.
        """
        pred = where or AlwaysTrue()
        return self._statement(
            table, LockMode.ACCESS_SHARE,
            lambda txn: self.db.executor.scan_rows_gen(txn, table, pred))

    def scan_aggregate(self, table: str, specs,
                       where: Optional[Predicate] = None) -> List[Any]:
        """Aggregate pushdown scan: fold ``specs`` -- (func, column)
        pairs, column None for COUNT(*) -- page-at-a-time during the
        scan and return one value per spec. Same visibility, locking,
        and conflict flagging as select(); no row list is built."""
        pred = where or AlwaysTrue()
        return self._statement(
            table, LockMode.ACCESS_SHARE,
            lambda txn: self.db.executor.scan_aggregate_gen(
                txn, table, pred, specs))

    def select_for_update(self, table: str,
                          where: Optional[Predicate] = None
                          ) -> List[Dict[str, Any]]:
        pred = where or AlwaysTrue()
        return self._statement(
            table, LockMode.ROW_SHARE,
            lambda txn: self.db.executor.select_for_update_gen(
                txn, table, pred))

    def insert(self, table: str, row: Dict[str, Any]) -> TID:
        return self._statement(
            table, LockMode.ROW_EXCLUSIVE,
            lambda txn: self.db.executor.insert_gen(txn, table, row))

    def update(self, table: str, where: Optional[Predicate],
               updates: Updates) -> int:
        pred = where or AlwaysTrue()
        return self._statement(
            table, LockMode.ROW_EXCLUSIVE,
            lambda txn: self.db.executor.update_gen(txn, table, pred,
                                                    updates))

    def delete(self, table: str, where: Optional[Predicate] = None) -> int:
        pred = where or AlwaysTrue()
        return self._statement(
            table, LockMode.ROW_EXCLUSIVE,
            lambda txn: self.db.executor.delete_gen(txn, table, pred))

    # ------------------------------------------------------------------
    # explicit locking and DDL
    # ------------------------------------------------------------------
    def lock_table(self, table: str,
                   mode: LockMode = LockMode.ACCESS_EXCLUSIVE) -> None:
        """LOCK TABLE: one of the paper's section 2.2 workarounds for
        snapshot isolation anomalies."""
        rel = self.db.relation(table)
        self._statement(table, mode, lambda txn: iter(()), ddl=False)

    def drop_index(self, index_name: str) -> None:
        """DROP INDEX: transfers surviving index-granularity SIREAD
        locks to the heap relation (section 5.2.1)."""
        rel, index = self.db.index_by_name(index_name)

        def action(txn):
            rel.drop_index(index_name)
            self.db.ssi.lockmgr.transfer_index_to_heap(index.oid, rel.oid)
            self.db.statscat.bump_epoch()  # access path gone: flush plans
            return None
            yield  # pragma: no cover

        self._statement(rel.name, LockMode.ACCESS_EXCLUSIVE, action)

    def analyze(self, table: Optional[str] = None):
        """ANALYZE: collect planner statistics (setup-time operation,
        like create_table; runs outside any transaction)."""
        return self.db.analyze(table)

    def explain(self, table: str, where: Optional[Predicate] = None):
        """EXPLAIN for an engine-API scan: the plan the next
        select/update/delete with this predicate would use."""
        from repro.engine.planner import explain_scan
        return explain_scan(self.db, self.db.relation(table),
                            where or AlwaysTrue())

    def recluster_table(self, table: str) -> None:
        """CLUSTER-style physical rewrite: tuples move, so page- and
        tuple-granularity SIREAD locks are promoted to relation
        granularity (section 5.2.1). Dead tuples are dropped and
        indexes rebuilt."""
        rel = self.db.relation(table)

        def action(txn):
            clog = self.db.clog
            horizon = min((t.snapshot.xmin
                           for t in self.db.active_transactions()
                           if t.snapshot is not None and t is not txn),
                          default=self.db.xids.next_xid)
            from repro.mvcc.visibility import tuple_is_dead

            def keep(tup):
                if clog.did_abort(tup.xmin):  # repro: noqa(CLOG001) -- CLUSTER rewrite drops aborted inserts regardless of snapshot
                    return False
                return not tuple_is_dead(tup, horizon, clog)

            # Note: surviving versions lose their forward ctid chain;
            # harmless because the ACCESS EXCLUSIVE lock guarantees no
            # in-flight writers, and post-DDL writers target the
            # newest version directly.
            rel.heap = rel.heap.rewrite(keep)
            for name in list(rel.indexes):
                old = rel.indexes.pop(name)
                rel.indexes[name] = self._rebuild_index(rel, old)
            self.db.ssi.lockmgr.promote_for_rewrite(
                rel.oid, [i.oid for i in rel.indexes.values()])
            self.db.statscat.bump_epoch()  # rewrite: stats + plans stale
            return None
            yield  # pragma: no cover

        self._statement(table, LockMode.ACCESS_EXCLUSIVE, action)

    def _rebuild_index(self, rel, old):
        from repro.index import BTreeIndex, HashIndex
        if isinstance(old, HashIndex):
            new = HashIndex(old.oid, old.name, old.column, unique=old.unique)
        else:
            new = BTreeIndex(old.oid, old.name, old.column, unique=old.unique,
                             page_size=self.db.config.btree_page_size)
        for tup in rel.heap.scan():
            new.insert_entry(tup.data.get(old.column), tup.tid)
        return new

    # ------------------------------------------------------------------
    # statement machinery
    # ------------------------------------------------------------------
    def _require_txn(self, allow_failed: bool = False) -> Transaction:
        if self.txn is None:
            raise InvalidTransactionStateError("no transaction in progress")
        if self.txn.status is TxnStatus.FAILED and not allow_failed:
            raise InvalidTransactionStateError(
                "current transaction is aborted, commands ignored until "
                "end of transaction block")
        if self.txn.status not in (TxnStatus.ACTIVE, TxnStatus.FAILED):
            raise InvalidTransactionStateError(
                f"transaction is {self.txn.status.value}")
        return self.txn

    def _table_lock_gen(self, txn: Transaction, table: str,
                        mode: LockMode) -> Iterator:
        rel = self.db.relation(table)
        request = self.db.lockmgr.acquire(txn.xid, ("rel", rel.oid), mode)  # repro: noqa(LOCK002) -- table lock held to txn end, released by release_all at commit/abort
        while request is not None and not request.granted:
            yield request

    def _statement(self, table: str, lock_mode: LockMode,
                   gen_factory, ddl: bool = False):
        if self._pending is not None:
            raise InvalidTransactionStateError(
                "a statement is suspended; resume() it first")
        autocommit = self.txn is None
        if autocommit:
            self.begin(self.default_isolation)
        txn = self._require_txn()
        txn.start_statement(self.db.take_snapshot()
                            if txn.isolation.statement_snapshot else None)
        self.db.stats.statements += 1
        gen = _compose(self._table_lock_gen(txn, table, lock_mode),
                       gen_factory(txn))
        return self._drive(gen, autocommit=autocommit)

    def _next_condition(self, gen: Iterator):
        """Advance ``gen`` to the next wait condition that must surface
        as WouldBlock. Skips Yields for non-cooperative direct callers;
        hands every condition to ``wait_hook`` (which blocks the real
        thread until ready) when one is installed, in which case the
        generator runs to completion and StopIteration propagates."""
        from repro.waits import Yield
        condition = next(gen)
        while True:
            if isinstance(condition, Yield) and not self.cooperative:
                condition = next(gen)
            elif self.wait_hook is not None:
                self.wait_hook(condition)
                condition = next(gen)
            else:
                return condition

    def _drive(self, gen: Iterator, autocommit: bool,
               is_begin: bool = False):
        try:
            condition = self._next_condition(gen)
        except StopIteration as stop:
            return self._finish_statement(stop.value, autocommit, is_begin)
        except ReproError as exc:
            self._statement_failed(autocommit, exc)
            raise
        self._pending = gen
        self._pending_autocommit = autocommit
        self._pending_is_begin = is_begin
        raise WouldBlock(condition, session=self)

    def resume(self):
        """Continue a suspended statement after its wait condition
        cleared (or to re-check it)."""
        if self._pending is None:
            raise InvalidTransactionStateError("no suspended statement")
        gen = self._pending
        try:
            condition = self._next_condition(gen)
        except StopIteration as stop:
            autocommit = self._pending_autocommit
            is_begin = self._pending_is_begin
            self._pending = None
            return self._finish_statement(stop.value, autocommit, is_begin)
        except ReproError as exc:
            autocommit = self._pending_autocommit
            self._pending = None
            self._statement_failed(autocommit, exc)
            raise
        raise WouldBlock(condition, session=self)

    @property
    def blocked(self) -> bool:
        return self._pending is not None

    def _finish_statement(self, value, autocommit: bool, is_begin: bool):
        self._pending = None
        if is_begin:
            self.txn = value
            return value
        if autocommit:
            self.commit()
        return value

    def _statement_failed(self, autocommit: bool,
                          exc: Optional[Exception] = None) -> None:
        """A statement raised: the transaction enters the FAILED state
        (autocommit transactions roll back immediately)."""
        if isinstance(exc, RetryableError):
            self.db.stats.serialization_failures += 1
            if self.db.obs.tracer is not None:
                self.db.obs.tracer.emit(
                    "stmt.fail", self.txn.xid if self.txn else None,
                    session=self.session_id, error=type(exc).__name__,
                    sqlstate=getattr(exc, "sqlstate", None))
        txn = self.txn
        if txn is None:
            return
        if txn.status is TxnStatus.ACTIVE:
            txn.status = TxnStatus.FAILED
        if autocommit:
            self.rollback()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def in_transaction(self) -> bool:
        return self.txn is not None

    def run_transaction(self, fn, isolation: Optional[IsolationLevel] = None,
                        *, max_retries: int = 50, read_only: bool = False):
        """Execute ``fn(session)`` in a transaction, retrying on
        serialization failures and deadlocks -- the middleware retry
        layer the paper assumes (section 3.3). Relies on the safe-retry
        property (section 5.4) to make progress."""
        attempts = 0
        while True:
            attempts += 1
            try:
                self.begin(isolation, read_only=read_only)
                result = fn(self)
                self.commit()
                return result
            except RetryableError:
                if self.txn is not None:
                    self.rollback()
                if attempts > max_retries:
                    raise
