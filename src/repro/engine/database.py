"""The Database: shared state and transaction lifecycle."""

from __future__ import annotations

import os
import weakref
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.isolation import IsolationLevel
from repro.engine.transaction import Transaction, TxnStatus
from repro.errors import (DuplicateIndexError, DuplicateTableError,
                          InvalidTransactionStateError, UndefinedIndexError,
                          UndefinedTableError)
from repro.index import BTreeIndex, HashIndex
from repro.locks.manager import LockManager
from repro.locks.modes import LockMode
from repro.mvcc.clog import CommitLog
from repro.mvcc.snapshot import Snapshot
from repro.mvcc.xid import XidAllocator
from repro.obs import Observability, StatsView, install_counter_properties
from repro.ssi.manager import SSIManager
from repro.storage.buffer import BufferManager
from repro.storage.relation import Relation
from repro.storage.stats import RelationStats, StatsCatalog
from repro.waits import SafeSnapshotWait


class EngineStats(StatsView):
    """Operational counters (benchmark inputs).

    A thin attribute view over ``engine.*`` registry counters
    (repro.obs): the attribute API is unchanged, but snapshots/diffs
    and the benchmark reporter see the same numbers."""

    _PREFIX = "engine."
    _FIELDS = ("begins", "commits", "aborts", "statements", "tuples_read",
               "tuples_written", "serialization_failures", "deadlocks",
               "update_conflicts", "snapshots_taken", "deferrable_retries")


install_counter_properties(EngineStats)


class Database:
    """One database instance: catalog plus all shared managers.

    Thread-unsafe by design: concurrency is expressed through multiple
    sessions driven by the deterministic scheduler (repro.sim), which
    interleaves their statements; statements suspend on wait conditions
    rather than blocking the process.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.obs = Observability(self.config.obs)
        self.clog = CommitLog()
        self.xids = XidAllocator()
        self.lockmgr = LockManager(obs=self.obs)
        self.ssi = SSIManager(self.config.ssi, self.clog, obs=self.obs)
        self.buffer = BufferManager(self.config.buffer_pages, obs=self.obs)
        self.stats = EngineStats(self.obs.metrics)
        #: Performance-layer counters (see DESIGN.md, "Performance layer").
        self.hint_counter = self.obs.metrics.counter("perf.hint_hits")
        self.vismap_counter = self.obs.metrics.counter("perf.vismap_skips")
        #: ANALYZE statistics catalog + cache-invalidation epoch.
        self.statscat = StatsCatalog()
        self.executor = Executor(self)
        #: Cost-based scan planner + engine-level plan cache.
        from repro.engine.planner import Planner
        self.planner = Planner(self)
        self._relations: Dict[str, Relation] = {}
        self._next_oid = 1
        #: Active transactions (including prepared ones) by top xid.
        self._active: Dict[int, Transaction] = {}
        #: Prepared transactions by global identifier (section 7.1).
        self._prepared: Dict[str, Transaction] = {}
        self._next_session_id = 1
        #: Attached replicas (section 7.2), held weakly: a dropped
        #: replica stops being fed.
        self._replicas: List[weakref.ref] = []  # repro: guarded-by(ENGINE)
        #: Optional history recorder (repro.verify).
        self.recorder = None
        if self.config.record_history:
            from repro.verify.history import HistoryRecorder
            self.recorder = HistoryRecorder()
        #: Runtime invariant sanitizers (repro.analysis); None unless
        #: enabled by config or the REPRO_SANITIZE environment variable.
        #: Lazily imported so the analysis package costs nothing when off.
        #: Disk persistence (repro.storage.durable): physical WAL +
        #: page files + crash recovery. None unless the durability
        #: toggle is on -- every hook below is one ``is not None`` test,
        #: keeping the off path byte-identical to the in-memory engine.
        self.durability = None
        if self.config.durability.enabled:
            from repro.storage.durable.manager import DurabilityManager
            self.durability = DurabilityManager(self,
                                                self.config.durability)
        self.sanitizers = None
        if self.config.sanitize.enabled or os.environ.get("REPRO_SANITIZE"):
            from repro.analysis.sanitize import SanitizerRunner
            self.sanitizers = SanitizerRunner(self)
        self._register_gauges()
        if self.durability is not None:
            # Fresh data directory: publish the initial checkpoint that
            # anchors recovery. No-op while recovery itself runs.
            self.durability.startup()

    def _register_gauges(self) -> None:
        """Derived metrics, evaluated lazily at snapshot time (so they
        cost nothing on the hot path). The lambdas read ``self.ssi``
        etc. at call time, surviving simulate_crash_recovery's manager
        replacement."""
        m = self.obs.metrics
        m.gauge("sireads.live").set_function(
            lambda: self.ssi.lockmgr.lock_count)
        m.gauge("sireads.peak").set_function(
            lambda: self.ssi.lockmgr.peak_lock_count)
        m.gauge("pages.touched").set_function(
            lambda: self.buffer.hits + self.buffer.misses)
        m.gauge("pages.missed").set_function(lambda: self.buffer.misses)
        m.gauge("locks.deadlocks").set_function(
            lambda: self.lockmgr.deadlocks_detected)
        m.gauge("txns.active").set_function(lambda: len(self._active))

    # ------------------------------------------------------------------
    # catalog / DDL
    # ------------------------------------------------------------------
    def _alloc_oid(self) -> int:
        oid = self._next_oid
        self._next_oid += 1
        return oid

    def create_table(self, name: str, columns: Sequence[str],
                     key: Optional[str] = None) -> Relation:
        """Create a table; ``key`` adds a unique B+-tree primary index.

        Setup-time operation: assumes no concurrent transactions (as
        does create_index), matching how the benchmarks load data.
        """
        if name in self._relations:
            raise DuplicateTableError(f"relation {name!r} already exists")
        rel = Relation(self._alloc_oid(), name, columns,
                       self.config.heap_page_size)
        self._relations[name] = rel
        if self.durability is not None:
            self.durability.on_create_table(rel)
        if key is not None:
            self.create_index(name, key, name=f"{name}_pkey", unique=True)
        self.statscat.bump_epoch()  # new relation: flush cached plans
        return rel

    def drop_table(self, name: str) -> None:
        rel = self.relation(name)
        del self._relations[name]
        self.statscat.forget(rel.oid)  # drops stats + bumps the epoch
        if self.durability is not None:
            self.durability.on_drop_table(rel)
        # Outstanding SIREAD locks on a dropped table can never
        # conflict again (the oid is never reused).

    def create_index(self, table: str, column: str, *,
                     name: Optional[str] = None, unique: bool = False,
                     using: str = "btree"):
        rel = self.relation(table)
        index_name = name or f"{table}_{column}_{using}_idx"
        if index_name in rel.indexes:
            raise DuplicateIndexError(f"index {index_name!r} already exists")
        oid = self._alloc_oid()
        if using == "btree":
            index = BTreeIndex(oid, index_name, column,
                               unique=unique, page_size=self.config.btree_page_size)
        elif using == "hash":
            index = HashIndex(oid, index_name, column, unique=unique)
        elif using == "gist":
            from repro.index.gist import GiSTIndex
            index = GiSTIndex(oid, index_name, column, unique=unique,
                              node_size=self.config.btree_page_size // 4)
        else:
            raise ValueError(f"unknown index access method {using!r}")
        # Build from every non-dead heap version.
        for tup in rel.heap.scan():
            if not self.clog.did_abort(tup.xmin):  # repro: noqa(CLOG001) -- index build skips aborted inserters; no snapshot exists yet
                index.insert_entry(tup.data.get(column), tup.tid)
        rel.add_index(index)
        if self.durability is not None:
            self.durability.on_create_index(index, table)
        self.statscat.bump_epoch()  # new access path: flush cached plans
        return index

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UndefinedTableError(f"relation {name!r} does not exist") from None

    def relations(self) -> Dict[str, Relation]:
        return dict(self._relations)

    def index_by_name(self, name: str):
        for rel in self._relations.values():
            if name in rel.indexes:
                return rel, rel.indexes[name]
        raise UndefinedIndexError(f"index {name!r} does not exist")

    # ------------------------------------------------------------------
    # sessions and snapshots
    # ------------------------------------------------------------------
    def session(self, default_isolation: IsolationLevel =
                IsolationLevel.READ_COMMITTED):
        from repro.engine.session import Session
        sid = self._next_session_id
        self._next_session_id += 1
        return Session(self, sid, default_isolation)

    def take_snapshot(self) -> Snapshot:
        """The set of transactions whose effects are visible
        (section 5.1): everything not in progress right now."""
        self.stats.snapshots_taken += 1
        xip = set()
        for txn in self._active.values():
            xip.update(txn.all_xids)
        xmin = min((txn.xid for txn in self._active.values()),
                   default=self.xids.next_xid)
        return Snapshot(xmin=xmin, xmax=self.xids.next_xid,
                        xip=frozenset(xip))

    def active_transactions(self) -> List[Transaction]:
        return list(self._active.values())

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def begin_gen(self, isolation: IsolationLevel, *, read_only: bool,
                  deferrable: bool) -> Iterator:
        """Start a transaction; yields SafeSnapshotWait while a
        DEFERRABLE transaction waits for a safe snapshot (section 4.3),
        retrying with fresh snapshots until one is proven safe."""
        if deferrable and not read_only:
            raise InvalidTransactionStateError(
                "DEFERRABLE requires READ ONLY")
        while True:
            xid = self.xids.assign()
            self.clog.register(xid)
            self.lockmgr.acquire(xid, ("xid", xid), LockMode.EXCLUSIVE)  # repro: noqa(LOCK002) -- xid lock held to txn end, released by release_all at commit/abort
            snapshot = self.take_snapshot()
            txn = Transaction(xid, isolation, snapshot, read_only=read_only,
                              deferrable=deferrable)
            self._active[xid] = txn
            self.stats.begins += 1
            if self.obs.tracer is not None:
                self.obs.tracer.emit("txn.begin", xid,
                                     isolation=isolation.value,
                                     read_only=read_only,
                                     deferrable=deferrable)
                self.obs.tracer.emit("txn.snapshot", xid,
                                     xmin=snapshot.xmin, xmax=snapshot.xmax)
            if self.recorder is not None:
                self.recorder.on_begin(xid, snapshot, isolation)
            if isolation.uses_ssi:
                sx = self.ssi.begin(xid, snapshot, read_only=read_only,
                                    deferrable=deferrable)
                txn.sxact = sx
                if deferrable and not sx.ro_safe:
                    while not (sx.ro_safe or sx.ro_unsafe):
                        yield SafeSnapshotWait(sx)
                    if not sx.ro_safe:
                        # Unsafe: give up this snapshot and retry with
                        # a new one (section 4.3).
                        self.stats.deferrable_retries += 1
                        self._discard_txn(txn)
                        continue
            return txn

    def _discard_txn(self, txn: Transaction) -> None:
        if txn.sxact is not None:
            self.ssi.abort(txn.sxact)
        self.clog.set_aborted(txn.live_xids())
        self.lockmgr.release_all(txn.xid)
        self._active.pop(txn.xid, None)

    def commit_txn(self, txn: Transaction) -> None:
        """Commit; raises SerializationFailure (and aborts the
        transaction) if the pre-commit dangerous-structure check fails
        (section 5.4, commit-time rule)."""
        if txn.status not in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
            raise InvalidTransactionStateError(
                f"cannot commit transaction in state {txn.status.value}")
        if txn.sxact is not None and txn.status is not TxnStatus.PREPARED:
            try:
                self.ssi.precommit_check(txn.sxact)
            except Exception:
                self.abort_txn(txn)
                raise
        self.clog.set_committed(txn.live_xids())
        txn.status = TxnStatus.COMMITTED
        if txn.sxact is not None:
            self.ssi.commit(txn.sxact)
        self._active.pop(txn.xid, None)
        self.lockmgr.release_all(txn.xid)
        self.stats.commits += 1
        if self.obs.tracer is not None:
            self.obs.tracer.emit(
                "txn.commit", txn.xid,
                commit_seq=(txn.sxact.commit_seq
                            if txn.sxact is not None else None))
        if self._replicas and (txn.wal_changes or not txn.read_only):
            self._ship(txn)
        if self.durability is not None:
            # Physical WAL: the commit is acknowledged once its frame
            # is durable (or, with synchronous_commit off, queued).
            self.durability.on_commit(txn)
        if self.recorder is not None:
            self.recorder.on_commit(txn.xid)
        if self.sanitizers is not None:
            self.sanitizers.on_txn_end(txn)

    def abort_txn(self, txn: Transaction) -> None:
        if txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
            return
        self.clog.set_aborted(txn.live_xids())
        txn.status = TxnStatus.ABORTED
        if txn.sxact is not None:
            self.ssi.abort(txn.sxact)
        self._active.pop(txn.xid, None)
        if txn.gid is not None:
            self._prepared.pop(txn.gid, None)
        self.lockmgr.release_all(txn.xid)
        self.stats.aborts += 1
        if self.durability is not None:
            self.durability.on_abort(txn)
        if self.obs.tracer is not None:
            self.obs.tracer.emit("txn.abort", txn.xid)
        if self.recorder is not None:
            self.recorder.on_abort(txn.xid)
        if self.sanitizers is not None:
            self.sanitizers.on_txn_end(txn)

    def _ship(self, txn: Transaction) -> None:
        """Feed one commit to every live attached replica (section 7.2)."""
        from repro.replication.replica import CommitRecord
        replicas = [r for r in (ref() for ref in self._replicas)
                    if r is not None]
        self._replicas = [weakref.ref(r) for r in replicas]
        if not replicas:
            return
        marker = self._snapshot_now_safe()
        record = CommitRecord(txn.xid, list(txn.wal_changes), marker)
        for replica in replicas:
            replica.feed.append(record)
        if self.obs.tracer is not None:
            self.obs.tracer.emit("wal.ship", txn.xid,
                                 changes=len(txn.wal_changes),
                                 safe_snapshot_marker=marker)

    def attach_replica(self, replica) -> bool:
        """Feed ``replica`` every commit from now on; returns whether
        a snapshot taken now (its base copy) is safe."""
        self._replicas.append(weakref.ref(replica))
        return self._snapshot_now_safe()

    def _snapshot_now_safe(self) -> bool:
        """Would a snapshot taken right now be safe? True when no
        read/write serializable transaction is active -- the marker the
        master adds to the log stream for replicas (section 7.2)."""
        return not any(not sx.declared_read_only
                       for sx in self.ssi.active_sxacts())

    # ------------------------------------------------------------------
    # two-phase commit (section 7.1)
    # ------------------------------------------------------------------
    def prepare_txn(self, txn: Transaction, gid: str) -> None:
        if txn.status is not TxnStatus.ACTIVE:
            raise InvalidTransactionStateError(
                f"cannot prepare transaction in state {txn.status.value}")
        if gid in self._prepared:
            raise InvalidTransactionStateError(
                f"prepared transaction {gid!r} already exists")
        if txn.sxact is not None:
            try:
                # The pre-commit check must happen before PREPARE: a
                # prepared transaction can never be aborted afterwards.
                self.ssi.prepare(txn.sxact)
            except Exception:
                self.abort_txn(txn)
                raise
            # "Persist" SIREAD locks so they survive a crash.
            txn.persisted_siread = self.ssi.lockmgr.targets_held(txn.sxact)
        txn.status = TxnStatus.PREPARED
        txn.gid = gid
        self._prepared[gid] = txn
        if self.durability is not None:
            # Section 7.1: the prepare record (snapshot + SIREAD locks +
            # redo) must be durable before the vote is returned.
            self.durability.on_prepare(txn)

    def commit_prepared(self, gid: str) -> None:
        txn = self._get_prepared(gid)
        del self._prepared[gid]
        self.commit_txn(txn)

    def rollback_prepared(self, gid: str) -> None:
        txn = self._get_prepared(gid)
        txn.status = TxnStatus.ACTIVE  # make abortable
        if txn.sxact is not None:
            txn.sxact.prepared = False
        self.abort_txn(txn)

    def _get_prepared(self, gid: str) -> Transaction:
        try:
            return self._prepared[gid]
        except KeyError:
            raise InvalidTransactionStateError(
                f"prepared transaction {gid!r} does not exist") from None

    def prepared_gids(self) -> List[str]:
        return sorted(self._prepared)

    def simulate_crash_recovery(self) -> None:
        """Crash: lose all in-RAM state; recover from "disk" (the heap,
        clog, and persisted prepared-transaction records).

        Active transactions are aborted. Prepared transactions survive
        with their SIREAD locks, but the dependency graph is gone, so
        they are conservatively assumed to have rw-antidependencies
        both in and out (section 7.1).
        """
        for txn in list(self._active.values()):
            if txn.status is not TxnStatus.PREPARED:
                self.abort_txn(txn)
        self.lockmgr = LockManager(obs=self.obs)
        self.ssi = SSIManager(self.config.ssi, self.clog, obs=self.obs)
        for txn in self._active.values():  # prepared survivors
            self.lockmgr.acquire(txn.xid, ("xid", txn.xid),  # repro: noqa(LOCK002) -- re-taken for prepared survivors; released when they resolve
                                 LockMode.EXCLUSIVE)
            sx = self.ssi.register_recovered_prepared(txn.xid, txn.snapshot)
            self.ssi.lockmgr.restore_recovered(
                sx, getattr(txn, "persisted_siread", ()))  # from disk
            txn.sxact = sx

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Durability checkpoint: flush WAL, write back dirty pages and
        the CLOG/old-serxid segments, publish checkpoint.json. No-op
        (returns None) when durability is off."""
        if self.durability is not None:
            return self.durability.checkpoint()
        return None

    def close(self) -> None:
        """Clean shutdown. With durability on: drain acknowledged
        commits, take a shutdown checkpoint, close the data files.
        Otherwise a no-op -- the in-memory engine has nothing to
        release."""
        if self.durability is not None:
            self.durability.close()

    def vacuum(self, table: Optional[str] = None) -> int:
        """Remove dead tuple versions and their index entries."""
        horizon = min((txn.snapshot.xmin for txn in self._active.values()
                       if txn.snapshot is not None),
                      default=self.xids.next_xid)
        removed_total = 0
        rels = ([self.relation(table)] if table
                else list(self._relations.values()))
        for rel in rels:
            removed = rel.heap.vacuum(horizon, self.clog,
                                      hint_counter=self.hint_counter)
            removed_total += len(removed)
            for tup in removed:
                for index in rel.indexes.values():
                    index.remove_entry(tup.data.get(index.column), tup.tid)
        return removed_total

    def analyze(self, table: Optional[str] = None) -> List[RelationStats]:
        """ANALYZE [table]: rebuild planner statistics from live rows.

        Rows are counted under a fresh snapshot through the ordinary
        MVCC visibility rules (an external observer: no own-write
        view), and distribution stats are built for every indexed
        column. Installing the stats bumps the stats epoch, which
        invalidates all cached plans and prepared-statement plans.
        """
        from repro.mvcc.visibility import TxnView, tuple_visibility
        snapshot = self.take_snapshot()
        view = TxnView(xids=frozenset(), curcid=0)
        rels = ([self.relation(table)] if table
                else [self._relations[name] for name in
                      sorted(self._relations)])
        out: List[RelationStats] = []
        analyze_counter = self.obs.metrics.counter("planner.analyze_runs")
        for rel in rels:
            rows: List[Dict[str, Any]] = []
            for tup in rel.heap.scan():
                vis = tuple_visibility(tup, snapshot, view, self.clog,
                                       self.hint_counter)
                if vis.visible:
                    rows.append(tup.data)
            columns = sorted({index.column
                              for index in rel.indexes.values()})
            out.append(self.statscat.analyze_relation(rel, rows, columns))
            analyze_counter.inc()
        return out

    # ------------------------------------------------------------------
    # cost-model inputs (repro.sim)
    # ------------------------------------------------------------------
    def work_counters(self) -> Dict[str, float]:
        return {
            "tuples_read": self.stats.tuples_read,
            "tuples_written": self.stats.tuples_written,
            "hw_lock_work": self.lockmgr.work_units,
            "ssi_lock_work": self.ssi.work_units,
            "io_misses": self.buffer.misses,
            "txns": self.stats.begins + self.stats.commits + self.stats.aborts,
            "deadlocks": self.lockmgr.deadlocks_detected,
        }

    # ------------------------------------------------------------------
    # monitoring views (pg_stat_activity / pg_locks style)
    # ------------------------------------------------------------------
    def stat_activity(self):
        from repro.engine import introspection
        return introspection.stat_activity(self)

    def lock_status(self):
        from repro.engine import introspection
        return introspection.lock_status(self)

    def siread_locks(self):
        from repro.engine import introspection
        return introspection.siread_locks(self)

    def prepared_xacts(self):
        from repro.engine import introspection
        return introspection.prepared_xacts(self)

    def ssi_summary(self):
        from repro.engine import introspection
        return introspection.ssi_summary(self)

    def stat_ssi(self):
        from repro.engine import introspection
        return introspection.stat_ssi(self)

    def trace_events(self, kind: Optional[str] = None,
                     xid: Optional[int] = None):
        from repro.engine import introspection
        return introspection.trace_events(self, kind=kind, xid=xid)

    # ------------------------------------------------------------------
    # recorder hooks
    # ------------------------------------------------------------------
    def record_read(self, txn: Transaction, rel, pred, tuples) -> None:
        if self.recorder is not None:
            # The snapshot the read saw through: a phantom the reader
            # missed is an rw-antidependency only relative to it. S2PL
            # reads the latest committed state under locks.
            snapshot = (txn.snapshot if txn.isolation.snapshot_based
                        else self.take_snapshot())
            self.recorder.on_read(txn.xid, rel.oid, pred,
                                  [t.tid for t in tuples], snapshot)

    def record_write(self, txn: Transaction, rel, kind: str, old, new) -> None:
        self.statscat.note_write(rel.oid, kind)
        if self.durability is not None:
            self.durability.on_write(txn, rel, kind, old, new)
        if self.recorder is not None:
            self.recorder.on_write(txn.xid, rel.oid, kind, old, new)
