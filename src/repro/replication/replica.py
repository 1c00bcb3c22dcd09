"""Read-only replica fed by log shipping (paper section 7.2).

A replica starts from a base copy of the master (every row one
read-only master snapshot sees), then applies in commit order the
records the master feeds it while attached -- PostgreSQL's hot-standby
shape. It keeps two materialized states:

* ``latest``: everything applied -- what PostgreSQL hot standby serves
  to REPEATABLE READ (snapshot) queries. Serializable-looking queries
  here can observe the section 7.2 anomaly, because SSI's commit order
  need not match the apparent serial order.
* ``safe``: applied only up to the most recent safe point (a safe
  base copy, or a safe-snapshot marker in the stream). SERIALIZABLE
  queries are served from here, which is the paper's proposed design
  ("slave replicas will run serializable transactions only on safe
  snapshots"); they may be stale but are never anomalous. The records
  in between are held until the next marker, so a replica's memory is
  bounded by its own unsafe window.

A serializable query can also WAIT for the next safe snapshot,
mirroring DEFERRABLE behaviour on the master.
"""

from __future__ import annotations

import collections
import enum
import time  # repro: noqa(DET001) -- the WAIT-mode deadline is wall-clock by nature; it gates an error path, never the logical history
import weakref
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.engine.predicate import Func, Predicate
from repro.errors import FeatureNotSupportedError, StatementTimeout

#: (kind, relation name, old row, new row); kind in insert/update/delete.
#: The rows are the heap versions' own payload dicts, not copies: a
#: payload is never mutated after its version is stored, and readers of
#: the feed must not mutate it either.
Change = Tuple[str, str, Optional[Dict[str, Any]], Optional[Dict[str, Any]]]


@dataclass(slots=True)
class CommitRecord:
    """One committed transaction's changes, fed in commit order to the
    replicas attached at the time (``Database.commit_txn``).

    ``safe_snapshot_marker`` is the paper's proposed log-stream
    annotation (section 7.2): True when a snapshot taken just after
    this commit is safe (no read/write serializable transaction was
    active on the master), so a replica may serve SERIALIZABLE reads
    from it.
    """

    xid: int
    changes: List[Change] = field(default_factory=list)
    safe_snapshot_marker: bool = False


class ReplicaReadMode(enum.Enum):
    #: Snapshot-isolation read of everything applied (hot standby
    #: default; not serializable).
    LATEST = "latest"
    #: Serializable: read the most recent safe snapshot (may be stale).
    LATEST_SAFE = "latest_safe"
    #: Serializable, DEFERRABLE-style: catch up and wait (bounded) for
    #: a safe snapshot if none exists yet; raises retryable 57014 on
    #: timeout instead of spinning when the master emits no marker.
    WAIT_SAFE = "wait_safe"


class Replica:
    """A read-only standby. Where threads serve the master, construct
    it under the master's engine latch (``ThreadSafeEngine.run``)."""

    def __init__(self, master: Database, name: str = "standby") -> None:
        self.master = master
        self.name = name
        self._latest = Database(EngineConfig())
        self._safe = Database(EngineConfig())
        #: Shipped records not applied yet: the master appends and
        #: ``catch_up`` pops, possibly on another thread (both atomic).
        self.feed: Deque[CommitRecord] = collections.deque()
        #: Applied to ``latest``, held for ``safe`` until a safe point.
        self._held: List[CommitRecord] = []
        self.has_safe_snapshot = False
        self._base_copy()
        # Staleness of serializable reads, observable on the master's
        # metrics registry; held weakly, reading 0 once it is dropped.
        ref = weakref.ref(self)
        self.master.obs.metrics.gauge(
            "replica.safe_snapshot_lag", replica=name).set_function(
            lambda: ref().safe_snapshot_lag if ref() is not None else 0)

    def _base_copy(self) -> None:
        """Mirror the catalog into both states and copy every row one
        read-only master snapshot sees, attaching to the feed before
        that snapshot's transaction ends. The copy is a safe point
        exactly when a snapshot taken at attach is safe."""
        relations = self.master.relations()
        session = self.master.session()
        session.begin(IsolationLevel.REPEATABLE_READ, read_only=True)
        try:
            tables = {name: session.select(name) for name in relations}
            self.has_safe_snapshot = self.master.attach_replica(self)
        finally:
            session.commit()
        for db in (self._latest, self._safe):
            for name, rel in relations.items():
                db.create_table(name, rel.columns)
                for idx in rel.indexes.values():
                    db.create_index(name, idx.column, name=idx.name,
                                    unique=idx.unique, using=idx.using)
            copy = db.session()
            copy.begin()
            for name, rows in tables.items():
                for row in rows:
                    copy.insert(name, row)
            copy.commit()

    # -- log shipping -----------------------------------------------------
    def catch_up(self) -> int:
        """Apply every record shipped since the last call; returns the
        number of commit records applied."""
        applied = 0
        while self.feed:
            record = self.feed.popleft()
            _apply(self._latest, record)
            self._held.append(record)
            if record.safe_snapshot_marker:
                for held in self._held:
                    _apply(self._safe, held)
                self._held.clear()
                self.has_safe_snapshot = True
            applied += 1
        return applied

    # -- queries -------------------------------------------------------------
    @property
    def safe_snapshot_lag(self) -> int:
        """Commit records between the safe state and the latest state
        (staleness of serializable reads)."""
        return len(self._held)

    def query(self, table: str, where=None, *,
              mode: ReplicaReadMode = ReplicaReadMode.LATEST,
              wait_timeout: float = 1.0) -> List[Dict[str, Any]]:
        """Run a read-only query on the standby.

        ``WAIT_SAFE`` catches up and, when no safe snapshot exists yet,
        polls the feed for up to ``wait_timeout`` seconds
        before raising a *retryable* :class:`StatementTimeout` (57014)
        -- a master that never goes quiescent emits no marker, and a
        DEFERRABLE query must not spin forever on it.
        """
        if mode is ReplicaReadMode.LATEST:
            db = self._latest
        else:
            if mode is ReplicaReadMode.WAIT_SAFE:
                self._wait_for_safe_snapshot(wait_timeout)
            if not self.has_safe_snapshot:
                raise FeatureNotSupportedError(
                    "cannot use serializable mode on standby: no safe "
                    "snapshot available yet (section 7.2)")
            db = self._safe
        session = db.session()
        return session.select(table, where)

    def _wait_for_safe_snapshot(self, timeout: float) -> None:
        """DEFERRABLE-style wait (section 4.3, on the standby): poll
        the feed until a safe-snapshot marker appears, bounded
        by ``timeout`` seconds of wall-clock."""
        deadline = time.monotonic() + timeout
        while True:
            self.catch_up()
            if self.has_safe_snapshot:
                return
            if time.monotonic() >= deadline:
                raise StatementTimeout(
                    f"canceling statement on standby {self.name!r}: no "
                    f"safe snapshot appeared within {timeout:.3f}s "
                    f"(master emitted no safe-snapshot marker)")
            time.sleep(min(0.001, max(timeout, 0.0) / 64 + 1e-6))


def _apply(db, record: CommitRecord) -> None:
    """Apply one commit as its net change per relation over multisets
    of whole rows (old minus new removed, new minus old added): on a
    table without a key, one change's new row can equal another's old."""
    session = db.session()
    session.begin()
    for rel_name in dict.fromkeys(change[1] for change in record.changes):
        olds = [old for _k, rel, old, _new in record.changes
                if rel == rel_name and old is not None]
        news = [new for _k, rel, _old, new in record.changes
                if rel == rel_name and new is not None]
        for row in _minus(olds, news):
            # Remove one copy: delete every equal row, put the rest back.
            found = session.delete(rel_name, _whole_row_pred(row))
            for _ in range(found - 1):
                session.insert(rel_name, row)
        for row in _minus(news, olds):
            session.insert(rel_name, row)
    session.commit()


def _minus(rows: list, other: list) -> list:
    """Multiset difference ``rows - other`` by row equality."""
    rest = list(other)
    out = []
    for row in rows:
        if row in rest:
            rest.remove(row)
        else:
            out.append(row)
    return out


def _whole_row_pred(row: Dict[str, Any]) -> Predicate:
    items = dict(row)
    return Func(lambda r, items=items: all(r.get(k) == v
                                           for k, v in items.items()),
                description=f"row = {items!r}")
