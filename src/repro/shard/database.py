"""ShardedDatabase: N engines behind one router.

Composes the pieces the single-node reproduction already has -- the
engine (`repro.engine.Database`), the external 2PC coordinator
(section 7.1's footnote), and WAL-shipping replicas with section 7.2
safe-snapshot markers -- into one logical database:

* tables are hash-partitioned by primary key (:mod:`repro.shard.partition`);
* transactions run through :class:`repro.shard.session.ShardedSession`,
  which opens shard branches lazily and commits them all through the
  coordinator's one driver, :meth:`Coordinator.commit_branches`: one
  branch or one writer branch commits locally, two or more writer
  branches run two-phase commit around the decision log;
* every commit is certified by the :class:`GlobalCertifier`, which
  merges per-branch rw-antidependency summaries keyed by global
  transaction id -- cross-shard dangerous structures doom their pivot
  exactly as the single-node check does (each shard's local SSI still
  catches structures whose edges all live on that shard);
* SERIALIZABLE READ ONLY DEFERRABLE queries route to per-shard
  safe-snapshot replicas fed by each shard's WAL stream.

Verification merges the per-shard Adya graphs: every data item lives
on exactly one shard, so each rw/ww/wr edge is fully visible to the
shard owning the item; relabeling per-shard transaction ids to global
ids and uniting the edge sets yields the global serialization graph.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

import networkx as nx

from repro.config import EngineConfig
from repro.engine.coordinator import Coordinator
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.shard.certifier import GlobalCertifier, OLD_COMMITTED_GID
from repro.shard.partition import Partitioner


class ShardedCheckResult:
    """Outcome of the merged cross-shard serializability check."""

    __slots__ = ("serializable", "cycle", "committed_gids", "edge_count")

    def __init__(self, serializable: bool, cycle, committed_gids, edge_count):
        self.serializable = serializable
        self.cycle = cycle
        self.committed_gids = committed_gids
        self.edge_count = edge_count

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.serializable


class ShardedDatabase:
    """One logical database hash-partitioned over ``n_shards`` engines."""

    def __init__(self, n_shards: int,
                 configs: Optional[Sequence[EngineConfig]] = None,
                 *, coordinator_log: Optional[str] = None) -> None:
        if configs is not None and len(configs) != n_shards:
            raise ValueError("need one EngineConfig per shard")
        self.n_shards = n_shards
        self.shards: List[Database] = [
            Database(configs[i] if configs is not None else None)
            for i in range(n_shards)]
        self.partitioner = Partitioner(n_shards)
        self.certifier = GlobalCertifier()
        self.coordinator = Coordinator(
            {self.shard_name(i): db for i, db in enumerate(self.shards)},
            log_path=coordinator_log)
        #: Per-shard safe-snapshot replicas (lazy; attach_replicas()).
        self.replicas: Optional[List] = None
        # itertools.count: atomic under concurrent client threads.
        self._gids = itertools.count(1)
        self._session_ids = itertools.count(1)

    @staticmethod
    def shard_name(shard: int) -> str:
        return f"s{shard}"

    # ------------------------------------------------------------------
    # DDL fans out to every shard
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[str],
                     key: Optional[str] = None, *, shard_key=None):
        """Create ``name`` on every shard, partitioned by ``key``
        (tables without a key live wholly on shard 0 but still exist
        everywhere so fan-out statements are uniform). ``shard_key``
        optionally maps the key to the value that is hashed -- the
        distribute-by-column affinity (see repro.shard.partition)."""
        rels = [db.create_table(name, columns, key=key)
                for db in self.shards]
        self.partitioner.add_table(name, key, shard_key=shard_key)
        return rels

    def create_index(self, table: str, column: str, **kw):
        return [db.create_index(table, column, **kw) for db in self.shards]

    def analyze(self, table: Optional[str] = None):
        return [db.analyze(table) for db in self.shards]

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session(self, default_isolation: IsolationLevel =
                IsolationLevel.READ_COMMITTED):
        from repro.shard.session import ShardedSession
        return ShardedSession(self, self.alloc_session_id(),
                              default_isolation)

    def alloc_session_id(self) -> int:
        return next(self._session_ids)

    def next_gid(self) -> str:
        return f"g{next(self._gids)}"

    # ------------------------------------------------------------------
    # loading convenience (setup time, like create_table)
    # ------------------------------------------------------------------
    def load_rows(self, table: str, rows: Sequence[Dict[str, Any]]) -> None:
        """Bulk-load seed rows, one autocommit insert per row routed to
        the owning shard."""
        sessions = [db.session() for db in self.shards]
        for row in rows:
            shard = self.partitioner.shard_for_row(table, row)
            sessions[shard].insert(table, dict(row))

    # ------------------------------------------------------------------
    # replicas (section 7.2 / DEFERRABLE routing)
    # ------------------------------------------------------------------
    def attach_replicas(self) -> None:
        from repro.replication.replica import Replica
        if self.replicas is None:
            self.replicas = [Replica(db, name=f"standby-s{i}")
                             for i, db in enumerate(self.shards)]

    def refresh_replicas(self) -> None:
        if self.replicas is None:
            raise RuntimeError("attach_replicas() first")
        for replica in self.replicas:
            replica.catch_up()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover_in_doubt(self) -> Dict[str, str]:
        """Resolve prepared-but-undecided branches from the (persisted)
        coordinator decision log -- the restart path of satellite 2PC
        recovery. Returns branch gid -> action."""
        return self.coordinator.recover()

    def close(self) -> None:
        for db in self.shards:
            db.close()

    # ------------------------------------------------------------------
    # verification: the merged Adya graph
    # ------------------------------------------------------------------
    def check_serializable(self) -> ShardedCheckResult:
        """Cross-shard serializability oracle.

        Builds each shard's Adya graph from its own history recorder
        (phantom detection needs the shard-local snapshot xip sets, so
        recorders are *not* merged), relabels committed branch xids to
        global transaction ids, and unions the edges. A transaction
        counts as globally committed only when every branch the
        recorder saw commit belongs to a gid the certifier finished
        committing -- 2PC guarantees branches agree, so this is just
        the translation step.
        """
        from repro.verify.graph import build_graph
        merged = nx.DiGraph()
        committed_gids = set()
        edge_count = 0
        for shard, db in enumerate(self.shards):
            if db.recorder is None:
                raise RuntimeError(
                    "shard engines were built without record_history")
            graph = build_graph(db.recorder).graph
            for xid in graph.nodes:
                gid = self._gid_for(shard, xid)
                committed_gids.add(gid)
                merged.add_node(gid)
            for u, v, kinds in graph.edges(data="kinds"):
                gu, gv = self._gid_for(shard, u), self._gid_for(shard, v)
                if gu == gv:
                    continue
                edge_count += len(kinds)
                if merged.has_edge(gu, gv):
                    merged[gu][gv]["kinds"].update(kinds)
                else:
                    merged.add_edge(gu, gv, kinds=set(kinds))
        try:
            cycle = nx.find_cycle(merged)
        except nx.NetworkXNoCycle:
            cycle = None
        return ShardedCheckResult(cycle is None, cycle, committed_gids,
                                  edge_count)

    def _gid_for(self, shard: int, xid: int) -> str:
        gid = self.certifier._gid_by_branch.get((shard, xid))
        if gid is None:
            # A branch the certifier never saw: a transaction run
            # directly against the shard engine (e.g. bulk loading).
            # Give it a stable synthetic gid so it still participates
            # in the merged graph.
            return f"local:s{shard}:x{xid}"
        return gid
