"""Thread-per-shard parallel fan-out for the shard router.

The deterministic :class:`~repro.shard.session.ShardedSession` runs
its fan-out sequentially (and surfaces waits as WouldBlock for the
scheduler). Real deployments want the opposite: each shard is an
independent engine with its own :class:`ThreadSafeEngine` latch, so a
multi-shard statement can run its branches genuinely concurrently --
one worker thread per shard, every branch call entering the engine
under that shard's latch with the wait hook installed (the same
discipline the TCP server uses; ``repro.analysis concurrency`` proves
the rank order holds).

This is what the DBT-2++ shard benchmark drives: N client threads x
M shards, single-shard transactions never leaving their one latch,
multi-shard commits preparing and committing branches in parallel.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, List, Optional, Tuple

from repro.engine.isolation import IsolationLevel
from repro.server.engine import ThreadSafeEngine
from repro.shard.database import ShardedDatabase
from repro.shard.session import ShardedSession


class _Future:
    __slots__ = ("_done", "result", "exc")

    def __init__(self) -> None:
        self._done = threading.Event()
        self.result: Any = None
        self.exc: Optional[BaseException] = None

    def wait(self) -> "_Future":
        self._done.wait()
        return self


class ShardWorkers:
    """One dispatch thread per shard, fed by a per-shard queue."""

    def __init__(self, n_shards: int) -> None:
        self._queues: List[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(n_shards)]
        self._threads = [
            threading.Thread(target=self._loop, args=(q,), daemon=True,
                             name=f"shard-worker-{i}")
            for i, q in enumerate(self._queues)]
        for t in self._threads:
            t.start()

    def _loop(self, q: queue.SimpleQueue) -> None:
        while True:
            item = q.get()
            if item is None:
                return
            fn, fut = item
            try:
                fut.result = fn()
            except BaseException as exc:  # noqa: BLE001 - ferried to caller
                fut.exc = exc
            fut._done.set()

    def submit(self, shard: int, fn: Callable[[], Any]) -> _Future:
        fut = _Future()
        self._queues[shard].put((fn, fut))
        return fut

    def close(self) -> None:
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            t.join(timeout=5)


class ThreadedShardedDatabase:
    """A :class:`ShardedDatabase` fronted by per-shard engine latches
    and a thread-per-shard fan-out pool."""

    def __init__(self, sdb: ShardedDatabase,
                 statement_timeout: Optional[float] = None) -> None:
        self.sdb = sdb
        self.engines = [ThreadSafeEngine(db, statement_timeout)
                        for db in sdb.shards]
        self.workers = ShardWorkers(sdb.n_shards)

    def session(self, default_isolation: IsolationLevel =
                IsolationLevel.READ_COMMITTED) -> "ThreadedShardedSession":
        return ThreadedShardedSession(self, default_isolation)

    def attach_replicas(self) -> None:
        """``ShardedDatabase.attach_replicas`` under each shard's latch."""
        from repro.replication.replica import Replica
        if self.sdb.replicas is None:
            self.sdb.replicas = [
                engine.run(Replica, engine.db, name=f"standby-s{i}")
                for i, engine in enumerate(self.engines)]

    def close(self) -> None:
        self.workers.close()
        for engine in self.engines:
            engine.shutdown()


class ThreadedShardedSession(ShardedSession):
    """A sharded session whose branch calls run under per-shard engine
    latches, with multi-shard fan-out dispatched to the shard workers.

    Branch sessions carry the server wait hook, so lock waits park the
    worker thread on the shard's latch condition variable and
    WouldBlock never surfaces -- the generator continuation machinery
    of the base class is bypassed entirely.
    """

    def __init__(self, tdb: ThreadedShardedDatabase,
                 default_isolation: IsolationLevel) -> None:
        super().__init__(tdb.sdb, tdb.sdb.alloc_session_id(),
                         default_isolation)
        self.tdb = tdb

    def _open_branch(self, shard: int):
        es = self.tdb.engines[shard].open_session(
            self.isolation or self.default_isolation)
        return es.session

    def _run_on(self, shard: int, fn: Callable, *args, **kw):
        return self.tdb.engines[shard].run(fn, *args, **kw)

    def _map(self, calls: List[Tuple[int, Callable]]
             ) -> List[Tuple[int, Any, Optional[BaseException]]]:
        if len(calls) == 1:
            return super()._map(calls)
        futures = [(shard, self.tdb.workers.submit(shard, fn))
                   for shard, fn in calls]
        return [(shard, fut.result, fut.exc)
                for shard, fut in ((s, f.wait()) for s, f in futures)]

    def _fanout(self, shards: List[int], fn: Callable, merge: Callable):
        # Branches open sequentially (the snapshot-coherence check is
        # order-sensitive); the statement bodies then fan out to the
        # per-shard workers and run concurrently. Still a generator so
        # errors surface inside _drive's handler, like the base class.
        for shard in shards:
            self._branch(shard)
        if len(shards) == 1:
            shard = shards[0]
            return merge([self._run_on(shard, fn, self._branches[shard])])
        results = self._map([
            (s, (lambda s=s: self._run_on(s, fn, self._branches[s])))
            for s in shards])
        first_exc = next((exc for _s, _r, exc in results
                          if exc is not None), None)
        if first_exc is not None:
            raise first_exc
        return merge([r for _s, r, _exc in results])
        yield  # pragma: no cover - generator protocol only