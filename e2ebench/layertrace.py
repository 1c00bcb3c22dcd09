"""Layer tracing for the server process, installed by wrapping in place.

:meth:`Tracer.install` replaces functions and methods of the engine's
layers with timing or counting wrappers before the database is built,
so no file under ``src/`` changes. Where a caller imported a function
by name (``from repro.sql.parser import parse``), the reference the
caller uses is the one replaced.

Every timed call records a span -- name, start, end, parent span and
request id -- in a per-thread list, and folds its duration into
per-name totals online: a span's *self* time is its duration minus the
time its child spans cover. The request id is ``(conn_id, frame id)``,
taken where ``ConnectionCore.handle_request`` receives a frame.
Counting wrappers (tuple visibility checks, heap fetches, SIREAD lock
acquisitions, ...) only bump a per-thread counter, because they run per
tuple and a span there would cost more than the work it measures.

Aggregates are read per *window*: the benchmark quiesces its clients,
calls :meth:`Tracer.reset_window`, runs the timed phase, quiesces again
and calls :meth:`Tracer.window`. Lifetime counts (for the cross-check
against the engine's own metrics registry) are never reset.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept per thread; later spans are still aggregated, not stored.
MAX_SPANS_PER_THREAD = 5_000

# (module, class or None, attribute, span name)
SPANS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.server.protocol", None, "decode_frame", "server.decode"),
    ("repro.server.protocol", None, "encode_frame", "server.encode"),
    ("repro.server.connection", "ConnectionCore", "handle_request",
     "server.request"),
    ("repro.engine.latches", "EngineLatch", "acquire", "server.latch_wait"),
    ("repro.engine.latches", "EngineLatch", "park", "server.park"),
    ("repro.server.engine", "ThreadSafeEngine", "execute", "server.execute"),
    ("repro.sql.executor", None, "parse", "sql.parse"),
    ("repro.sql.executor", "SQLSession", "execute", "sql.execute"),
    ("repro.engine.planner", "Planner", "plan_scan", "engine.plan"),
    ("repro.engine.session", "Session", "select", "engine.read"),
    ("repro.engine.session", "Session", "scan_rows", "engine.read"),
    ("repro.engine.session", "Session", "scan_aggregate", "engine.read"),
    ("repro.engine.session", "Session", "select_for_update", "engine.read"),
    ("repro.engine.session", "Session", "insert", "engine.write"),
    ("repro.engine.session", "Session", "update", "engine.write"),
    ("repro.engine.session", "Session", "delete", "engine.write"),
    ("repro.engine.session", "Session", "begin", "engine.begin"),
    ("repro.engine.database", "Database", "commit_txn", "engine.commit"),
    ("repro.engine.database", "Database", "abort_txn", "engine.abort"),
    ("repro.engine.database", "Database", "vacuum", "storage.vacuum"),
    ("repro.ssi.manager", "SSIManager", "on_read_tuple", "ssi.read"),
    ("repro.ssi.manager", "SSIManager", "read_page_covered", "ssi.read"),
    ("repro.ssi.manager", "SSIManager", "on_scan_relation", "ssi.read"),
    ("repro.ssi.manager", "SSIManager", "on_index_page_read", "ssi.read"),
    ("repro.ssi.manager", "SSIManager", "on_index_scan_keys", "ssi.read"),
    ("repro.ssi.manager", "SSIManager", "on_index_rel_read", "ssi.read"),
    ("repro.ssi.manager", "SSIManager", "on_write_tuple", "ssi.write"),
    ("repro.ssi.manager", "SSIManager", "on_index_insert", "ssi.write"),
    ("repro.ssi.manager", "SSIManager", "precommit_check", "ssi.precommit"),
    ("repro.ssi.manager", "SSIManager", "commit", "ssi.cleanup"),
    ("repro.ssi.manager", "SSIManager", "abort", "ssi.cleanup"),
    ("repro.locks.manager", "LockManager", "acquire", "locks.acquire"),
    ("repro.storage.durable.manager", "DurabilityManager", "on_write",
     "durable.log"),
    ("repro.storage.durable.manager", "DurabilityManager", "on_commit",
     "durable.commit"),
    ("repro.storage.durable.manager", "DurabilityManager",
     "_checkpoint_locked", "durable.checkpoint"),
    ("repro.storage.durable.walfile", "WALFile", "flush", "durable.flush"),
    ("repro.storage.durable.io", "DurableIO", "fsync", "durable.fsync"),
]

# (module, class or None, attribute, counter name)
COUNTS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.storage.heap", "Heap", "fetch", "storage.heap_fetch"),
    ("repro.mvcc.visibility", None, "tuple_visibility", "mvcc.visibility"),
    ("repro.mvcc", None, "tuple_visibility", "mvcc.visibility"),
    ("repro.engine.executor", None, "tuple_visibility", "mvcc.visibility"),
    ("repro.engine.latches", "EngineLatch", "bow", "server.bow"),
] + [("repro.ssi.lockmgr", "SIReadLockManager", "acquire_" + kind,
      "ssi.siread_acquire")
     for kind in ("tuple", "page", "relation", "index_page", "index_key",
                  "index_infinity", "index_relation")]


class _ThreadState:
    __slots__ = ("stack", "spans", "agg", "counts", "life", "request",
                 "dropped")

    def __init__(self) -> None:
        #: Open spans: [span index, child ns].
        self.stack: List[list] = []
        #: (name, start ns, end ns, parent index, request id)
        self.spans: List[Optional[tuple]] = []
        #: name -> [calls, total ns, self ns] for the current window.
        self.agg: Dict[str, list] = {}
        #: name -> count for the current window.
        self.counts: Dict[str, int] = {}
        #: name -> count over the tracer's whole life.
        self.life: Dict[str, int] = {}
        self.request: Any = None
        self.dropped = 0


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._mu = threading.Lock()
        self._states: List[_ThreadState] = []

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._mu:
                self._states.append(state)
        return state

    def count(self, name: str, n: int = 1) -> None:
        st = self._state()
        st.counts[name] = st.counts.get(name, 0) + n
        st.life[name] = st.life.get(name, 0) + n

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every SPANS and COUNTS target. Call once per process:
        the wrappers stay for the life of the server."""
        extra: Dict[str, Callable] = {
            "server.encode": self._after_encode,
            "server.request": self._before_request,
            "sql.execute": self._after_sql_execute,
            "engine.commit": self._after_commit,
            "storage.vacuum": self._after_vacuum,
            "locks.acquire": self._after_lock_acquire,
            "durable.fsync": self._after_fsync,
        }
        for module, cls, attr, name in SPANS:
            owner, original = self._target(module, cls, attr)
            setattr(owner, attr, self._span_wrapper(
                original, name, extra.get(name)))
        for module, cls, attr, name in COUNTS:
            owner, original = self._target(module, cls, attr)
            setattr(owner, attr, self._count_wrapper(original, name))
        owner, original = self._target("repro.storage.durable.io",
                                       "DurableIO", "pwrite")
        setattr(owner, "pwrite", self._pwrite_wrapper(original))
        return self

    @staticmethod
    def _target(module: str, cls: Optional[str], attr: str):
        owner: Any = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        # A method inherited from a base class is wrapped on the named
        # class only (EngineLatch.acquire, not every Latch).
        original = (owner.__dict__[attr] if attr in owner.__dict__
                    else getattr(owner, attr))
        return owner, original

    # ------------------------------------------------------------------
    def _span_wrapper(self, fn: Callable, name: str,
                      extra: Optional[Callable]) -> Callable:
        state = self._state
        clock = time.perf_counter_ns
        cap = MAX_SPANS_PER_THREAD

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            st = state()
            if extra is not None and name == "server.request":
                extra(st, args)
            stack = st.stack
            parent = stack[-1][0] if stack else -1
            index = len(st.spans)
            if index < cap:
                st.spans.append(None)
            else:
                index = -1
                st.dropped += 1
            frame = [index, 0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kw)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals = st.agg.get(name)
                if totals is None:
                    totals = st.agg[name] = [0, 0, 0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                st.life[name] = st.life.get(name, 0) + 1
                if index >= 0:
                    st.spans[index] = (name, start, end, parent, st.request)
                if extra is not None and name != "server.request":
                    extra(st, args, result, error)

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            st = state()
            st.counts[name] = st.counts.get(name, 0) + 1
            return fn(*args, **kw)

        return wrapper

    def _pwrite_wrapper(self, fn: Callable) -> Callable:
        count = self.count

        @functools.wraps(fn)
        def pwrite(io, f, path, offset, data):
            fn(io, f, path, offset, data)
            count("durable.wal_bytes" if _is_wal(path)
                  else "durable.page_bytes", len(data))

        return pwrite

    # -- per-layer extras ----------------------------------------------
    @staticmethod
    def _before_request(st, args) -> None:
        core, payload = args[0], args[1]
        st.request = (core.conn_id, payload.get("id"))

    def _after_encode(self, st, args, result, error) -> None:
        if result is not None:
            self.count("server.bytes_out", len(result))

    def _after_sql_execute(self, st, args, result, error) -> None:
        if isinstance(result, list):
            self.count("sql.rows_returned", len(result))
        if error is not None and getattr(error, "sqlstate", "") == "40001":
            self.count("ssi.serialization_failures")

    def _after_commit(self, st, args, result, error) -> None:
        if error is None:
            self.count("engine.commits_ok")

    def _after_vacuum(self, st, args, result, error) -> None:
        if isinstance(result, int):
            self.count("storage.dead_versions_removed", result)

    def _after_lock_acquire(self, st, args, result, error) -> None:
        if result is not None:
            self.count("locks.waits")
        if error is not None and getattr(error, "sqlstate", "") == "40P01":
            self.count("locks.deadlocks")

    def _after_fsync(self, st, args, result, error) -> None:
        if error is None and _is_wal(args[2]):
            self.count("durable.wal_fsyncs")

    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Start a new window. Call only while no span is open on any
        thread (no request running): stored spans restart too, so the
        ones kept are the window's first MAX_SPANS_PER_THREAD."""
        with self._mu:
            for st in self._states:
                st.agg.clear()
                st.counts.clear()
                st.spans.clear()
                st.dropped = 0

    def window(self) -> Dict[str, Any]:
        """Aggregates since :meth:`reset_window`, merged over threads:
        ``{"spans": {name: [calls, total_ns, self_ns]},
        "counts": {name: n}}``."""
        spans: Dict[str, List[int]] = {}
        counts: Dict[str, int] = {}
        with self._mu:
            for st in self._states:
                for name, (calls, total, own) in list(st.agg.items()):
                    acc = spans.setdefault(name, [0, 0, 0])
                    acc[0] += calls
                    acc[1] += total
                    acc[2] += own
                for name, n in list(st.counts.items()):
                    counts[name] = counts.get(name, 0) + n
        return {"spans": spans, "counts": counts}

    def lifetime(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        with self._mu:
            for st in self._states:
                for name, n in list(st.life.items()):
                    out[name] = out.get(name, 0) + n
        return out

    def spans(self) -> List[Dict[str, Any]]:
        """Every stored span, one list per thread, as dicts."""
        out = []
        with self._mu:
            for tid, st in enumerate(self._states):
                for index, span in enumerate(st.spans):
                    if span is None:
                        continue
                    name, start, end, parent, request = span
                    out.append({"thread": tid, "span": index, "name": name,
                                "start_ns": start, "end_ns": end,
                                "parent": parent, "request": request})
        return out

    def dropped(self) -> int:
        with self._mu:
            return sum(st.dropped for st in self._states)


def _is_wal(path: str) -> bool:
    return path.endswith("wal.log")
