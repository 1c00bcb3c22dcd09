"""The network front end: accept loop, admission control, shutdown.

:class:`ReproServer` owns one :class:`ThreadSafeEngine` and a registry
of live connections, and runs one of two transports over the same
:class:`~repro.server.connection.ConnectionCore` dispatch:

* ``threaded`` -- a blocking accept loop; each connection gets one OS
  thread that reads a frame, executes it and replies before reading
  the next (the analog of PostgreSQL's backend per connection);
* ``asyncio`` -- a single event-loop thread multiplexes all sockets;
  statement execution is pushed to a thread pool so a parked statement
  never blocks the loop, and each connection awaits its reply before
  it reads its next frame.

Neither transport queues requests: a client that pipelines waits in
the kernel socket buffer. Admission control bounds the connections:
past ``max_connections`` the server writes one ``53300`` rejection
frame and closes, which the client library treats as retryable.
``stop()`` is leak-checked -- it wakes every parked statement
(AdminShutdown), kicks every socket, joins every thread, and reports
anything still alive so the CI server job can fail on leaked
connections or threads.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time  # repro: noqa(DET001) -- wire latency measurement and join timeouts are wall-clock; they never feed back into the logical history
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.database import Database
from repro.engine.latches import Latch, RANK_CONNECTIONS, RANK_METRICS
from repro.errors import ProtocolError, TooManyConnections
from repro.server import protocol
from repro.server.connection import ConnectionCore, ThreadedConnection
from repro.server.engine import EngineSession, ThreadSafeEngine


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port; read the real one from
    #: ``server.address`` after start().
    port: int = 0
    #: "threaded" or "asyncio".
    mode: str = "threaded"
    #: Admission-control ceiling on concurrent connections.
    max_connections: int = 64
    #: Seconds a statement may spend parked before 55P03/57014;
    #: None waits forever.
    statement_timeout: Optional[float] = None
    #: When set, hello must carry this token (28P01 otherwise).
    auth_token: Optional[str] = None
    #: Isolation for connections whose hello names none.
    default_isolation: str = "serializable"
    accept_backlog: int = 16


class ReproServer:
    """One database, many clients."""

    def __init__(self, db: Database,
                 config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        if self.config.mode not in ("threaded", "asyncio"):
            raise ValueError(f"unknown server mode {self.config.mode!r}")
        self.db = db
        self.engine = ThreadSafeEngine(
            db, statement_timeout=self.config.statement_timeout)
        #: Guards the connection registry (rank above the engine latch:
        #: accept/teardown never touch the engine while holding it).
        self.conn_latch = Latch("connections", RANK_CONNECTIONS)
        #: Guards metric updates from arbitrary server threads.
        self.metrics_latch = Latch("metrics", RANK_METRICS)
        self._connections: Dict[int, Any] = {}  # repro: guarded-by(CONNECTIONS)
        self._next_conn_id = 0  # repro: guarded-by(CONNECTIONS)
        self._listener: Optional[socket.socket] = None  # repro: confined(set in start before the accept thread exists; read-only afterwards)
        self._accept_thread: Optional[threading.Thread] = None  # repro: confined(set in start; read-only afterwards)
        self._async: Optional[_AsyncioFrontend] = None  # repro: confined(set in start; read-only afterwards)
        self._stopping = threading.Event()
        self._stopped = False  # repro: guarded-by(CONNECTIONS)
        self.address: Optional[Tuple[str, int]] = None  # repro: confined(set in start before any server thread exists)
        #: Unexpected exceptions (sanitizer violations, engine bugs)
        #: surfaced by any connection; the CI smoke asserts this empty.
        self.fatal_errors: List[BaseException] = []  # repro: guarded-by(METRICS)
        metrics = db.obs.metrics
        self._counters = {  # repro: guarded-by(METRICS)
            name: metrics.counter(name) for name in (
                "server.connections_accepted",
                "server.connections_rejected",
                "server.auth_failures",
                "server.requests",
                "server.fatal_errors",
            )}
        self._latency_hist = metrics.histogram("server.latency_ns")  # repro: guarded-by(METRICS)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        if self.config.mode == "asyncio":
            self._async = _AsyncioFrontend(self)
            self._async.start()
            self.address = self._async.address
            return self
        listener = socket.create_server(
            (self.config.host, self.config.port),
            backlog=self.config.accept_backlog, reuse_port=False)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> Dict[str, List[str]]:
        """Graceful stop; returns the leak report (empty lists = clean).

        Order matters: wake parked statements first (so connection
        threads can drain), stop accepting, kick live sockets, join.
        """
        # Check-and-set under the connection latch: two racing stop()
        # calls must not both run the teardown sequence (double close
        # of the listener, double engine shutdown). The latch is
        # released before engine.shutdown -- ENGINE ranks below
        # CONNECTIONS, so holding it across the call would be exactly
        # the out-of-rank acquisition LATCH001 proves absent.
        with self.conn_latch:
            if self._stopped:
                return {"threads": [], "connections": []}
            self._stopped = True
        self._stopping.set()
        self.engine.shutdown()
        if self._listener is not None:
            # A blocked accept() does not reliably notice close() from
            # another thread; shut the socket down and poke it with a
            # throwaway connection so the accept loop observes stopping.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                try:
                    poke = socket.create_connection(self.address,
                                                    timeout=1.0)
                    poke.close()
                except OSError:
                    pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
        if self._async is not None:
            self._async.stop(timeout)
        with self.conn_latch:
            live = list(self._connections.values())
        deadline = time.monotonic() + timeout
        for conn in live:
            if hasattr(conn, "kick"):
                conn.kick()
        leaked_threads: List[str] = []
        for conn in live:
            if hasattr(conn, "join"):
                remaining = max(0.1, deadline - time.monotonic())
                if not conn.join(remaining):
                    leaked_threads.append(f"conn-{conn.conn_id}")
        if (self._accept_thread is not None
                and self._accept_thread.is_alive()):
            leaked_threads.append("accept")
        if self._async is not None and self._async.leaked():
            leaked_threads.append("asyncio-loop")
        if self.engine.db.durability is not None:
            # Workers are joined, so no new WAL appends: drain the
            # group-commit queue now. An acknowledged commit (notably
            # under synchronous_commit=off) must be durable before
            # stop() returns -- a stop racing an in-flight flush used
            # to close with acked frames still unfsynced.
            self.engine.db.durability.drain()
        with self.conn_latch:
            leaked_conns = [str(cid) for cid in self._connections]
        return {"threads": leaked_threads, "connections": leaked_conns}

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # registry + admission
    # ------------------------------------------------------------------
    def admit(self) -> Optional[int]:
        """Admission control: reserve a registry slot and return its
        conn_id, or None when at max_connections (or stopping)."""
        with self.conn_latch:
            if (len(self._connections) >= self.config.max_connections
                    or self._stopping.is_set()):
                return None
            self._next_conn_id += 1
            conn_id = self._next_conn_id
            self._connections[conn_id] = None  # reserved
            return conn_id

    def register(self, handle: Any) -> None:
        with self.conn_latch:
            self._connections[handle.conn_id] = handle

    def unregister(self, handle: Any) -> None:
        with self.conn_latch:
            self._connections.pop(handle.conn_id, None)

    @property
    def active_connections(self) -> int:
        with self.conn_latch:
            return len(self._connections)

    # ------------------------------------------------------------------
    # shared services for connections
    # ------------------------------------------------------------------
    def count(self, name: str) -> None:
        with self.metrics_latch:
            self._counters[name].inc()

    def record_fatal(self, exc: BaseException) -> None:
        with self.metrics_latch:
            self.fatal_errors.append(exc)
        self.count("server.fatal_errors")

    def timed_execute(self, es: EngineSession, sql: str) -> Any:
        t0 = time.monotonic_ns()
        try:
            return self.engine.execute(es, sql)
        finally:
            elapsed = time.monotonic_ns() - t0
            with self.metrics_latch:
                self._counters["server.requests"].inc()
                self._latency_hist.observe(elapsed)

    # ------------------------------------------------------------------
    # threaded transport
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn_id = self.admit()
            if conn_id is None:
                self._reject(sock)
                continue
            conn = ThreadedConnection(self, sock, conn_id)
            self.register(conn)
            self.count("server.connections_accepted")
            conn.start()

    def _reject(self, sock: socket.socket) -> None:
        """One 53300 frame, then close (the client library retries
        with exponential backoff)."""
        self.count("server.connections_rejected")
        try:
            sock.sendall(protocol.encode_frame(protocol.error_response(
                None, TooManyConnections(
                    "too many connections "
                    f"(max {self.config.max_connections}); "
                    "retry with backoff"))))
        except OSError:
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass


class _AsyncioFrontend:
    """Event-loop transport: one loop thread multiplexes sockets; the
    blocking engine calls run on a thread pool so a parked statement
    never stalls other connections' I/O."""

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        # start() publishes loop/executor/thread before the loop thread
        # runs; aserver/address/_start_error are written by the loop
        # thread before ready.set() and read by start() only after
        # ready.wait() -- the Event is the happens-before edge.
        self.loop: Optional[asyncio.AbstractEventLoop] = None  # repro: confined(set in start before the loop thread exists)
        self.thread: Optional[threading.Thread] = None  # repro: confined(set in start before the loop thread exists)
        self.executor: Optional[ThreadPoolExecutor] = None  # repro: confined(set in start before the loop thread exists)
        self.aserver: Optional[asyncio.AbstractServer] = None  # repro: confined(loop thread writes before ready.set; start reads after ready.wait)
        self.address: Optional[Tuple[str, int]] = None  # repro: confined(loop thread writes before ready.set; start reads after ready.wait)
        self._writers: set = set()  # repro: confined(event-loop thread only)
        self._start_error: Optional[BaseException] = None  # repro: confined(loop thread writes before ready.set; start reads after ready.wait)

    def start(self) -> None:
        config = self.server.config
        self.loop = asyncio.new_event_loop()
        self.executor = ThreadPoolExecutor(
            max_workers=config.max_connections + 2,
            thread_name_prefix="repro-async-exec")
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self._run, args=(ready,), name="repro-asyncio-loop",
            daemon=True)
        self.thread.start()
        ready.wait(10)
        if self.address is None:
            raise RuntimeError(
                f"asyncio server failed to start: {self._start_error!r}")

    def _run(self, ready: threading.Event) -> None:
        assert self.loop is not None
        asyncio.set_event_loop(self.loop)
        config = self.server.config
        try:
            self.aserver = self.loop.run_until_complete(
                asyncio.start_server(self._handle, config.host, config.port,
                                     backlog=config.accept_backlog))
            self.address = self.aserver.sockets[0].getsockname()[:2]
        except BaseException as exc:
            self._start_error = exc
            ready.set()
            self.loop.close()
            return
        ready.set()
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    def stop(self, timeout: float) -> None:
        if self.loop is None or self.loop.is_closed():
            return
        try:
            fut = asyncio.run_coroutine_threadsafe(
                self._shutdown(timeout), self.loop)
            fut.result(timeout + 2)
        except Exception:
            pass
        if self.loop is not None and not self.loop.is_closed():
            self.loop.call_soon_threadsafe(self.loop.stop)
        if self.thread is not None:
            self.thread.join(timeout)
        if self.executor is not None:
            self.executor.shutdown(wait=True)

    def leaked(self) -> bool:
        return self.thread is not None and self.thread.is_alive()

    async def _shutdown(self, timeout: float) -> None:
        if self.aserver is not None:
            self.aserver.close()
            await self.aserver.wait_closed()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        current = asyncio.current_task()
        tasks = [t for t in asyncio.all_tasks() if t is not current]
        if tasks:
            await asyncio.wait(tasks, timeout=timeout)

    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        try:
            writer.write(protocol.encode_frame(payload))
            await writer.drain()
        except (OSError, ConnectionError):
            pass

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        server = self.server
        conn_id = server.admit()
        if conn_id is None:
            server.count("server.connections_rejected")
            await self._send(writer, protocol.error_response(
                None, TooManyConnections(
                    "too many connections "
                    f"(max {server.config.max_connections}); "
                    "retry with backoff")))
            writer.close()
            return
        core = ConnectionCore(server, conn_id)
        server.register(core)
        server.count("server.connections_accepted")
        self._writers.add(writer)
        assert self.loop is not None and self.executor is not None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (OSError, ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                try:
                    payload = protocol.decode_frame(line.rstrip(b"\r\n"))
                except ProtocolError as exc:
                    await self._send(
                        writer, protocol.error_response(None, exc))
                    break
                response, close = await self.loop.run_in_executor(
                    self.executor, core.handle_request, payload)
                if response is not None:
                    await self._send(writer, response)
                if close:
                    break
        finally:
            await self.loop.run_in_executor(self.executor, core.close)
            server.unregister(core)
            self._writers.discard(writer)
            try:
                writer.close()
            except (OSError, ConnectionError):
                pass
