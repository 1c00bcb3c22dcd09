"""Per-connection lifecycle: state machine and dispatch.

:class:`ConnectionCore` is transport-independent -- both the threaded
and the asyncio front ends feed it decoded request frames and write
back whatever response dict it returns. The lifecycle state machine::

    HANDSHAKE --hello--> READY --close/EOF/error--> CLOSED
        |                  |
        +--bad auth--------+--> CLOSED (with implicit ROLLBACK)

Transaction state (idle / open / failed) lives in the engine session,
not here; the core only distinguishes "may this connection run SQL yet"
from "is it gone". Closing in any state rolls back an open transaction
(PostgreSQL's behaviour when a backend loses its client).

:class:`ThreadedConnection` is the threaded transport: one thread per
connection reads a frame, executes it and writes the reply before it
reads the next. Pipelined requests wait in the kernel socket buffer,
so per-connection server memory is bounded by construction.
"""

from __future__ import annotations

import enum
import socket
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:  # import cycle: server.py imports this module
    from repro.server.server import ReproServer

from repro.errors import AuthenticationError, ProtocolError, ReproError
from repro.server import protocol
from repro.server.engine import ISOLATION_BY_NAME, EngineSession


class ConnState(enum.Enum):
    HANDSHAKE = "handshake"
    READY = "ready"
    CLOSED = "closed"


class ConnectionCore:
    """Transport-independent request dispatch for one connection."""

    def __init__(self, server: "ReproServer", conn_id: int) -> None:
        self.server = server
        self.conn_id = conn_id
        # One request is in flight per connection at a time -- the
        # connection thread (threaded transport) or the executor call
        # the connection's handler awaits (asyncio transport; the
        # executor handoff gives the happens-before edge) is the only
        # accessor after construction.
        self.state = ConnState.HANDSHAKE  # repro: confined(one in-flight request per connection)
        self.es: Optional[EngineSession] = None  # repro: confined(one in-flight request per connection)
        self.statements = 0  # repro: confined(one in-flight request per connection)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle_request(self, payload: Dict[str, Any]
                       ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Dispatch one decoded request frame.

        Returns ``(response, close)``; ``close`` asks the transport to
        tear the connection down after sending the response.
        """
        try:
            request_id, op = protocol.request_op(payload)
        except ProtocolError as exc:
            return protocol.error_response(payload.get("id"), exc), True
        try:
            if op == "hello":
                return self._do_hello(request_id, payload)
            if op == "ping":
                return protocol.ok_response(request_id, "pong",
                                            txn=self._txn()), False
            if op == "close":
                return protocol.ok_response(request_id, "bye",
                                            txn="idle"), True
            return self._do_sql(request_id, payload)
        except ReproError as exc:
            close = isinstance(exc, (ProtocolError, AuthenticationError))
            return protocol.error_response(request_id, exc,
                                           txn=self._txn()), close
        except Exception as exc:  # sanitizer violations, engine bugs
            self.server.record_fatal(exc)
            return protocol.error_response(request_id, exc,
                                           txn=self._txn()), True

    def _do_hello(self, request_id: Any, payload: Dict[str, Any]
                  ) -> Tuple[Dict[str, Any], bool]:
        if self.state is not ConnState.HANDSHAKE:
            raise ProtocolError("hello already completed")
        config = self.server.config
        if config.auth_token is not None:
            if payload.get("token") != config.auth_token:
                self.server.count("server.auth_failures")
                raise AuthenticationError("authentication failed")
        name = payload.get("isolation", config.default_isolation)
        level = ISOLATION_BY_NAME.get(name)
        if level is None:
            raise ProtocolError(
                f"unknown isolation level {name!r} "
                f"(expected one of {sorted(ISOLATION_BY_NAME)})")
        self.es = self.server.engine.open_session(level)
        self.state = ConnState.READY
        return protocol.ok_response(
            request_id, {"server": "repro", "wire_version":
                         protocol.WIRE_VERSION, "conn_id": self.conn_id,
                         "isolation": level.value},
            txn="idle"), False

    def _do_sql(self, request_id: Any, payload: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], bool]:
        if self.state is not ConnState.READY or self.es is None:
            raise ProtocolError("hello required before sql")
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("sql op requires a string 'sql' field")
        self.statements += 1
        result = self.server.timed_execute(self.es, sql)
        return protocol.ok_response(request_id, result,
                                    txn=self._txn()), False

    def _txn(self) -> str:
        return self.es.txn_status if self.es is not None else "idle"

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotent: roll back any open transaction, free the engine
        session."""
        if self.state is ConnState.CLOSED:
            return
        self.state = ConnState.CLOSED
        if self.es is not None:
            es, self.es = self.es, None
            self.server.engine.close_session(es)


class ThreadedConnection:
    """Threaded transport: one OS thread per connection that reads a
    frame, dispatches it to the ConnectionCore and writes the response
    before it reads the next frame (PostgreSQL's one backend per
    connection). A client that pipelines waits in the kernel socket
    buffer, so the server holds at most one frame per connection."""

    def __init__(self, server: "ReproServer", sock: socket.socket,
                 conn_id: int) -> None:
        self.core = ConnectionCore(server, conn_id)
        self.server = server
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self._thread = threading.Thread(
            target=self._serve, name=f"repro-conn-{conn_id}", daemon=True)

    @property
    def conn_id(self) -> int:
        return self.core.conn_id

    def start(self) -> None:
        self._thread.start()

    def send(self, payload: Dict[str, Any]) -> None:
        try:
            self.sock.sendall(protocol.encode_frame(payload))
        except OSError:
            pass  # client went away; the next read sees EOF

    def _serve(self) -> None:
        try:
            while True:
                try:
                    line = self.rfile.readline(protocol.MAX_FRAME_BYTES + 2)
                except (OSError, ValueError):
                    break
                if not line:
                    break  # EOF
                try:
                    payload = protocol.decode_frame(line.rstrip(b"\r\n"))
                except ProtocolError as exc:
                    self.send(protocol.error_response(None, exc))
                    break  # framing is broken; terminate like PostgreSQL
                response, close = self.core.handle_request(payload)
                if response is not None:
                    self.send(response)
                if close:
                    break
        finally:
            self._teardown()

    def _teardown(self) -> None:
        try:
            self.core.close()
        finally:
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.rfile.close()
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass
            self.server.unregister(self)

    # ------------------------------------------------------------------
    # server-driven shutdown
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Force the connection down (server.stop): shutting the socket
        down EOFs the next read, which tears the connection down."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def join(self, timeout: float) -> bool:
        """True when the connection thread exited within ``timeout``
        seconds."""
        self._thread.join(timeout)
        return not self._thread.is_alive()
