"""Tests for repro.server: wire protocol, connection lifecycle,
admission control, one request at a time per connection, and both
transports."""

import select
import socket
import threading
import time

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (AuthenticationError, LockNotAvailable,
                          ProtocolError, ReproError, SerializationFailure,
                          TooManyConnections)
from repro.server import (ClientPool, ReproClient, ReproServer,
                          ServerConfig, connect)
from repro.server import protocol


def make_server(**kw):
    config_kw = {"port": 0}
    config_kw.update(kw)
    db = Database(EngineConfig())
    return ReproServer(db, ServerConfig(**config_kw)).start()


def assert_clean_stop(server):
    leaks = server.stop()
    assert leaks == {"threads": [], "connections": []}


class RawConn:
    """Protocol-level test client: raw frames, no client library."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.rfile = self.sock.makefile("rb")

    def send(self, **payload):
        self.sock.sendall(protocol.encode_frame(payload))

    def send_bytes(self, data):
        self.sock.sendall(data)

    def recv(self):
        line = self.rfile.readline()
        assert line, "server closed the connection"
        return protocol.decode_frame(line.rstrip(b"\r\n"))

    def close(self):
        self.rfile.close()
        self.sock.close()


class TestLifecycle:
    def test_start_stop_leak_free(self):
        server = make_server()
        assert server.address[1] > 0
        assert_clean_stop(server)

    def test_stop_is_idempotent(self):
        server = make_server()
        assert_clean_stop(server)
        assert server.stop() == {"threads": [], "connections": []}

    def test_context_manager(self):
        db = Database(EngineConfig())
        with ReproServer(db, ServerConfig(port=0)) as server:
            client = connect(server.address)
            assert client.ping() == "pong"
            client.close()

    def test_hello_reports_wire_version_and_isolation(self):
        server = make_server()
        client = connect(server.address, isolation="repeatable read")
        assert client.hello["wire_version"] == protocol.WIRE_VERSION
        assert client.hello["isolation"] == "repeatable read"
        client.close()
        assert_clean_stop(server)

    def test_implicit_rollback_on_abrupt_disconnect(self):
        server = make_server()
        boot = connect(server.address)
        boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        boot.sql("INSERT INTO t (k, v) VALUES (1, 10)")

        walker = connect(server.address)
        walker.sql("BEGIN")
        walker.sql("UPDATE t SET v = 99 WHERE k = 1")
        # Vanish without COMMIT or a close frame. (Both the socket and
        # its makefile wrapper must go, or the fd stays open.)
        walker._teardown()

        # The survivor's conflicting update parks until the server
        # rolls the orphan back, then proceeds; the orphan's write
        # must not survive.
        boot.sql("BEGIN ISOLATION LEVEL READ COMMITTED")
        assert boot.sql("UPDATE t SET v = 11 WHERE k = 1") == 1
        boot.sql("COMMIT")
        assert boot.sql("SELECT v FROM t WHERE k = 1") == [{"v": 11}]
        boot.close()
        assert_clean_stop(server)

    def test_each_client_adds_one_server_thread(self):
        server = make_server()
        before = threading.active_count()
        clients = [connect(server.address) for _ in range(3)]
        assert threading.active_count() - before == 3
        for client in clients:
            client.close()
        assert_clean_stop(server)

    def test_stop_cancels_parked_statement(self):
        server = make_server()
        boot = connect(server.address)
        boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        boot.sql("INSERT INTO t (k, v) VALUES (1, 10)")
        holder = connect(server.address)
        holder.sql("BEGIN")
        holder.sql("UPDATE t SET v = 11 WHERE k = 1")

        waiter = connect(server.address)
        errors = []

        def blocked():
            waiter.sql("BEGIN ISOLATION LEVEL READ COMMITTED")
            try:
                waiter.sql("UPDATE t SET v = 12 WHERE k = 1")
            except (ReproError, OSError) as exc:
                errors.append(exc)

        thread = threading.Thread(target=blocked)
        thread.start()
        deadline = time.monotonic() + 5
        while (server.engine.latch.parks == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert_clean_stop(server)
        thread.join(10)
        assert not thread.is_alive()
        assert errors, "parked statement survived server stop"


class TestProtocolErrors:
    def test_sql_before_hello_is_protocol_error(self):
        server = make_server()
        raw = RawConn(server.address)
        raw.send(id=1, op="sql", sql="SELECT 1")
        response = raw.recv()
        assert response["ok"] is False
        assert response["error"]["sqlstate"] == ProtocolError.sqlstate
        raw.close()
        assert_clean_stop(server)

    def test_unknown_op_rejected(self):
        server = make_server()
        raw = RawConn(server.address)
        raw.send(id=1, op="launch_missiles")
        response = raw.recv()
        assert response["ok"] is False
        assert response["error"]["sqlstate"] == "08P01"
        raw.close()
        assert_clean_stop(server)

    def test_garbage_line_rejected(self):
        server = make_server()
        raw = RawConn(server.address)
        raw.send_bytes(b"this is not json\n")
        response = raw.recv()
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        raw.close()
        assert_clean_stop(server)

    def test_double_hello_rejected(self):
        server = make_server()
        raw = RawConn(server.address)
        raw.send(id=1, op="hello")
        assert raw.recv()["ok"] is True
        raw.send(id=2, op="hello")
        response = raw.recv()
        assert response["ok"] is False
        assert response["error"]["sqlstate"] == "08P01"
        raw.close()
        assert_clean_stop(server)

    def test_unknown_isolation_rejected(self):
        server = make_server()
        with pytest.raises(ProtocolError):
            connect(server.address, isolation="chaotic evil")
        assert_clean_stop(server)


class TestAuthentication:
    def test_wrong_token_gets_28P01(self):
        server = make_server(auth_token="sesame")
        with pytest.raises(AuthenticationError):
            connect(server.address, token="wrong")
        with pytest.raises(AuthenticationError):
            connect(server.address)  # missing token
        client = connect(server.address, token="sesame")
        assert client.ping() == "pong"
        client.close()
        assert_clean_stop(server)


class TestAdmissionControl:
    def test_connection_limit_rejects_with_53300(self):
        server = make_server(max_connections=1)
        first = connect(server.address)
        with pytest.raises(TooManyConnections) as excinfo:
            ReproClient(server.address, connect_retries=0).connect()
        assert excinfo.value.sqlstate == "53300"
        assert excinfo.value.retryable is True
        first.close()
        assert_clean_stop(server)

    def test_connect_retry_wins_a_freed_slot(self):
        server = make_server(max_connections=1)
        first = connect(server.address)

        def free_slot():
            time.sleep(0.15)
            first.close()

        thread = threading.Thread(target=free_slot)
        thread.start()
        second = ReproClient(server.address, connect_retries=20,
                             backoff_base=0.05, backoff_cap=0.1).connect()
        assert second.ping() == "pong"
        assert second.retries > 0
        thread.join(5)
        second.close()
        assert_clean_stop(server)


def park_on_held_row(server):
    """Create t(k=1), and return (boot, holder): holder's open
    transaction holds the row lock on k=1."""
    boot = connect(server.address)
    boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    boot.sql("INSERT INTO t (k, v) VALUES (1, 10)")
    holder = connect(server.address)
    holder.sql("BEGIN")
    holder.sql("UPDATE t SET v = 11 WHERE k = 1")
    return boot, holder


def wait_for_park(server):
    deadline = time.monotonic() + 5
    while server.engine.latch.parks == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.engine.latch.parks > 0, "statement never parked"


@pytest.mark.parametrize("mode", ["threaded", "asyncio"])
class TestOneRequestAtATime:
    """A connection's next frame is read only after its last one is
    answered, on both transports."""

    def test_pipelined_pings_wait_behind_a_parked_update(self, mode):
        server = make_server(mode=mode)
        boot, holder = park_on_held_row(server)
        raw = RawConn(server.address)
        raw.send(id=1, op="hello")
        assert raw.recv()["ok"] is True
        raw.send(id=2, op="sql", sql="BEGIN ISOLATION LEVEL READ COMMITTED")
        assert raw.recv()["ok"] is True
        raw.send(id=3, op="sql", sql="UPDATE t SET v = 12 WHERE k = 1")
        wait_for_park(server)
        for i in range(4, 10):
            raw.send(id=i, op="ping")
        # Nothing is answered while the update is parked: the pings
        # wait unread behind it.
        readable, _, _ = select.select([raw.sock], [], [], 0.3)
        assert readable == []
        holder.sql("COMMIT")
        frames = [raw.recv() for _ in range(7)]
        assert [f["id"] for f in frames] == list(range(3, 10))
        assert all(f["ok"] for f in frames), frames
        assert frames[0]["result"] == 1
        assert [f["result"] for f in frames[1:]] == ["pong"] * 6
        raw.send(id=10, op="sql", sql="COMMIT")
        assert raw.recv()["ok"] is True
        assert boot.sql("SELECT v FROM t WHERE k = 1") == [{"v": 12}]
        for c in (boot, holder):
            c.close()
        raw.close()
        assert_clean_stop(server)

    def test_stop_during_parked_statement_is_leak_free(self, mode):
        server = make_server(mode=mode)
        boot, holder = park_on_held_row(server)
        raw = RawConn(server.address)
        raw.send(id=1, op="hello")
        raw.send(id=2, op="sql", sql="BEGIN ISOLATION LEVEL READ COMMITTED")
        raw.send(id=3, op="sql", sql="UPDATE t SET v = 12 WHERE k = 1")
        wait_for_park(server)
        assert_clean_stop(server)
        # The cancelled update may or may not reach the wire before its
        # socket is shut down; it must never report success.
        frames = []
        for line in raw.rfile:
            frames.append(protocol.decode_frame(line.rstrip(b"\r\n")))
        assert all(not f["ok"] for f in frames if f["id"] == 3)
        raw.close()
        for c in (boot, holder):
            c._teardown()

    def test_abrupt_disconnect_mid_transaction_is_leak_free(self, mode):
        server = make_server(mode=mode)
        boot, holder = park_on_held_row(server)
        # One client vanishes idle in its transaction, the other while
        # its statement is parked behind the first one's row lock.
        waiter = RawConn(server.address)
        waiter.send(id=1, op="hello")
        waiter.send(id=2, op="sql", sql="BEGIN ISOLATION LEVEL READ COMMITTED")
        waiter.send(id=3, op="sql", sql="UPDATE t SET v = 12 WHERE k = 1")
        wait_for_park(server)
        waiter.close()
        holder._teardown()
        # The holder's implicit rollback unparks the waiter's update,
        # whose reply finds the socket gone; its connection then rolls
        # back too, and k=1 keeps its committed value.
        deadline = time.monotonic() + 5
        while (server.active_connections > 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.active_connections == 1
        assert boot.sql("SELECT v FROM t WHERE k = 1") == [{"v": 10}]
        boot._teardown()
        assert_clean_stop(server)


class TestStatementTimeout:
    def test_lock_wait_past_timeout_is_55P03(self):
        server = make_server(statement_timeout=0.2)
        boot = connect(server.address)
        boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        boot.sql("INSERT INTO t (k, v) VALUES (1, 10)")
        holder = connect(server.address)
        holder.sql("BEGIN")
        holder.sql("UPDATE t SET v = 11 WHERE k = 1")

        waiter = connect(server.address)
        waiter.sql("BEGIN ISOLATION LEVEL READ COMMITTED")
        with pytest.raises(LockNotAvailable) as excinfo:
            waiter.sql("UPDATE t SET v = 12 WHERE k = 1")
        assert excinfo.value.sqlstate == "55P03"
        assert waiter.txn == "failed"
        waiter.sql("ROLLBACK")
        # The cancelled request left the grant queue clean: the holder
        # commits and a fresh update sails through.
        holder.sql("COMMIT")
        assert waiter.sql("UPDATE t SET v = 13 WHERE k = 1") == 1
        for c in (boot, holder, waiter):
            c.close()
        assert_clean_stop(server)


class TestSQLFlow:
    def test_txn_field_tracks_state(self):
        server = make_server()
        client = connect(server.address)
        client.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        assert client.txn == "idle"
        client.sql("BEGIN")
        assert client.txn == "open"
        with pytest.raises(ReproError):
            client.sql("SELECT * FROM nonexistent")
        assert client.txn == "failed"
        client.sql("ROLLBACK")
        assert client.txn == "idle"
        client.close()
        assert_clean_stop(server)

    def test_serialization_failure_carries_postmortem_fields(self):
        server = make_server()
        boot = connect(server.address)
        boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        boot.sql("INSERT INTO t (k, v) VALUES (1, 10), (2, 10)")
        c1 = connect(server.address)
        c2 = connect(server.address)
        c1.sql("BEGIN ISOLATION LEVEL SERIALIZABLE")
        c2.sql("BEGIN ISOLATION LEVEL SERIALIZABLE")
        c1.sql("SELECT v FROM t WHERE k = 2")
        c2.sql("SELECT v FROM t WHERE k = 1")
        c1.sql("UPDATE t SET v = 5 WHERE k = 1")
        c2.sql("UPDATE t SET v = 5 WHERE k = 2")
        c1.sql("COMMIT")
        with pytest.raises(SerializationFailure) as excinfo:
            c2.sql("COMMIT")
        assert excinfo.value.sqlstate == "40001"
        assert excinfo.value.retryable is True
        for c in (boot, c1, c2):
            c.close()
        assert_clean_stop(server)

    def test_prepare_state_is_per_connection(self):
        server = make_server()
        boot = connect(server.address)
        boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        boot.sql("INSERT INTO t (k, v) VALUES (1, 10)")
        c1 = connect(server.address)
        c2 = connect(server.address)
        c1.sql("PREPARE getv AS SELECT v FROM t WHERE k = $1")
        assert c1.sql("EXECUTE getv(1)") == [{"v": 10}]
        with pytest.raises(ReproError):
            c2.sql("EXECUTE getv(1)")  # not prepared on this connection
        assert c1.sql("EXECUTE getv(1)") == [{"v": 10}]
        for c in (boot, c1, c2):
            c.close()
        assert_clean_stop(server)

    def test_default_isolation_from_config(self):
        server = make_server(default_isolation="read committed")
        client = connect(server.address)
        assert client.hello["isolation"] == "read committed"
        client.close()
        assert_clean_stop(server)


class TestAsyncioTransport:
    def test_sql_roundtrip(self):
        server = make_server(mode="asyncio")
        client = connect(server.address)
        client.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        client.sql("INSERT INTO t (k, v) VALUES (1, 10)")
        assert client.sql("SELECT * FROM t") == [{"k": 1, "v": 10}]
        client.close()
        assert_clean_stop(server)

    def test_admission_control(self):
        server = make_server(mode="asyncio", max_connections=1)
        first = connect(server.address)
        with pytest.raises(TooManyConnections):
            ReproClient(server.address, connect_retries=0).connect()
        first.close()
        assert_clean_stop(server)

    def test_concurrent_clients_interleave(self):
        server = make_server(mode="asyncio")
        boot = connect(server.address)
        boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        boot.sql("INSERT INTO t (k, v) VALUES (1, 10)")
        holder = connect(server.address)
        holder.sql("BEGIN")
        holder.sql("UPDATE t SET v = 11 WHERE k = 1")
        # A second client's statement runs while the first's txn is
        # open (the parked statement must not block the event loop).
        other = connect(server.address)
        assert other.ping() == "pong"
        assert other.sql("SELECT k FROM t") == [{"k": 1}]
        holder.sql("COMMIT")
        for c in (boot, holder, other):
            c.close()
        assert_clean_stop(server)


class TestNoFatalErrors:
    def test_smoke_leaves_no_fatal_errors(self):
        server = make_server()
        client = connect(server.address)
        client.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        client.run_transaction(
            lambda c: c.sql("INSERT INTO t (k, v) VALUES (1, 1)"))
        client.close()
        assert server.fatal_errors == []
        assert_clean_stop(server)


class TestClientPool:
    def test_connections_are_reused_within_bound(self):
        server = make_server()
        with ClientPool(server.address, size=2) as pool:
            c1 = pool.acquire()
            pool.release(c1)
            c2 = pool.acquire()
            assert c2 is c1                      # reuse, not re-dial
            pool.release(c2)
            assert pool.stats()["created"] == 1  # never above demand
        assert_clean_stop(server)

    def test_exhaustion_raises_retryable_53300(self):
        server = make_server()
        with ClientPool(server.address, size=1,
                        acquire_timeout=0.05) as pool:
            held = pool.acquire()
            with pytest.raises(TooManyConnections) as exc:
                pool.acquire()
            assert exc.value.sqlstate == "53300"
            assert isinstance(exc.value, ReproError)
            assert pool.stats()["exhausted"] == 1
            pool.release(held)
        assert_clean_stop(server)

    def test_waiter_wins_a_released_connection(self):
        """The pool-exhaustion retry: a blocked acquire succeeds as
        soon as a peer releases, well before its timeout."""
        server = make_server()
        with ClientPool(server.address, size=1, acquire_timeout=5.0) as pool:
            held = pool.acquire()
            got = []

            def waiter():
                client = pool.acquire()
                got.append(client)
                pool.release(client)

            t = threading.Thread(target=waiter)
            t.start()
            time.sleep(0.05)
            assert not got            # parked on the condition variable
            pool.release(held)
            t.join(timeout=5)
            assert got == [held]
            assert pool.stats()["waits"] == 1
        assert_clean_stop(server)

    def test_run_transaction_through_pool(self):
        server = make_server()
        with ClientPool(server.address, size=2) as pool:
            with pool.connection() as c:
                c.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            pool.run_transaction(
                lambda c: c.sql("INSERT INTO t (k, v) VALUES (1, 10)"))
            rows = pool.run_transaction(
                lambda c: c.sql("SELECT v FROM t WHERE k = 1"))
            assert rows == [{"v": 10}]
        assert_clean_stop(server)

    def test_release_rolls_back_open_transaction(self):
        server = make_server()
        with ClientPool(server.address, size=1) as pool:
            c = pool.acquire()
            c.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            c.sql("BEGIN")
            c.sql("INSERT INTO t (k, v) VALUES (1, 10)")
            pool.release(c)           # implicit ROLLBACK
            rows = pool.run_transaction(lambda c: c.sql("SELECT k FROM t"))
            assert rows == []
        assert_clean_stop(server)

    def test_dead_connection_heals_on_next_acquire(self):
        server = make_server()
        pool = ClientPool(server.address, size=1)
        c = pool.acquire()
        c.close()                     # simulate a dropped connection
        pool.release(c)               # slot freed, not pooled
        assert pool.stats()["created"] == 0
        c2 = pool.acquire()           # re-dials within the bound
        assert c2.ping() == "pong"
        pool.release(c2)
        pool.close()
        assert_clean_stop(server)
