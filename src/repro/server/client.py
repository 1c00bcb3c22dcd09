"""Client library: reconnects, retries, and real exception classes.

:class:`ReproClient` is a synchronous one-request-at-a-time client for
the line-delimited JSON protocol. It re-raises server errors as the
very exception classes a local caller would see (SerializationFailure,
DeadlockDetected, TooManyConnections, ...) by mapping the structured
``sqlstate`` field back through the repro.errors hierarchy.

:meth:`ReproClient.run_transaction` is the retry loop the paper assumes
exists in every serializable application (section 3.3: clients "must
already be prepared to handle transactions aborted by serialization
failures"): it wraps the callable in BEGIN/COMMIT and transparently
re-runs it on any retryable error, sleeping an exponentially growing,
jittered backoff between attempts. Admission rejections (53300) at
connect time get the same treatment, which is what turns overload into
graceful degradation instead of client-visible failure.
"""

from __future__ import annotations

import contextlib
import random  # repro: noqa(DET001) -- retry jitter decorrelates real clients; it never feeds back into the logical history
import socket
import threading
import time  # repro: noqa(DET001) -- backoff sleeps are wall-clock by nature
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (ProtocolError, RetryableError, TooManyConnections)
from repro.server import protocol


class ReproClient:
    """One connection to a ReproServer (or a retrying factory for one)."""

    def __init__(self, address: Tuple[str, int], *,
                 token: Optional[str] = None,
                 isolation: Optional[str] = None,
                 connect_timeout: float = 10.0,
                 connect_retries: int = 10,
                 backoff_base: float = 0.01,
                 backoff_cap: float = 1.0,
                 rng: Optional[random.Random] = None) -> None:
        self.address = tuple(address)
        self.token = token
        self.isolation = isolation
        self.connect_timeout = connect_timeout
        self.connect_retries = connect_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._next_id = 0
        #: Server-reported transaction state after the last response
        #: (idle / open / failed) -- drives run_transaction's cleanup.
        self.txn = "idle"
        #: Populated by connect() from the hello response.
        self.hello: Optional[Dict[str, Any]] = None
        #: Retries performed (connect + transaction), for tests/bench.
        self.retries = 0

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> "ReproClient":
        """Dial and handshake; admission rejections (53300) are retried
        with exponential backoff up to ``connect_retries`` times."""
        attempt = 0
        while True:
            try:
                self._dial()
                return self
            except TooManyConnections:
                self._teardown()
                attempt += 1
                if attempt > self.connect_retries:
                    raise
                self.retries += 1
                self._sleep_backoff(attempt)

    def _dial(self) -> None:
        sock = socket.create_connection(self.address,
                                        timeout=self.connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        hello: Dict[str, Any] = {"op": "hello"}
        if self.token is not None:
            hello["token"] = self.token
        if self.isolation is not None:
            hello["isolation"] = self.isolation
        self.hello = self._request(hello)

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._request({"op": "close"})
        except (OSError, ValueError, ProtocolError):
            pass
        except Exception:
            pass
        finally:
            self._teardown()

    def _teardown(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = None
        self._sock = None
        self.txn = "idle"

    def __enter__(self) -> "ReproClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def sql(self, statement: str) -> Any:
        """Run one statement; returns rows / rowcount / None, raising
        the mapped engine exception on error."""
        return self._request({"op": "sql", "sql": statement})

    def ping(self) -> Any:
        return self._request({"op": "ping"})

    def _request(self, payload: Dict[str, Any]) -> Any:
        if self._sock is None or self._rfile is None:
            raise OSError("client is not connected")
        self._next_id += 1
        request_id = self._next_id
        payload = dict(payload, id=request_id)
        self._sock.sendall(protocol.encode_frame(payload))
        # A response line has no size cap (MAX_FRAME_BYTES bounds what
        # the server accepts): reading only part of it would leave the
        # rest in the buffer as the "response" to the next request.
        line = self._rfile.readline()
        if not line:
            raise OSError("server closed the connection")
        response = protocol.decode_frame(line.rstrip(b"\r\n"),
                                         max_bytes=None)
        self.txn = response.get("txn", self.txn)
        rid = response.get("id")
        if rid is not None and rid != request_id:
            raise ProtocolError(
                f"response id {rid!r} does not match request {request_id}")
        protocol.raise_for_error(response)
        return response.get("result")

    # ------------------------------------------------------------------
    # the retry loop
    # ------------------------------------------------------------------
    def run_transaction(self, fn: Callable[["ReproClient"], Any], *,
                        isolation: Optional[str] = None,
                        read_only: bool = False,
                        max_retries: int = 10) -> Any:
        """Run ``fn(client)`` inside BEGIN/COMMIT, transparently
        retrying on any retryable error (40001, 40P01, 53300, 55P03,
        57014) with jittered exponential backoff."""
        begin = "BEGIN"
        if isolation is not None:
            begin += f" ISOLATION LEVEL {isolation.upper()}"
        if read_only:
            begin += " READ ONLY"
        attempt = 0
        while True:
            try:
                self.sql(begin)
                result = fn(self)
                self.sql("COMMIT")
                return result
            except RetryableError:
                self._cleanup_failed_txn()
                attempt += 1
                if attempt > max_retries:
                    raise
                self.retries += 1
                self._sleep_backoff(attempt)

    def _cleanup_failed_txn(self) -> None:
        """After a retryable failure the transaction may be open
        (statement failed, txn FAILED) or already gone (aborted at
        COMMIT); roll back only when the server says one is live."""
        if self.txn in ("open", "failed"):
            try:
                self.sql("ROLLBACK")
            except (OSError, ProtocolError):
                pass

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (attempt - 1)))
        # Full jitter: sleep U(delay/2, delay) to decorrelate retriers.
        time.sleep(delay * (0.5 + self._rng.random() / 2))


class ClientPool:
    """A bounded pool of :class:`ReproClient` connections.

    At most ``size`` connections exist at any moment; they are dialed
    lazily and reused across :meth:`acquire`/:meth:`release` cycles. An
    :meth:`acquire` that cannot get a connection within
    ``acquire_timeout`` raises :class:`TooManyConnections` -- the same
    retryable 53300 the server's own admission control uses, so the one
    retry loop callers already have (``run_transaction``) covers
    pool exhaustion too. Dead connections (server restart, network
    error) are detected on release and re-dialed on next acquire, so
    the pool self-heals without ever exceeding its bound.
    """

    def __init__(self, address: Tuple[str, int], *, size: int = 8,
                 acquire_timeout: float = 5.0, **client_kw: Any) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.address = tuple(address)
        self.size = size
        self.acquire_timeout = acquire_timeout
        self._client_kw = client_kw
        self._cond = threading.Condition()
        self._idle: List[ReproClient] = []
        self._created = 0
        self._closed = False
        #: Acquires that had to wait for a connection (gauge for tests).
        self.waits = 0
        #: Acquires rejected with TooManyConnections.
        self.exhausted = 0

    # ------------------------------------------------------------------
    def acquire(self, timeout: Optional[float] = None) -> ReproClient:
        """Check a connection out of the pool, dialing one lazily while
        under the bound; raises TooManyConnections after ``timeout``."""
        if timeout is None:
            timeout = self.acquire_timeout
        deadline = time.monotonic() + timeout
        with self._cond:
            waited = False
            while True:
                if self._closed:
                    raise OSError("connection pool is closed")
                if self._idle:
                    client = self._idle.pop()
                    break
                if self._created < self.size:
                    # Reserve the slot before dialing (the dial happens
                    # outside the lock); a failed dial releases it.
                    self._created += 1
                    client = None
                    break
                if not waited:
                    waited = True
                    self.waits += 1
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    self.exhausted += 1
                    raise TooManyConnections(
                        f"connection pool exhausted: {self.size} "
                        f"connections busy for {timeout:.3f}s")
        if client is None:
            try:
                client = ReproClient(self.address,
                                     **self._client_kw).connect()
            except BaseException:
                with self._cond:
                    self._created -= 1
                    self._cond.notify()
                raise
        elif client._sock is None:
            try:
                client.connect()
            except BaseException:
                with self._cond:
                    self._created -= 1
                    self._cond.notify()
                raise
        return client

    def release(self, client: ReproClient) -> None:
        """Return a connection. A connection inside a transaction is
        rolled back first; a dead one is dropped (its slot frees up)."""
        if client.txn in ("open", "failed"):
            try:
                client.sql("ROLLBACK")
            except (OSError, ProtocolError, RetryableError):
                client._teardown()
        with self._cond:
            if self._closed or client._sock is None:
                self._created -= 1
                if client._sock is not None:
                    client.close()
            else:
                self._idle.append(client)
            self._cond.notify()

    @contextlib.contextmanager
    def connection(self, timeout: Optional[float] = None):
        client = self.acquire(timeout)
        try:
            yield client
        finally:
            self.release(client)

    def run_transaction(self, fn: Callable[[ReproClient], Any],
                        **kw: Any) -> Any:
        """Acquire, run ``client.run_transaction(fn, **kw)``, release."""
        with self.connection() as client:
            return client.run_transaction(fn, **kw)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {"size": self.size, "created": self._created,
                    "idle": len(self._idle),
                    "in_use": self._created - len(self._idle),
                    "waits": self.waits, "exhausted": self.exhausted}

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._created -= len(idle)
            self._cond.notify_all()
        for client in idle:
            client.close()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def connect(address: Tuple[str, int], **kw: Any) -> ReproClient:
    """Module-level convenience: ``client = connect(server.address)``."""
    return ReproClient(address, **kw).connect()
