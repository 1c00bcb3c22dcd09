"""Latching discipline for real-thread execution (repro.server).

The engine was built for the deterministic single-threaded scheduler:
shared structures (heap pages, CLOG, FSM, visibility map, the SSI
SIREAD table and conflict graph, the heavyweight lock table) are
mutated without any synchronization, and statements that must wait
yield a condition object for the scheduler to poll. The network server
runs statements from real OS threads, which needs two things:

* a **latch** (short-term mutual exclusion, PostgreSQL's LWLock role)
  around every touch of shared engine state; and
* real **parking**: a thread whose statement would block must release
  the latch and sleep on a condition variable until another thread's
  commit/abort/release makes its wait condition ready -- the
  deterministic scheduler is not there to poll for it.

Discipline
----------

Latches are named and **ranked**. A thread may only acquire latches in
strictly increasing rank order (re-acquiring a latch it already holds
is always allowed -- latches are reentrant); any out-of-order
acquisition raises :class:`LatchOrderError` immediately, on every
build, making lock-order deadlocks between latches structurally
impossible rather than merely unobserved. The rank order is::

    ENGINE (10)  <  CONNECTIONS (20)  <  METRICS (40)

* ``ENGINE`` -- the per-database engine latch. Coarse by design: one
  statement step mutates many structures (heap + FSM + vismap + SSI +
  lock table) and a single latch makes the cross-structure invariants
  the sanitizers check atomic under threads. Held for the duration of
  one statement, *except* while parked on a wait condition and at
  voluntary scan yield points (:meth:`EngineLatch.bow`), which is
  where real concurrency interleaves.
* ``CONNECTIONS`` -- the server's connection registry (admission
  control reads/writes it from the accept loop while workers
  unregister).
* ``METRICS`` -- server-side metric points touched outside the engine
  latch (latency histograms, retry counters).

Waits are **level-triggered**: parked threads re-check
``condition.ready`` under the latch, and every completed engine entry
broadcasts (:meth:`EngineLatch.notify_all`) before releasing, so a
commit that grants queued lock requests or decides snapshot safety
wakes every parked statement. A small poll interval bounds the damage
of any missed notification.
"""

from __future__ import annotations

import threading
import time  # repro: noqa(DET001) -- latch park deadlines are wall-clock by nature; they never influence the logical history, only when a waiting thread gives up
from typing import Callable, List, Optional

#: Canonical ranks, lowest (outermost) first.
RANK_ENGINE = 10
RANK_CONNECTIONS = 20
RANK_METRICS = 40

_local = threading.local()


def _held_stack() -> List["Latch"]:
    """This thread's stack of currently-held latches (outermost
    first)."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


# ----------------------------------------------------------------------
# introspection (used by the dynamic lockset sanitizer and tests)
# ----------------------------------------------------------------------
def held_latches() -> List["Latch"]:
    """A snapshot of the latches the *calling thread* currently holds,
    outermost first. Thread-local, so safe to call without any lock."""
    return list(_held_stack())


def holds_rank(rank: int) -> bool:
    """True when the calling thread holds some latch of ``rank`` --
    the runtime form of a static ``guarded-by`` fact, checked by the
    lockset sanitizer on every instrumented attribute access."""
    return any(held.rank == rank for held in _held_stack())


class LatchOrderError(AssertionError):
    """A latch was acquired out of rank order (a potential lock-order
    deadlock). An AssertionError on purpose: this is a programming
    error in the engine, not a runtime condition to handle."""


class Latch:
    """A named, ranked, reentrant mutual-exclusion latch.

    Use as a context manager (``with latch:``) so acquisition and
    release are lexically paired -- the LOCK002 lint rule covers bare
    ``acquire`` calls on latches exactly as it does for the
    heavyweight lock manager.
    """

    def __init__(self, name: str, rank: int) -> None:
        self.name = name
        self.rank = rank
        self._lock = threading.RLock()

    # -- ordering check ------------------------------------------------
    def _check_order(self, stack: List["Latch"]) -> None:
        if not stack:
            return
        if any(held is self for held in stack):
            return  # reentrant re-acquisition: always safe
        top = stack[-1]
        if top.rank >= self.rank:
            raise LatchOrderError(
                f"latch order violation: acquiring {self.name!r} "
                f"(rank {self.rank}) while holding {top.name!r} "
                f"(rank {top.rank}); latches must be taken in strictly "
                f"increasing rank order")

    def acquire(self) -> "Latch":
        self._check_order(_held_stack())
        self._lock.acquire()
        _held_stack().append(self)
        return self

    def release(self) -> None:
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._lock.release()

    def held_by_me(self) -> bool:
        return any(held is self for held in _held_stack())

    def __enter__(self) -> "Latch":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Latch {self.name} rank={self.rank}>"


class EngineLatch(Latch):
    """The engine latch plus its condition variable for parking.

    A server thread holds this latch for the whole of one statement
    step; :meth:`park` suspends the thread (releasing the latch) until
    its wait condition reports ready, and :meth:`notify_all` is
    broadcast by every completed engine entry, since any commit, abort
    or rollback may have granted queued lock requests or decided a
    snapshot's safety.
    """

    #: Fallback re-check period while parked, seconds. Correctness
    #: never depends on it (every engine exit broadcasts); it bounds
    #: the cost of a lost wakeup to one poll interval.
    POLL_INTERVAL = 0.05

    def __init__(self, name: str = "engine", rank: int = RANK_ENGINE) -> None:
        super().__init__(name, rank)
        self._cond = threading.Condition(self._lock)
        #: Diagnostic counters (read under the latch).
        self.parks = 0  # repro: guarded-by(ENGINE)
        self.park_timeouts = 0  # repro: guarded-by(ENGINE)

    def park(self, ready: Callable[[], bool], *,
             deadline: Optional[float] = None) -> bool:
        """Sleep until ``ready()`` is true, releasing the latch while
        asleep. Must be called with the latch held; returns holding it.

        Returns False when ``deadline`` (``time.monotonic()`` basis)
        expired first -- the caller decides how to cancel the wait.
        """
        self.parks += 1
        while not ready():
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.park_timeouts += 1
                    return False
                self._cond.wait(min(self.POLL_INTERVAL, remaining))
            else:
                self._cond.wait(self.POLL_INTERVAL)
        return True

    def bow(self) -> None:
        """Voluntary yield point: briefly release the latch so other
        threads may run (the thread analog of the scheduler honouring a
        mid-scan Yield). Must be called with the latch held exactly
        once; returns holding it."""
        # Condition.wait(0) releases the (possibly reentrant) latch,
        # gives waiters a chance to grab it, and re-acquires.
        self._cond.wait(0)

    def notify_all(self) -> None:
        """Broadcast to every parked thread. Must hold the latch."""
        self._cond.notify_all()
