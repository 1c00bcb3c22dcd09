"""Structured event tracer: a ring buffer of engine events.

Every interesting step of the SSI machinery (transaction lifecycle,
reads, writes, rw-antidependency edges, dangerous-structure checks,
dooms, summarization, lock waits, WAL shipping) can emit one
:class:`TraceEvent`.  The buffer is bounded (``collections.deque`` with
``maxlen``), so tracing a long benchmark keeps the most recent window.

The tracer exists only when enabled (``ObsConfig.enabled`` and
``ObsConfig.trace``); instrumentation sites guard with
``if obs.tracer is not None`` so the disabled cost is one attribute
test.

Event kinds used by the engine (see DESIGN.md "Observability"):

==================  =====================================================
kind                emitted when
==================  =====================================================
``txn.begin``       a transaction starts (isolation, read_only, deferrable)
``txn.snapshot``    a snapshot is taken for a transaction
``txn.commit``      a transaction commits (``commit_seq`` for SSI ones)
``txn.abort``       a transaction rolls back
``read.tuple``      a serializable transaction examines a heap tuple
                    that needs SSI bookkeeping (a tuple lock to take,
                    or rw-conflict evidence to act on)
``read.page``       a scan reads ``tuples`` tuples of one heap page that
                    an SIREAD lock the reader holds already covers
                    (site = the page target): once per page for a
                    sequential scan, once per covered tuple for an
                    index scan
``scan.rel``        a sequential scan takes a relation SIREAD lock
``write.tuple``     a heap write checks SIREAD holders
``rw.conflict``     an rw-antidependency edge is recorded (reader, writer,
                    site = the predicate-lock target that witnessed it)
``danger.check``    a dangerous structure T1->T2->T3 is confirmed
``doom``            a victim is marked DOOMED by another session
``abort.raise``     a SerializationFailure is raised (cause, rule)
``ro.safe``         a READ ONLY snapshot is proven safe
``ro.unsafe``       a READ ONLY snapshot is proven unsafe
``summarize``       a committed sxact is consolidated (section 6.2)
``lock.wait``       a heavyweight lock request queues
``lock.grant``      a queued request is granted (``wait_ns``)
``lock.cancel``     a queued request is cancelled (owner aborted)
``buf.miss``        a buffer-cache miss
``wal.ship``        a commit record is fed to the attached replicas
==================  =====================================================
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Dict, List, Optional


class TraceEvent:
    """One structured event: sequence number, monotonic timestamp,
    kind, optional transaction id, and free-form payload."""

    __slots__ = ("seq", "ts_ns", "kind", "xid", "data")

    def __init__(self, seq: int, ts_ns: int, kind: str,
                 xid: Optional[int], data: Dict[str, Any]) -> None:
        self.seq = seq
        self.ts_ns = ts_ns
        self.kind = kind
        self.xid = xid
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"seq": self.seq, "ts_ns": self.ts_ns,
                               "kind": self.kind}
        if self.xid is not None:
            out["xid"] = self.xid
        out.update(self.data)
        return out

    def __repr__(self) -> str:
        extra = "".join(f" {k}={v!r}" for k, v in self.data.items())
        who = f" xid={self.xid}" if self.xid is not None else ""
        return f"<#{self.seq} {self.kind}{who}{extra}>"


class Tracer:
    """Bounded in-memory event log with filtering and JSONL export."""

    def __init__(self, capacity: int = 8192) -> None:
        self.capacity = capacity
        self._buf: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._seq = 0
        #: Total events ever emitted (>= len(self) once the ring wraps).
        self.emitted = 0

    def emit(self, kind: str, xid: Optional[int] = None,
             **data: Any) -> TraceEvent:
        self._seq += 1
        self.emitted += 1
        event = TraceEvent(self._seq, time.monotonic_ns(), kind, xid, data)
        self._buf.append(event)
        return event

    # -- reading ---------------------------------------------------------
    def events(self, kind: Optional[str] = None,
               xid: Optional[int] = None) -> List[TraceEvent]:
        """Events currently buffered, oldest first, optionally filtered
        by kind and/or by transaction id (matching either the event's
        ``xid`` or any xid-valued payload field, so per-transaction
        filtering also finds edges where it was the counterparty)."""
        out = []
        for ev in self._buf:
            if kind is not None and ev.kind != kind:
                continue
            if xid is not None and not self._involves(ev, xid):
                continue
            out.append(ev)
        return out

    @staticmethod
    def _involves(ev: TraceEvent, xid: int) -> bool:
        if ev.xid == xid:
            return True
        for key, value in ev.data.items():
            if key.endswith("xid") and value == xid:
                return True
        return False

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self):
        return iter(list(self._buf))

    def clear(self) -> None:
        self._buf.clear()

    # -- export ----------------------------------------------------------
    def export_jsonl(self, destination) -> int:
        """Write buffered events as JSON Lines to a path or file object;
        returns the number of events written. Non-JSON-native payload
        values (tuples, enums) are stringified."""
        if isinstance(destination, (str, bytes, os.PathLike)):
            with open(destination, "w") as fh:
                return self.export_jsonl(fh)
        n = 0
        for ev in self._buf:
            destination.write(json.dumps(ev.to_dict(), default=str) + "\n")
            n += 1
        return n
