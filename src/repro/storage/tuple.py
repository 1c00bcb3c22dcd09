"""Heap tuples: row versions with MVCC headers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

from repro.mvcc.xid import INVALID_XID


class TID(NamedTuple):
    """Physical tuple identifier: (page number, slot within page).

    SIREAD locks at tuple and page granularity are keyed by physical
    location (paper section 5.2.1), which is why table rewrites must
    promote them to relation granularity.
    """

    page: int
    slot: int


@dataclass(slots=True)
class HeapTuple:
    """One row version.

    Header fields follow PostgreSQL: ``xmin``/``cmin`` identify the
    creating transaction and command, ``xmax``/``cmax`` the deleting or
    replacing one. ``xmax_lock_only`` marks a FOR UPDATE-style tuple
    lock stored in xmax without deleting the tuple (HEAP_XMAX_LOCK_ONLY).
    ``next_tid`` is the forward ctid chain to the replacing version.

    The four ``*_committed``/``*_aborted`` booleans are infomask hint
    bits (HEAP_XMIN_COMMITTED & co.): a cache of the commit log's
    *final* verdict on xmin/xmax, set lazily by visibility checks so
    repeat scans skip the CLOG. They are advisory only -- a bit is set
    only once the corresponding status can never change again, so a
    set bit always agrees with the commit log -- and they are reset
    whenever xmax is restamped.

    ``text`` caches the version's compact JSON (the bytes the server
    sends for it in a ``SELECT *`` frame; see
    ``repro.server.protocol.version_text``). It is filled the first
    time the version is sent and never invalidated: ``data`` never
    changes once the version is written -- an UPDATE makes a new
    version -- so the text lives exactly as long as the version.
    """

    tid: TID
    data: Dict[str, Any]
    xmin: int
    cmin: int = 0
    xmax: int = INVALID_XID
    cmax: int = 0
    xmax_lock_only: bool = False
    next_tid: Optional[TID] = None
    # -- hint bits (lazily set, CLOG-consistent by construction) --------
    xmin_committed: bool = False
    xmin_aborted: bool = False
    xmax_committed: bool = False
    xmax_aborted: bool = False
    # -- wire text cache (filled on first send, never invalidated) ------
    text: Optional[bytes] = None

    def set_deleter(self, xid: int, cid: int, *, lock_only: bool = False) -> None:
        self.xmax = xid
        self.cmax = cid
        self.xmax_lock_only = lock_only
        # The new xmax is in progress: any cached verdict on the old
        # xmax no longer applies.
        self.xmax_committed = False
        self.xmax_aborted = False

    def clear_deleter(self) -> None:
        """Remove an aborted deleter / released tuple lock."""
        self.xmax = INVALID_XID
        self.cmax = 0
        self.xmax_lock_only = False
        self.next_tid = None
        self.xmax_committed = False
        self.xmax_aborted = False


class VersionRows(list):
    """Row dicts read from one heap, with the versions they came from.

    ``versions[i]`` is the heap tuple whose ``data`` row ``i`` was read
    from (the dict itself or a copy of it). A scan returns this shape,
    and a single-table ``SELECT *`` keeps it, so the server can send
    each version's cached ``text`` instead of encoding the row again.
    Everything else treats it as the plain list it is.
    """

    __slots__ = ("versions",)

    def __init__(self, rows: Iterable[Dict[str, Any]],
                 versions: List[HeapTuple]) -> None:
        super().__init__(rows)
        self.versions = versions
