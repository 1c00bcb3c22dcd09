"""Index access method interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.storage.tuple import TID


@dataclass
class InsertResult:
    """What an index insert touched, for SSI's conflict-in checks.

    Attributes:
        leaf_pages: index page numbers where the new entry landed
            (page-granularity locking).
        splits: (old_page, new_page) pairs for any page splits; the SSI
            lock manager copies predicate locks from old to new so gap
            locks keep covering the moved key range.
        key: the inserted key (next-key locking).
        successor_key: smallest pre-existing key greater than ``key``
            (the guardian of the gap the insert lands in), or None.
        has_successor: False when the insert extends the right edge of
            the key space (the +infinity gap).
        key_existed: the key already had entries before this insert.
    """

    leaf_pages: List[int] = field(default_factory=list)
    splits: List[Tuple[int, int]] = field(default_factory=list)
    key: Any = None
    successor_key: Any = None
    has_successor: bool = False
    key_existed: bool = False


@dataclass
class ScanResult:
    """What an index scan returned and which pages it visited.

    ``visited_pages`` is non-empty even for empty results: the page
    where matching keys would live is the phantom-detection gap lock
    target. For next-key locking, ``matched_keys`` plus ``next_key``
    (the first key beyond the scanned range; ``has_next`` False means
    the range extends to +infinity) carry the same information at key
    granularity.
    """

    tids: List[TID] = field(default_factory=list)
    visited_pages: List[int] = field(default_factory=list)
    matched_keys: List[Any] = field(default_factory=list)
    next_key: Any = None
    has_next: bool = False
    #: False when the scan's inclusive upper bound was itself matched:
    #: the lock on that key already guards the range's right edge, so
    #: no gap guard beyond it is needed (ARIES/KVL refinement).
    guard_needed: bool = True


class IndexAM(abc.ABC):
    """Duck-typed contract every index access method satisfies."""

    #: Whether the AM supports page-granularity predicate (SIREAD)
    #: locking. If False, SSI falls back to locking the whole index
    #: relation (paper section 7.4).
    supports_predicate_locks: bool = True
    #: Whether the AM supports range scans (planner hint).
    ordered: bool = True
    #: The access method's name in CREATE INDEX ... USING.
    using: str = "btree"
    #: Whether the AM's key space is linearly ordered, making next-key
    #: locking applicable (B+-trees only).
    supports_key_locking: bool = False

    def __init__(self, oid: int, name: str, column: str,
                 unique: bool = False) -> None:
        self.oid = oid
        self.name = name
        self.column = column
        self.unique = unique

    @abc.abstractmethod
    def insert_entry(self, key: Any, tid: TID) -> InsertResult:
        """Add (key, tid); duplicates of (key, tid) are idempotent."""

    @abc.abstractmethod
    def remove_entry(self, key: Any, tid: TID) -> None:
        """Drop (key, tid) if present (VACUUM cleanup)."""

    @abc.abstractmethod
    def search(self, key: Any) -> ScanResult:
        """All TIDs indexed under exactly ``key``."""

    @abc.abstractmethod
    def range_search(self, lo: Any, hi: Any, lo_incl: bool = True,
                     hi_incl: bool = True) -> ScanResult:
        """All TIDs with lo </<= key </<= hi; None bounds are open."""

    @abc.abstractmethod
    def entry_count(self) -> int:
        """Number of (key, tid) entries (tests and space accounting)."""
