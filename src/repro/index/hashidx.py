"""Hash index: equality-only lookups, no predicate-lock support.

PostgreSQL 9.1 shipped SSI with predicate locking only for B+-trees;
for other AMs it "falls back on acquiring a relation-level lock on the
index whenever it is accessed" (paper section 7.4). This AM exists to
exercise that fallback path: ``supports_predicate_locks`` is False, so
the engine takes a relation-granularity SIREAD lock on the index for
every scan through it, and writers inserting into the index check that
relation-level lock.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.index.base import IndexAM, InsertResult, ScanResult
from repro.storage.tuple import TID


class HashIndex(IndexAM):
    supports_predicate_locks = False
    ordered = False
    using = "hash"

    def __init__(self, oid: int, name: str, column: str,
                 unique: bool = False) -> None:
        super().__init__(oid, name, column, unique)
        self._buckets: Dict[Any, List[TID]] = {}
        self._count = 0

    def insert_entry(self, key: Any, tid: TID) -> InsertResult:
        bucket = self._buckets.setdefault(key, [])
        if tid not in bucket:
            bucket.append(tid)
            self._count += 1
        return InsertResult()

    def remove_entry(self, key: Any, tid: TID) -> None:
        bucket = self._buckets.get(key)
        if bucket and tid in bucket:
            bucket.remove(tid)
            self._count -= 1
            if not bucket:
                del self._buckets[key]

    def search(self, key: Any) -> ScanResult:
        return ScanResult(tids=list(self._buckets.get(key, ())))

    def range_search(self, lo: Any, hi: Any, lo_incl: bool = True,
                     hi_incl: bool = True) -> ScanResult:
        raise NotImplementedError("hash indexes support only equality lookups")

    def entry_count(self) -> int:
        return self._count
