"""GiST-style index over intervals, with internal-node predicate
locking (paper section 7.4).

The paper planned GiST support for a later release, noting the one
structural difference from B+-trees: "GiST indexes must lock internal
nodes in the tree, while B+-tree indexes only lock leaf pages". The
reason: GiST key space has no linear order, so an insert can descend
anywhere — the only stable footprint a scan can lock is the set of
nodes it visited, including internal ones, and an insert conflicts
with any scan whose visited nodes it modifies (bounding-key expansion
or entry placement).

This implementation indexes 1-D intervals (column values are
``(lo, hi)`` tuples) and answers *overlaps* queries — the classic GiST
example, sufficient to exercise every locking path. Node ids play the
role of page numbers, so the existing page-granularity SIREAD
machinery (including split handling) applies unchanged.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.index.base import IndexAM, InsertResult, ScanResult
from repro.storage.tuple import TID

Interval = Tuple[Any, Any]


def _as_interval(key: Any) -> Interval:
    """Accept (lo, hi) tuples or scalars (degenerate intervals)."""
    if isinstance(key, (tuple, list)) and len(key) == 2:
        lo, hi = key
        return (lo, hi) if lo <= hi else (hi, lo)
    return (key, key)


def _overlaps(a: Interval, b: Interval) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _union(a: Optional[Interval], b: Interval) -> Interval:
    if a is None:
        return b
    return (min(a[0], b[0]), max(a[1], b[1]))


def _enlargement(bounds: Optional[Interval], key: Interval) -> float:
    if bounds is None:
        return 0.0
    merged = _union(bounds, key)
    return float((merged[1] - merged[0]) - (bounds[1] - bounds[0]))


class _Node:
    __slots__ = ("node_id", "leaf", "entries", "bounds")

    def __init__(self, node_id: int, leaf: bool) -> None:
        self.node_id = node_id
        self.leaf = leaf
        #: leaf: [(interval, tid)]; internal: [(interval, child node)].
        self.entries: List[Tuple[Interval, Any]] = []
        self.bounds: Optional[Interval] = None

    def recompute_bounds(self) -> None:
        self.bounds = None
        for interval, _payload in self.entries:
            self.bounds = _union(self.bounds, interval)


class GiSTIndex(IndexAM):
    """Interval GiST; predicate locks target every visited node."""

    supports_predicate_locks = True
    ordered = False
    using = "gist"
    #: GiST has no linear key order: next-key locking cannot apply, so
    #: the engine always uses node (page) locking for this AM.
    supports_key_locking = False
    #: Planner hint: this AM answers overlap queries.
    spatial = True

    def __init__(self, oid: int, name: str, column: str,
                 unique: bool = False, node_size: int = 8) -> None:
        super().__init__(oid, name, column, unique)
        self.node_size = max(4, node_size)
        self._next_node = 0
        self._root = self._new_node(leaf=True)
        self._count = 0

    def _new_node(self, leaf: bool) -> _Node:
        node = _Node(self._next_node, leaf)
        self._next_node += 1
        return node

    # -- insertion -------------------------------------------------------
    def insert_entry(self, key: Any, tid: TID) -> InsertResult:
        interval = _as_interval(key)
        result = InsertResult(key=key)
        path = self._choose_path(interval)
        leaf = path[-1]
        if any(entry == (interval, tid) for entry in leaf.entries):
            result.leaf_pages.append(leaf.node_id)
            return result
        leaf.entries.append((interval, tid))
        self._count += 1
        # Every node whose bounding key this insert touches is part of
        # the write footprint (the internal-node locking rule).
        for node in path:
            node.bounds = _union(node.bounds, interval)
            result.leaf_pages.append(node.node_id)
        # Refresh parent entry keys to match the grown child bounds.
        for parent, child in zip(path, path[1:]):
            parent.entries = [(child.bounds, c) if c is child else (iv, c)
                              for iv, c in parent.entries]
        node = leaf
        for parent in reversed(path[:-1]):
            if len(node.entries) > self.node_size:
                sibling = self._split(node, parent)
                result.splits.append((node.node_id, sibling.node_id))
            node = parent
        if len(self._root.entries) > self.node_size:
            old_root = self._root
            new_root = self._new_node(leaf=False)
            new_root.entries = [(old_root.bounds, old_root)]
            new_root.recompute_bounds()
            self._root = new_root
            sibling = self._split(old_root, new_root)
            result.splits.append((old_root.node_id, sibling.node_id))
        return result

    def _choose_path(self, interval: Interval) -> List[_Node]:
        """Root-to-leaf path of least bounding-key enlargement."""
        path = [self._root]
        node = self._root
        while not node.leaf:
            best = min(node.entries,
                       key=lambda e: (_enlargement(e[0], interval),
                                      e[0][1] - e[0][0]))
            node = best[1]
            path.append(node)
        return path

    def _split(self, node: _Node, parent: _Node) -> _Node:
        """Linear split: order by interval start, halve."""
        node.entries.sort(key=lambda e: (e[0][0], e[0][1]))
        half = len(node.entries) // 2
        sibling = self._new_node(node.leaf)
        sibling.entries = node.entries[half:]
        node.entries = node.entries[:half]
        node.recompute_bounds()
        sibling.recompute_bounds()
        parent.entries = [(interval, child) if child is not node
                          else (node.bounds, node)
                          for interval, child in parent.entries]
        parent.entries.append((sibling.bounds, sibling))
        parent.recompute_bounds()
        return sibling

    # -- search ---------------------------------------------------------------
    def search(self, key: Any) -> ScanResult:
        return self._scan(_as_interval(key))

    def range_search(self, lo: Any, hi: Any, lo_incl: bool = True,
                     hi_incl: bool = True) -> ScanResult:
        return self._scan((lo, hi))

    def _scan(self, query: Interval) -> ScanResult:
        """Overlap query; records every node visited (internal and
        leaf) as the predicate-lock footprint."""
        result = ScanResult()
        stack = [self._root]
        while stack:
            node = stack.pop()
            result.visited_pages.append(node.node_id)
            for interval, payload in node.entries:
                if not _overlaps(interval, query):
                    continue
                if node.leaf:
                    result.tids.append(payload)
                else:
                    stack.append(payload)
        return result

    # -- maintenance --------------------------------------------------------------
    def remove_entry(self, key: Any, tid: TID) -> None:
        interval = _as_interval(key)

        def recurse(node: _Node) -> bool:
            removed = False
            if node.leaf:
                before = len(node.entries)
                node.entries = [e for e in node.entries
                                if e != (interval, tid)]
                removed = len(node.entries) != before
            else:
                for entry_interval, child in node.entries:
                    if _overlaps(entry_interval, interval):
                        removed |= recurse(child)
                node.entries = [(child.bounds, child)
                                for _i, child in node.entries
                                if child.entries or child is self._root]
            if removed:
                node.recompute_bounds()
            return removed

        if recurse(self._root):
            self._count -= 1

    def entry_count(self) -> int:
        return self._count

    # -- invariants (property tests) ----------------------------------------------
    def check_invariants(self) -> None:
        count = [0]

        def recurse(node: _Node) -> None:
            computed = None
            for interval, payload in node.entries:
                computed = _union(computed, interval)
                if node.leaf:
                    count[0] += 1
                else:
                    recurse(payload)
                    assert payload.bounds == interval, \
                        "stale bounding key in parent entry"
            assert node.bounds == computed, "stale node bounds"

        recurse(self._root)
        assert count[0] == self._count
