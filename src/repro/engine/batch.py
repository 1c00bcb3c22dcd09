"""Batch-at-a-time execution primitives.

The snapshot scan (``Executor._scan_snapshot``) handles a heap page at
a time, moving per-tuple Python dispatch out of the hot path:

* :func:`compile_batch_filter` specializes a predicate into a single
  list-comprehension closure over a page's live tuples, replicating
  the predicate's ``matches`` semantics exactly (including the None
  handling of the ordered comparisons) so batch filtering returns the
  same rows as per-tuple ``pred.matches`` calls;
* :class:`BatchAggregator` folds aggregates page by page (the SQL
  layer's aggregate pushdown).

SSI correctness: batching changes *when* checks run, never *whether*.
The executor still classifies visibility per tuple and takes the same
SIREAD locks; the only hoisted check is the read-coverage early exit
(`SSIManager.read_page_covered`), which is already tuple-independent
because it keys on (relation, page). See DESIGN.md, "Vectorized
execution".
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.engine.predicate import (AlwaysTrue, And, Between, Eq, Ge, Gt, Le,
                                    Lt, Ne, Predicate)
from repro.storage.tuple import HeapTuple

#: A compiled batch filter: list of tuples in, matching tuples out
#: (input order preserved).
BatchFilter = Callable[[Sequence[HeapTuple]], List[HeapTuple]]


def compile_batch_filter(pred: Predicate) -> BatchFilter:
    """Specialize ``pred`` into one closure applied per batch.

    Each arm replicates the corresponding ``Predicate.matches``
    exactly; anything without a specialization (And/Or/Func/...) falls
    back to calling ``matches`` per tuple, which is still one Python
    call fewer than the seed loop's attribute lookups.
    """
    if isinstance(pred, AlwaysTrue):
        # Identity, not a copy: every consumer either extends its own
        # list from the result or reads it (aggregate sinks), so the
        # batch can be passed through unchanged.
        return lambda tups: tups
    if isinstance(pred, Eq):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups if t.data.get(c) == v]
    if isinstance(pred, Ne):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups if t.data.get(c) != v]
    if isinstance(pred, Lt):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x < v]
    if isinstance(pred, Le):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x <= v]
    if isinstance(pred, Gt):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x > v]
    if isinstance(pred, Ge):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x >= v]
    if isinstance(pred, Between):
        c, lo, hi = pred.column, pred.lo, pred.hi
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None
                             and lo <= x <= hi]
    if isinstance(pred, And):
        # One specialized sub-filter per conjunct, applied in order
        # (same short-circuit semantics as all(...)).
        subs = [compile_batch_filter(p) for p in pred.predicates]

        def conjunction(tups: Sequence[HeapTuple]) -> List[HeapTuple]:
            out = list(tups)
            for sub in subs:
                if not out:
                    break
                out = sub(out)
            return out

        return conjunction
    matches = pred.matches
    return lambda tups: [t for t in tups if matches(t.data)]


class BatchAggregator:
    """Folds COUNT/SUM/MIN/MAX/AVG over matched tuple batches, one page
    at a time (the vectorized aggregate pushdown: the scan never
    materializes a row list, it feeds each page's matches straight into
    these accumulators via the scan's ``sink`` hook).

    ``finalize`` replicates the SQL layer's per-row aggregation exactly:
    COUNT(*) counts rows, every other form skips NULL inputs, an empty
    input yields NULL (0 for COUNT), AVG uses true division. Equality
    holds bit-for-bit even for floats because the fold order is the
    scan order in both paths and partial sums chain through
    ``sum(values, acc)`` -- the same left-to-right ``(acc + v1) + v2``
    grouping a single ``sum()`` over the whole column would use. MIN and
    MAX keep the first-seen extremum (strict comparisons), matching
    ``min()``/``max()`` first-occurrence semantics across page splits.
    """

    __slots__ = ("specs", "_rows", "_states")

    def __init__(self, specs: Sequence[tuple]) -> None:
        #: (func, column) pairs; column None only for COUNT(*).
        self.specs = list(specs)
        self._rows = 0
        # Per spec: [non-null count, running sum, min, max].
        self._states: List[list] = [[0, 0, None, None] for _ in self.specs]

    def update(self, tups: Sequence[HeapTuple]) -> None:
        """Fold one batch of matched tuples (scan order)."""
        self._rows += len(tups)
        for (func, column), st in zip(self.specs, self._states):
            if column is None:  # COUNT(*) needs only the row count
                continue
            values = [v for t in tups
                      if (v := t.data.get(column)) is not None]
            if not values:
                continue
            st[0] += len(values)
            # Fold only what the func needs: MIN/MAX work over any
            # ordered type (strings too), where a sum would raise.
            if func in ("SUM", "AVG"):
                st[1] = sum(values, st[1])
            elif func == "MIN":
                lo = min(values)
                if st[2] is None or lo < st[2]:
                    st[2] = lo
            elif func == "MAX":
                hi = max(values)
                if st[3] is None or hi > st[3]:
                    st[3] = hi

    def finalize(self) -> List[Any]:
        """One value per spec, in spec order."""
        out: List[Any] = []
        for (func, column), st in zip(self.specs, self._states):
            if func == "COUNT":
                out.append(self._rows if column is None else st[0])
            elif st[0] == 0:
                out.append(None)
            elif func == "SUM":
                out.append(st[1])
            elif func == "MIN":
                out.append(st[2])
            elif func == "MAX":
                out.append(st[3])
            elif func == "AVG":
                out.append(st[1] / st[0])
            else:
                raise ValueError(f"unknown aggregate {func}")
        return out
