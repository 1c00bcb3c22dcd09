"""Batch relational operators: joins, grouping, sort, limit.

These run over materialized row lists (the scan output) inside one
statement, so they inherit the scan's SSI guarantees: every base-table
row examined was read under the scan's SIREAD locks, and phantom
protection for the *join inputs* falls out of the per-scan predicate
locks -- a join adds no new read footprint beyond its scans.

Determinism contract (lint rule DET001 treats this module as a pure
choice module): output order never depends on dict iteration order or
object identity.

* Every join algorithm emits rows in **left-major order** -- left
  input order, then right input order -- regardless of algorithm or
  build side, so the planner's choice changes cost, never results.
  Hash buckets preserve insertion order by construction; probe-right
  plans and merge joins restore left-major order by sorting (left
  index, right index) pairs.
* Equi-join keys follow SQL semantics: a NULL key matches nothing
  (Python's ``None == None`` would say otherwise, so key extraction
  filters None explicitly in every algorithm).
* Grouping emits groups in first-appearance order of the group key.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Row = Dict[str, Any]
#: Key extractor: row -> join/group key (None = SQL NULL, never joins).
KeyFn = Callable[[Row], Any]
#: Residual filter over a combined row.
CondFn = Callable[[Row], bool]
#: Combine a left and right row into the joined output row.
CombineFn = Callable[[Row, Row], Row]


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def nested_loop_join(left: Sequence[Row], right: Sequence[Row],
                     lkey: Optional[KeyFn], rkey: Optional[KeyFn],
                     cond: CondFn, combine: CombineFn) -> List[Row]:
    """The per-row baseline (and the only algorithm usable without an
    equality key): every (left, right) pair is combined and filtered.
    O(|L| * |R|); joins without an equality key use it, and the tests
    use its keyed form as the reference for hash and merge joins."""
    out: List[Row] = []
    for l_row in left:
        lk = lkey(l_row) if lkey is not None else None
        if lkey is not None and lk is None:
            continue
        for r_row in right:
            if lkey is not None:
                rk = rkey(r_row)
                if rk is None or rk != lk:
                    continue
            row = combine(l_row, r_row)
            if cond(row):
                out.append(row)
    return out


def hash_join(left: Sequence[Row], right: Sequence[Row],
              lkey: KeyFn, rkey: KeyFn, cond: CondFn,
              combine: CombineFn, build: str = "right") -> List[Row]:
    """Equi-join through a hash table on the build side.

    ``build="right"`` probes the left input in order and each bucket
    holds right rows in input order, so the output is left-major with
    no extra work. ``build="left"`` (the planner's pick when the left
    side is bigger) probes with the right input and then restores
    left-major order by sorting (left index, right index) pairs.
    """
    out: List[Row] = []
    if build == "right":
        table: Dict[Any, List[Row]] = {}
        for r_row in right:
            k = rkey(r_row)
            if k is None:
                continue
            bucket = table.get(k)
            if bucket is None:
                table[k] = bucket = []
            bucket.append(r_row)
        for l_row in left:
            k = lkey(l_row)
            if k is None:
                continue
            bucket = table.get(k)
            if bucket:
                for r_row in bucket:
                    row = combine(l_row, r_row)
                    if cond(row):
                        out.append(row)
        return out
    btable: Dict[Any, List[Tuple[int, Row]]] = {}
    for li, l_row in enumerate(left):
        k = lkey(l_row)
        if k is None:
            continue
        lbucket = btable.get(k)
        if lbucket is None:
            btable[k] = lbucket = []
        lbucket.append((li, l_row))
    pairs: List[Tuple[int, int, Row, Row]] = []
    for ri, r_row in enumerate(right):
        k = rkey(r_row)
        if k is None:
            continue
        lbucket = btable.get(k)
        if lbucket:
            for li, l_row in lbucket:
                pairs.append((li, ri, l_row, r_row))
    pairs.sort(key=lambda p: (p[0], p[1]))
    for _li, _ri, l_row, r_row in pairs:
        row = combine(l_row, r_row)
        if cond(row):
            out.append(row)
    return out


def merge_join(left: Sequence[Row], right: Sequence[Row],
               lkey: KeyFn, rkey: KeyFn, cond: CondFn,
               combine: CombineFn) -> List[Row]:
    """Sort-merge equi-join.

    Both inputs are sorted by (key, input index) -- the index tiebreak
    keeps the sort total without comparing rows -- then merged with the
    standard equal-run cross product. Output is restored to left-major
    order (the shared contract) by sorting the matched index pairs.
    """
    ls = sorted(((lkey(l_row), li) for li, l_row in enumerate(left)
                 if lkey(l_row) is not None))
    rs = sorted(((rkey(r_row), ri) for ri, r_row in enumerate(right)
                 if rkey(r_row) is not None))
    pairs: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(ls) and j < len(rs):
        lk, rk = ls[i][0], rs[j][0]
        if lk < rk:
            i += 1
        elif rk < lk:
            j += 1
        else:
            # Equal-key runs on both sides: cross product.
            i2 = i
            while i2 < len(ls) and ls[i2][0] == lk:
                i2 += 1
            j2 = j
            while j2 < len(rs) and rs[j2][0] == rk:
                j2 += 1
            for a in range(i, i2):
                for b in range(j, j2):
                    pairs.append((ls[a][1], rs[b][1]))
            i, j = i2, j2
    pairs.sort()
    out: List[Row] = []
    for li, ri in pairs:
        row = combine(left[li], right[ri])
        if cond(row):
            out.append(row)
    return out


# ----------------------------------------------------------------------
# grouping and aggregates
# ----------------------------------------------------------------------
def hash_group(rows: Sequence[Row], group_cols: Sequence[str]
               ) -> List[Tuple[Tuple, List[Row]]]:
    """Partition rows by their group key, emitting groups in
    first-appearance order (a deterministic order independent of hash
    or dict iteration). With no group columns there is exactly one
    group -- even over zero rows, matching SQL's global-aggregate
    behaviour (``SELECT COUNT(*) ... `` returns one row)."""
    groups: Dict[Tuple, List[Row]] = {}
    order: List[Tuple] = []
    for row in rows:
        key = tuple(row.get(c) for c in group_cols)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = bucket = []
            order.append(key)
        bucket.append(row)
    if not group_cols and not order:
        return [((), [])]
    return [(key, groups[key]) for key in order]


def aggregate_value(func: str, column: Optional[str],
                    rows: Sequence[Row]) -> Any:
    """One aggregate over one group, with SQL NULL semantics:
    COUNT(*) counts rows, every other form skips NULL inputs, and an
    empty input yields NULL (0 for COUNT). Matches the seed
    SQLSession._aggregate_row exactly."""
    if func == "COUNT":
        if column is None:
            return len(rows)
        return sum(1 for r in rows if r.get(column) is not None)
    values = [v for r in rows if (v := r.get(column)) is not None]
    if not values:
        return None
    if func == "SUM":
        return sum(values)
    if func == "MIN":
        return min(values)
    if func == "MAX":
        return max(values)
    if func == "AVG":
        return sum(values) / len(values)
    raise ValueError(f"unknown aggregate {func}")


# ----------------------------------------------------------------------
# sort / limit
# ----------------------------------------------------------------------
def sort_rows(rows: List[Row], column: str,
              descending: bool = False) -> List[Row]:
    """ORDER BY one column (stable, in place; same call shape the
    pre-batch SQL layer used)."""
    rows.sort(key=lambda r: r.get(column), reverse=descending)
    return rows


def limit_rows(rows: List[Row], limit: Optional[int]) -> List[Row]:
    return rows if limit is None else rows[:limit]
