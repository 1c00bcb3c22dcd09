"""Cost-based scan planning.

Scan choice is SSI-relevant (paper section 5.2): an index scan
SIREAD-locks only the B+-tree pages it visits, a sequential scan takes
a whole-relation lock, so a poor plan inflates the predicate-lock
footprint and with it the false-positive abort rate. This module
replaces the executor's first-sargable-conjunct rule with a planner
that

* prices a sequential scan against every candidate index scan using
  **page-touch** and **tuple-visibility** cost units (the same events
  the buffer manager and ``engine.tuples_read`` count), fed by the
  ANALYZE statistics in :mod:`repro.storage.stats`;
* picks the cheapest access path -- in particular the *most selective*
  sargable conjunct of an AND, not the first;
* memoizes the choice in a bounded LRU **plan cache** keyed by
  (relation oid, stats epoch, predicate shape), so the statement hot
  path plans once per shape; ANALYZE/DDL bump the epoch, which
  invalidates every entry by key mismatch;
* falls back to the rule-based choice (the predicate's own
  first-sargable-conjunct range) when the relation has no statistics.

Determinism: candidate paths are enumerated in conjunct order (fixed
by predicate construction) and ties are broken by
``(cost, column, index name)`` -- never by dict iteration order or
object identity -- so the same schema + stats + predicate always
yields the same plan.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.predicate import (IndexRange, Predicate, candidate_ranges,
                                    plan_shape)
from repro.storage.relation import Relation

#: Cost units. One page touch is the unit (a BufferManager.touch);
#: visiting a tuple (fetch + visibility classification) costs
#: TUPLE_VISIT of it. The ratio mirrors CostModel.tuple_read's
#: relation to its implicit per-page charge and PostgreSQL's
#: cpu_tuple_cost/seq_page_cost = 0.01/1.0 scaled to our tiny
#: (32-tuple) pages.
PAGE_TOUCH = 1.0
TUPLE_VISIT = 0.2

#: Plan-cache capacity (entries). Small: entries are per predicate
#: *shape*, not per statement, and a workload has few shapes.
PLAN_CACHE_SIZE = 256


def _log2(n: float) -> float:
    return math.log2(max(2.0, n))

#: Join cost units (same page-touch scale). Building a hash bucket
#: costs slightly more than probing; a merge join pays a sort per
#: unordered input; the nested loop pays per row *pair*.
HASH_BUILD = 1.2
HASH_PROBE = 1.0
MERGE_ROW = 1.0
SORT_FACTOR = 0.05
NESTLOOP_PAIR = 0.1
JOIN_OUTPUT = 0.5


@dataclass
class JoinChoice:
    """The planner's verdict for one binary join."""

    #: "hash" | "merge" | "nestloop".
    algorithm: str
    #: Hash build side: "left" | "right" ("" for other algorithms).
    build: str = ""
    est_left: Optional[float] = None
    est_right: Optional[float] = None
    est_rows: Optional[float] = None
    cost: Optional[float] = None
    #: "cost" when statistics priced the choice, "rule" otherwise.
    source: str = "rule"

    @property
    def node_name(self) -> str:
        return {"hash": "Hash Join", "merge": "Merge Join",
                "nestloop": "Nested Loop"}[self.algorithm]


@dataclass
class ScanChoice:
    """The planner's verdict for one (relation, predicate) pair."""

    #: Chosen index name, or None for a sequential scan.
    index_name: Optional[str]
    #: Column driving the index scan (None for seq scan).
    column: Optional[str]
    #: The concrete restriction to scan with (None for seq scan).
    rng: Optional[IndexRange]
    #: Estimated rows the scan returns / pages it touches (None when
    #: the rule-based path chose without statistics).
    est_rows: Optional[float] = None
    est_pages: Optional[float] = None
    cost: Optional[float] = None
    #: How the choice was made: "cost" | "rule" | "cached".
    source: str = "rule"

    @property
    def is_seq_scan(self) -> bool:
        return self.index_name is None


class Planner:
    """Scan planner + engine-level plan cache, bound to a Database."""

    def __init__(self, db) -> None:
        self.db = db
        self._cache: "OrderedDict[Tuple, Optional[int]]" = OrderedDict()
        metrics = db.obs.metrics
        self.cache_hits = metrics.counter("perf.plan_cache_hits")
        self.cache_misses = metrics.counter("perf.plan_cache_misses")
        self.cost_plans = metrics.counter("planner.cost_based")
        self.rule_plans = metrics.counter("planner.rule_based")
        self.seq_chosen = metrics.counter("planner.seq_scans")
        self.index_chosen = metrics.counter("planner.index_scans")

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def plan_scan(self, rel: Relation, pred: Predicate):
        """The executor's question: ``(index, rng)`` or ``(None, None)``.

        Consults the plan cache first; on a miss, plans (cost-based
        when statistics exist, rule-based otherwise) and caches the
        choice.
        """
        shape = plan_shape(pred)
        key = None
        if shape is not None:
            key = (rel.oid, self.db.statscat.epoch, shape)
            cached = self._cache.get(key)
            if cached is not None or key in self._cache:
                self._cache.move_to_end(key)
                self.cache_hits.inc()
                return self._materialize(rel, pred, cached)
            self.cache_misses.inc()
        choice = self.choose(rel, pred)
        if key is not None:
            self._cache[key] = (None if choice.is_seq_scan else
                                candidate_ranges(pred).index(choice.rng))
            if len(self._cache) > PLAN_CACHE_SIZE:
                self._cache.popitem(last=False)
        if choice.is_seq_scan:
            self.seq_chosen.inc()
            return None, None
        self.index_chosen.inc()
        return rel.indexes[choice.index_name], choice.rng

    def _materialize(self, rel: Relation, pred: Predicate,
                     position: Optional[int]):
        """Rebuild a concrete (index, range) from a cached choice.

        The cache stores only the chosen restriction's position among
        the predicate's candidate ranges (equality values are excluded
        from the shape key because their selectivity estimate is
        value-independent); predicates of one shape list their
        candidates in the same order, so the actual bounds come from
        the live predicate at that position.
        """
        if position is None:
            self.seq_chosen.inc()
            return None, None
        rng = candidate_ranges(pred)[position]
        index = rel.index_on(rng.column)
        if index is None:  # pragma: no cover - epoch bump prevents this
            self.seq_chosen.inc()
            return None, None
        self.index_chosen.inc()
        return index, rng

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def choose(self, rel: Relation, pred: Predicate) -> ScanChoice:
        """Plan without consulting the cache (EXPLAIN uses this too)."""
        stats = self.db.statscat.get(rel.oid)
        if stats is None:
            self.rule_plans.inc()
            return self._rule_choice(rel, pred)
        self.cost_plans.inc()
        return self._cost_choice(rel, pred, stats)

    def _rule_choice(self, rel: Relation, pred: Predicate) -> ScanChoice:
        """No statistics: the predicate's own ``index_range()`` (for
        AND: equality-preferring first sargable conjunct)."""
        rng = pred.index_range()
        if rng is not None:
            index = rel.index_on(rng.column)
            if index is not None and self._usable(index, rng):
                return ScanChoice(index.name, rng.column, rng, source="rule")
        return ScanChoice(None, None, None, source="rule")

    def _cost_choice(self, rel: Relation, pred: Predicate,
                     stats) -> ScanChoice:
        live_rows = stats.live_rows
        pages = max(1, rel.heap.page_count)
        seq_cost = pages * PAGE_TOUCH + live_rows * TUPLE_VISIT
        best = ScanChoice(None, None, None, est_rows=float(live_rows),
                          est_pages=float(pages), cost=seq_cost,
                          source="cost")
        candidates: List[ScanChoice] = []
        for rng in candidate_ranges(pred):
            index = rel.index_on(rng.column)
            if index is None or not self._usable(index, rng):
                continue
            est_rows, est_pages, cost = self._index_cost(
                rel, index, rng, stats, live_rows)
            candidates.append(ScanChoice(index.name, rng.column, rng,
                                         est_rows=est_rows,
                                         est_pages=est_pages, cost=cost,
                                         source="cost"))
        # Deterministic winner: cheapest, ties broken by column then
        # index name (both total orders independent of dict order).
        if candidates:
            cheapest = min(candidates,
                           key=lambda c: (c.cost, c.column, c.index_name))
            if cheapest.cost < best.cost:
                best = cheapest
        return best

    def _index_cost(self, rel: Relation, index, rng: IndexRange, stats,
                    live_rows: int) -> Tuple[float, float, float]:
        """Estimated (rows, pages, cost) for one index path."""
        col = stats.column(rng.column)
        if col is not None:
            if rng.is_equality:
                sel = col.eq_selectivity()
            else:
                sel = col.range_selectivity(rng.lo, rng.hi,
                                            lo_incl=rng.lo_incl,
                                            hi_incl=rng.hi_incl)
        else:
            # Column indexed after ANALYZE: no distribution known.
            from repro.storage.stats import DEFAULT_INEQ_SEL
            sel = DEFAULT_INEQ_SEL
        est_rows = live_rows * sel
        # Index pages: the descent plus the leaves holding the matches.
        leaf_cap = max(1, self.db.config.btree_page_size)
        index_pages = 1.0 + est_rows / leaf_cap
        # Heap pages: each match may land on a distinct page, capped by
        # the relation's size.
        heap_pages = min(float(max(1, rel.heap.page_count)), est_rows) \
            if est_rows >= 1.0 else 1.0
        cost = ((index_pages + heap_pages) * PAGE_TOUCH
                + est_rows * TUPLE_VISIT)
        return est_rows, index_pages + heap_pages, cost

    # ------------------------------------------------------------------
    # join planning
    # ------------------------------------------------------------------
    def estimated_rows(self, rel: Relation,
                       choice: Optional[ScanChoice] = None) -> float:
        """Input cardinality for join costing: the scan's own estimate
        when the cost planner produced one, else ANALYZE live rows,
        else a page-count upper bound (all deterministic)."""
        if choice is not None and choice.est_rows is not None:
            return max(1.0, choice.est_rows)
        stats = self.db.statscat.get(rel.oid)
        if stats is not None:
            return max(1.0, float(stats.live_rows))
        return max(1.0, float(rel.heap.page_count
                              * self.db.config.heap_page_size))

    def join_selectivity(self, left_rel: Relation, right_rel: Relation,
                         left_col: str, right_col: str,
                         est_left: float, est_right: float) -> float:
        """Equi-join selectivity from ANALYZE n_distinct: each left row
        matches ~|R|/ndv right rows, so sel = 1/max(ndv_l, ndv_r)
        (PostgreSQL's eqjoinsel shape). Without statistics, assume the
        key is unique on the larger side."""
        ndvs: List[float] = []
        for rel, col in ((left_rel, left_col), (right_rel, right_col)):
            stats = self.db.statscat.get(rel.oid)
            cstats = stats.column(col) if stats is not None else None
            if cstats is not None and cstats.n_distinct:
                ndvs.append(float(cstats.n_distinct))
        denom = max(ndvs) if ndvs else max(est_left, est_right)
        return 1.0 / max(1.0, denom)

    def plan_join(self, left_rel: Relation, right_rel: Relation,
                  left_col: Optional[str], right_col: Optional[str],
                  left_choice: Optional[ScanChoice] = None,
                  right_choice: Optional[ScanChoice] = None) -> JoinChoice:
        """Pick the algorithm and build side for one binary join.

        With no equality key pair, the only algorithm is the per-row
        nested loop. Otherwise hash and merge
        are priced: the hash join builds on the smaller estimated side
        (ties break to "right", which preserves natural probe order);
        the merge join's per-side sort is discounted when an ordered
        index exists on that side's join column. Every choice changes
        cost only -- all algorithms emit identical left-major rows.
        """
        el = self.estimated_rows(left_rel, left_choice)
        er = self.estimated_rows(right_rel, right_choice)
        if left_col is None or right_col is None:
            cost = el * er * NESTLOOP_PAIR
            return JoinChoice("nestloop", est_left=el, est_right=er,
                              est_rows=el * er if left_col is None
                              else None, cost=cost, source="rule")
        sel = self.join_selectivity(left_rel, right_rel, left_col,
                                    right_col, el, er)
        est_rows = el * er * sel
        stats_known = (self.db.statscat.get(left_rel.oid) is not None
                       or self.db.statscat.get(right_rel.oid) is not None)
        build = "right" if er <= el else "left"
        probe_rows = el if build == "right" else er
        build_rows = er if build == "right" else el
        hash_cost = (build_rows * HASH_BUILD + probe_rows * HASH_PROBE
                     + est_rows * JOIN_OUTPUT)
        merge_cost = (el + er) * MERGE_ROW + est_rows * JOIN_OUTPUT
        for rel, col, n in ((left_rel, left_col, el),
                            (right_rel, right_col, er)):
            index = rel.index_on(col)
            if index is None or not index.ordered:
                merge_cost += n * _log2(n) * SORT_FACTOR
        if merge_cost < hash_cost:
            return JoinChoice("merge", est_left=el, est_right=er,
                              est_rows=est_rows, cost=merge_cost,
                              source="cost" if stats_known else "rule")
        return JoinChoice("hash", build=build, est_left=el, est_right=er,
                          est_rows=est_rows, cost=hash_cost,
                          source="cost" if stats_known else "rule")

    @staticmethod
    def _usable(index, rng: IndexRange) -> bool:
        """Can ``index`` serve ``rng``? Ordered indexes serve ranges,
        hash-style ones only equality, spatial ones overlap."""
        if rng.overlap:
            return bool(getattr(index, "spatial", False))
        return index.ordered or rng.is_equality

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, Any]:
        return {"entries": len(self._cache), "capacity": PLAN_CACHE_SIZE,
                "epoch": self.db.statscat.epoch}

    def lock_granularity(self, choice: ScanChoice, rel: Relation) -> str:
        """The predicate-lock granularity the chosen scan will take
        (the EXPLAIN column; see DESIGN.md, "Query planning")."""
        if choice.is_seq_scan:
            return "relation"
        index = rel.indexes[choice.index_name]
        if not index.supports_predicate_locks:
            return "relation"  # whole-index lock (section 7.4)
        if (self.db.config.ssi.index_locking == "nextkey"
                and index.supports_key_locking):
            return "key-range"
        return "page"


# ----------------------------------------------------------------------
# EXPLAIN plan trees
# ----------------------------------------------------------------------
@dataclass
class PlanNode:
    """One node of a deterministic EXPLAIN tree."""

    node: str                     #: "Seq Scan" | "Index Scan"
    relation: str
    index: Optional[str] = None
    column: Optional[str] = None
    lock_granularity: str = "relation"
    est_rows: Optional[float] = None
    est_pages: Optional[float] = None
    cost: Optional[float] = None
    source: str = "rule"
    filter: Optional[str] = None
    #: Node-specific annotation (join condition, build side, group
    #: keys); rendered in the head parenthetical.
    detail: Optional[str] = None
    #: EXPLAIN ANALYZE actuals (None for plain EXPLAIN).
    actual_rows: Optional[int] = None
    actual_pages: Optional[int] = None
    children: List["PlanNode"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "node": self.node, "relation": self.relation,
            "lock_granularity": self.lock_granularity, "source": self.source,
        }
        if self.index is not None:
            out["index"] = self.index
            out["column"] = self.column
        if self.est_rows is not None:
            out["est_rows"] = round(self.est_rows, 2)
            out["est_pages"] = round(self.est_pages, 2)
            out["cost"] = round(self.cost, 2)
        if self.filter:
            out["filter"] = self.filter
        if self.detail:
            out["detail"] = self.detail
        if self.actual_rows is not None:
            out["actual_rows"] = self.actual_rows
            out["actual_pages"] = self.actual_pages
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, indent: int = 0) -> List[str]:
        pad = "  " * indent
        if self.node == "Index Scan":
            head = (f"{pad}Index Scan using {self.index} on "
                    f"{self.relation} (column={self.column})")
        elif self.node == "Seq Scan":
            head = f"{pad}Seq Scan on {self.relation}"
        else:
            head = f"{pad}{self.node} on {self.relation}"
        if self.node in ("Seq Scan", "Index Scan"):
            parts = [f"lock={self.lock_granularity}", f"plan={self.source}"]
            if self.est_rows is not None:
                parts.insert(0, f"cost={self.cost:.2f} "
                                f"rows={self.est_rows:.2f} "
                                f"pages={self.est_pages:.2f}")
            head += "  (" + " ".join(parts) + ")"
        elif self.detail is not None or self.est_rows is not None:
            parts = []
            if self.detail is not None:
                parts.append(self.detail)
            if self.est_rows is not None:
                parts.append(f"cost={self.cost:.2f} rows={self.est_rows:.2f}")
            head += "  (" + " ".join(parts) + ")"
        lines = [head]
        if self.filter:
            lines.append(f"{pad}  Filter: {self.filter}")
        if self.actual_rows is not None:
            lines.append(f"{pad}  Actual: rows={self.actual_rows} "
                         f"pages={self.actual_pages}")
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines

    def __str__(self) -> str:
        return "\n".join(self.render())


def explain_scan(db, rel: Relation, pred: Predicate) -> PlanNode:
    """Build the EXPLAIN node for scanning ``rel`` with ``pred``.

    Always plans fresh (never reports a cached entry) so the output is
    a pure function of schema + statistics + predicate.
    """
    choice = db.planner.choose(rel, pred)
    if choice.is_seq_scan:
        node = PlanNode("Seq Scan", rel.name,
                        lock_granularity=db.planner.lock_granularity(
                            choice, rel),
                        est_rows=choice.est_rows, est_pages=choice.est_pages,
                        cost=choice.cost, source=choice.source,
                        filter=repr(pred))
    else:
        node = PlanNode("Index Scan", rel.name, index=choice.index_name,
                        column=choice.column,
                        lock_granularity=db.planner.lock_granularity(
                            choice, rel),
                        est_rows=choice.est_rows, est_pages=choice.est_pages,
                        cost=choice.cost, source=choice.source,
                        filter=repr(pred))
    return node
