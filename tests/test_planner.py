"""Tests for the cost-based query planner: ANALYZE statistics and
histogram selectivity, the engine plan cache and its epoch-based
invalidation on ANALYZE/DDL, the SQL parse + prepared-statement caches,
and EXPLAIN output stability."""

import pytest

from repro.config import EngineConfig, SSIConfig
from repro.engine import Database
from repro.engine.planner import PlanNode, explain_scan
from repro.engine.predicate import (AlwaysTrue, And, Between, Eq, Gt, Lt,
                                    Or, plan_shape)
from repro.errors import UserError
from repro.sql import SQLSession, SQLSyntaxError
from repro.storage.stats import (DEFAULT_EQ_SEL, DEFAULT_INEQ_SEL,
                                 ColumnStats, RelationStats, StatsCatalog)


def make_db() -> Database:
    return Database(EngineConfig())


def load(db: Database, rows: int = 200) -> None:
    """t(k primary, grp indexed 2-distinct, v unindexed)."""
    db.create_table("t", ["k", "grp", "v"], key="k")
    db.create_index("t", "grp")
    session = db.session()
    session.begin()
    for i in range(rows):
        session.insert("t", {"k": i, "grp": i % 2, "v": i * 10})
    session.commit()


# ---------------------------------------------------------------------------
# histogram selectivity
# ---------------------------------------------------------------------------
class TestColumnStats:
    def test_from_values_basics(self):
        stats = ColumnStats.from_values(list(range(100)))
        assert stats.n_distinct == 100
        assert stats.min_value == 0 and stats.max_value == 99
        assert stats.histogram[0] == 0 and stats.histogram[-1] == 99
        assert stats.sample_rows == 100

    def test_eq_selectivity_is_value_independent(self):
        stats = ColumnStats.from_values([i % 4 for i in range(100)])
        assert stats.eq_selectivity() == pytest.approx(0.25)

    def test_eq_selectivity_default_without_values(self):
        assert ColumnStats.from_values([]).eq_selectivity() == DEFAULT_EQ_SEL
        assert ColumnStats.from_values([None]).eq_selectivity() \
            == DEFAULT_EQ_SEL

    def test_range_selectivity_uniform(self):
        stats = ColumnStats.from_values(list(range(100)))
        half = stats.range_selectivity(None, 49)
        assert 0.4 < half < 0.6
        tenth = stats.range_selectivity(None, 9)
        assert tenth < half / 2

    def test_range_selectivity_clamps(self):
        stats = ColumnStats.from_values(list(range(100)))
        assert stats.range_selectivity(None, None) == 1.0
        assert stats.range_selectivity(1000, None) == 0.0
        assert stats.range_selectivity(None, -5) == 0.0
        assert stats.range_selectivity(-5, 1000) == 1.0

    def test_range_selectivity_interpolates_between_bounds(self):
        stats = ColumnStats.from_values(list(range(0, 1000, 10)))
        quarter = stats.range_selectivity(None, 249)
        assert 0.15 < quarter < 0.35

    def test_incomparable_types_never_raise(self):
        stats = ColumnStats.from_values([1, "a", (2, 3), None])
        assert stats.n_distinct == 3
        # A bound incomparable to the histogram falls back to defaults.
        assert stats.range_selectivity(object(), None) == DEFAULT_INEQ_SEL

    def test_string_histogram_charges_half_bucket(self):
        stats = ColumnStats.from_values(["a", "b", "c", "d"])
        sel = stats.range_selectivity(None, "b")
        assert 0.0 < sel < 1.0


class TestStatsCatalog:
    def test_note_write_tracks_live_rows(self):
        cat = StatsCatalog()
        cat.install(RelationStats(oid=7, name="t", analyzed_rows=10))
        cat.note_write(7, "insert")
        cat.note_write(7, "insert")
        cat.note_write(7, "delete")
        cat.note_write(7, "update")  # net zero
        assert cat.get(7).live_rows == 11

    def test_note_write_unknown_oid_is_noop(self):
        cat = StatsCatalog()
        cat.note_write(99, "insert")  # must not raise
        assert cat.get(99) is None

    def test_live_rows_never_negative(self):
        cat = StatsCatalog()
        cat.install(RelationStats(oid=7, name="t", analyzed_rows=1))
        for _ in range(5):
            cat.note_write(7, "delete")
        assert cat.get(7).live_rows == 0

    def test_install_and_forget_bump_epoch(self):
        cat = StatsCatalog()
        e0 = cat.epoch
        cat.install(RelationStats(oid=7, name="t"))
        assert cat.epoch == e0 + 1
        cat.forget(7)
        assert cat.epoch == e0 + 2 and cat.get(7) is None


class TestAnalyze:
    def test_analyze_builds_stats_for_indexed_columns_only(self):
        db = make_db()
        load(db, rows=50)
        (stats,) = db.analyze("t")
        assert stats.analyzed_rows == 50
        assert set(stats.columns) == {"k", "grp"}  # v is unindexed
        assert stats.columns["grp"].n_distinct == 2
        assert stats.columns["k"].n_distinct == 50

    def test_analyze_sees_only_committed_rows(self):
        db = make_db()
        load(db, rows=20)
        open_txn = db.session()
        open_txn.begin()
        open_txn.insert("t", {"k": 999, "grp": 0, "v": 0})
        (stats,) = db.analyze("t")
        assert stats.analyzed_rows == 20
        open_txn.rollback()

    def test_analyze_all_covers_every_table(self):
        db = make_db()
        load(db)
        db.create_table("u", ["a"], key="a")
        names = {s.name for s in db.analyze()}
        assert names == {"t", "u"}


# ---------------------------------------------------------------------------
# cost-based choice
# ---------------------------------------------------------------------------
class TestCostPlanner:
    def test_rule_based_without_stats(self):
        db = make_db()
        load(db)
        choice = db.planner.choose(db.relation("t"), Eq("grp", 1))
        assert choice.source == "rule" and choice.index_name is not None

    def test_cost_picks_most_selective_conjunct(self):
        """The low-cardinality conjunct comes FIRST in the AND; the
        seed rule would scan half the table through t_grp. With stats
        the planner must pick the unique key instead."""
        db = make_db()
        load(db)
        db.analyze()
        pred = And(Eq("grp", 1), Eq("k", 7))
        choice = db.planner.choose(db.relation("t"), pred)
        assert choice.source == "cost"
        assert choice.column == "k"
        assert choice.index_name == "t_pkey"
        assert choice.est_rows == pytest.approx(1.0)

    def test_cost_falls_back_to_seq_scan_when_unselective(self):
        db = make_db()
        load(db)
        db.analyze()
        choice = db.planner.choose(db.relation("t"), Between("grp", 0, 1))
        assert choice.source == "cost" and choice.is_seq_scan

    def test_plan_is_deterministic(self):
        def plan_once():
            db = make_db()
            load(db)
            db.analyze()
            c = db.planner.choose(db.relation("t"),
                                  And(Gt("k", 10), Eq("grp", 0)))
            return (c.index_name, c.column, c.cost, c.source)
        assert plan_once() == plan_once()


class TestIndexRangePreference:
    """Satellite fix: And.index_range must prefer an equality conjunct
    over an earlier open range (even with the cost planner off)."""

    def test_equality_beats_earlier_range(self):
        rng = And(Gt("v", 5), Eq("k", 3)).index_range()
        assert rng.column == "k" and rng.is_equality

    def test_first_range_when_no_equality(self):
        rng = And(Gt("v", 5), Lt("k", 9)).index_range()
        assert rng.column == "v"

    def test_plan_shape_excludes_eq_values(self):
        assert plan_shape(Eq("k", 1)) == plan_shape(Eq("k", 2))
        assert plan_shape(Eq("k", 1)) != plan_shape(Eq("grp", 1))

    def test_plan_shape_includes_range_bounds(self):
        assert plan_shape(Gt("k", 1)) != plan_shape(Gt("k", 2))

    def test_plan_shape_uncacheable_forms(self):
        assert plan_shape(Or(Eq("k", 1), Eq("k", 2))) is None
        assert plan_shape(Lt("k", [1, 2])) is None  # unhashable bound
        assert plan_shape(And(Eq("k", 1),
                              Or(Eq("v", 1), Eq("v", 2)))) is None

    def test_plan_shape_always_true(self):
        assert plan_shape(AlwaysTrue()) == ("true",)


# ---------------------------------------------------------------------------
# plan cache + invalidation
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_same_shape_different_value_hits(self):
        db = make_db()
        load(db)
        hits = db.obs.metrics.counter("perf.plan_cache_hits")
        rel = db.relation("t")
        db.planner.plan_scan(rel, Eq("k", 1))
        before = hits.value
        index, rng = db.planner.plan_scan(rel, Eq("k", 2))
        assert hits.value == before + 1
        assert rng.lo == 2  # cached plan, live predicate's bounds

    def test_analyze_invalidates_cached_plans(self):
        db = make_db()
        load(db)
        misses = db.obs.metrics.counter("perf.plan_cache_misses")
        rel = db.relation("t")
        db.planner.plan_scan(rel, Eq("k", 1))
        db.analyze()
        before = misses.value
        db.planner.plan_scan(rel, Eq("k", 1))
        assert misses.value == before + 1

    def test_ddl_invalidates_cached_plans(self):
        db = make_db()
        load(db)
        misses = db.obs.metrics.counter("perf.plan_cache_misses")
        rel = db.relation("t")
        db.planner.plan_scan(rel, Eq("v", 1))
        db.create_index("t", "v")
        before = misses.value
        index, rng = db.planner.plan_scan(rel, Eq("v", 1))
        assert misses.value == before + 1
        assert index is not None  # the new access path is picked up

    def test_cached_plan_keeps_the_chosen_conjunct(self):
        """Two conjuncts on one column: the rule choice is the later
        equality, and a cache hit must serve that restriction, not the
        first range on the same column."""
        db = make_db()
        load(db)
        hits = db.obs.metrics.counter("perf.plan_cache_hits")
        rel = db.relation("t")
        db.planner.plan_scan(rel, And(Gt("k", 1), Eq("k", 5)))
        before = hits.value
        index, rng = db.planner.plan_scan(rel, And(Gt("k", 1), Eq("k", 9)))
        assert hits.value == before + 1
        assert index.name == "t_pkey"
        assert rng.is_equality and rng.lo == 9

    def test_cached_and_fresh_plans_agree(self):
        db = make_db()
        load(db)
        db.analyze()
        rel = db.relation("t")
        pred = And(Eq("grp", 0), Eq("k", 3))
        first = db.planner.plan_scan(rel, pred)
        second = db.planner.plan_scan(rel, pred)  # served from cache
        assert first[0] is second[0]
        assert first[1] == second[1]


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------
class TestExplain:
    def test_output_is_stable(self):
        db = make_db()
        load(db)
        db.analyze()
        rel = db.relation("t")
        pred = And(Eq("grp", 1), Eq("k", 7))
        assert str(explain_scan(db, rel, pred)) \
            == str(explain_scan(db, rel, pred))

    def test_source_flips_from_rule_to_cost_after_analyze(self):
        db = make_db()
        load(db)
        rel = db.relation("t")
        assert explain_scan(db, rel, Eq("k", 7)).source == "rule"
        db.analyze()
        assert explain_scan(db, rel, Eq("k", 7)).source == "cost"

    def test_seq_scan_locks_whole_relation(self):
        db = make_db()
        load(db)
        node = explain_scan(db, db.relation("t"), AlwaysTrue())
        assert node.node == "Seq Scan"
        assert node.lock_granularity == "relation"

    def test_index_scan_lock_granularity_tracks_config(self):
        for locking, expected in (("page", "page"), ("nextkey", "key-range")):
            db = Database(EngineConfig(ssi=SSIConfig(index_locking=locking)))
            load(db)
            node = explain_scan(db, db.relation("t"), Eq("k", 7))
            assert node.node == "Index Scan"
            assert node.lock_granularity == expected, locking

    def test_to_dict_round_trips_key_fields(self):
        db = make_db()
        load(db)
        db.analyze()
        d = explain_scan(db, db.relation("t"), Eq("k", 7)).to_dict()
        assert d["node"] == "Index Scan" and d["index"] == "t_pkey"
        assert d["source"] == "cost" and "cost" in d


# ---------------------------------------------------------------------------
# SQL layer: ANALYZE/EXPLAIN statements, parse + plan caches
# ---------------------------------------------------------------------------
@pytest.fixture
def sql():
    db = make_db()
    session = SQLSession(db.session())
    session.execute("CREATE TABLE t (k PRIMARY KEY, grp, v)")
    session.execute("CREATE INDEX ON t (grp)")
    session.execute("BEGIN")
    for i in range(40):
        session.execute(
            f"INSERT INTO t (k, grp, v) VALUES ({i}, {i % 2}, {i * 10})")
    session.execute("COMMIT")
    return session


class TestSQLPlanner:
    def test_analyze_statement(self, sql):
        names = [s.name for s in sql.execute("ANALYZE t")]
        assert names == ["t"]
        names = [s.name for s in sql.execute("ANALYZE")]
        assert "t" in names

    def test_explain_is_stable_text(self, sql):
        sql.execute("ANALYZE t")
        q = "EXPLAIN SELECT * FROM t WHERE grp = 1 AND k = 7"
        first, second = sql.execute(q), sql.execute(q)
        assert first == second
        assert any("Index Scan using t_pkey" in line for line in first)
        assert any("plan=cost" in line for line in first)

    def test_explain_analyze_reports_actuals(self, sql):
        lines = sql.execute("EXPLAIN ANALYZE SELECT * FROM t WHERE k = 7")
        assert any(line.strip().startswith("Actual: rows=1")
                   for line in lines)

    def test_parse_cache_hits_on_repeat(self, sql):
        hits = sql.session.db.obs.metrics.counter("perf.parse_cache_hits")
        sql.execute("SELECT * FROM t WHERE k = 7")
        before = hits.value
        sql.execute("SELECT * FROM t WHERE k = 7")
        assert hits.value == before + 1

    def test_prepare_execute_deallocate(self, sql):
        sql.execute("PREPARE q AS SELECT * FROM t WHERE k = $1")
        rows = sql.execute("EXECUTE q(7)")
        assert [r["k"] for r in rows] == [7]
        rows = sql.execute("EXECUTE q(8)")
        assert [r["k"] for r in rows] == [8]
        sql.execute("DEALLOCATE q")
        with pytest.raises(UserError):
            sql.execute("EXECUTE q(7)")

    def test_duplicate_prepare_rejected(self, sql):
        sql.execute("PREPARE q AS SELECT * FROM t")
        with pytest.raises(UserError):
            sql.execute("PREPARE q AS SELECT * FROM t")

    def test_missing_param_rejected(self, sql):
        sql.execute("PREPARE q AS SELECT * FROM t WHERE k = $1")
        with pytest.raises(UserError):
            sql.execute("EXECUTE q")

    def test_param_outside_prepare_rejected(self, sql):
        with pytest.raises(SQLSyntaxError):
            sql.execute("SELECT * FROM t WHERE k = $0")

    def test_prepared_plan_replans_after_analyze(self, sql):
        sql.execute("PREPARE q AS SELECT * FROM t WHERE k = $1")
        sql.execute("EXECUTE q(1)")
        replans = sql.session.db.obs.metrics.counter("sql.prepared_replans")
        before = replans.value
        sql.execute("EXECUTE q(2)")       # same epoch: cached plan
        assert replans.value == before
        sql.execute("ANALYZE t")          # epoch bump invalidates it
        sql.execute("EXECUTE q(3)")
        assert replans.value == before + 1

    def test_deallocate_all(self, sql):
        sql.execute("PREPARE a AS SELECT * FROM t")
        sql.execute("PREPARE b AS SELECT * FROM t")
        sql.execute("DEALLOCATE ALL")
        for name in ("a", "b"):
            with pytest.raises(UserError):
                sql.execute(f"EXECUTE {name}")

    def test_explain_execute_uses_bound_args(self, sql):
        sql.execute("ANALYZE t")
        sql.execute("PREPARE q AS SELECT * FROM t WHERE grp = $1 AND k = $2")
        lines = sql.execute("EXPLAIN EXECUTE q(1, 7)")
        assert any("Index Scan using t_pkey" in line for line in lines)
