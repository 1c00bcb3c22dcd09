"""Tests for the SQL front end: lexer, parser, and execution, including
the paper's examples written as SQL text."""

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import SerializationFailure, UniqueViolationError
from repro.sql import SQLSession, SQLSyntaxError, parse, tokenize
from repro.sql import ast


@pytest.fixture
def db():
    return Database(EngineConfig())


@pytest.fixture
def sql(db):
    return SQLSession(db.session())


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("select From WHERE")]
        assert kinds == ["keyword", "keyword", "keyword", "end"]

    def test_identifiers_preserve_case(self):
        token = tokenize("myTable")[0]
        assert token.kind == "ident" and token.value == "myTable"

    def test_numbers(self):
        values = [t.value for t in tokenize("42 3.5")][:2]
        assert values == [42, 3.5]

    def test_strings_with_escapes(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- comment\n1")
        assert [t.kind for t in tokens] == ["keyword", "number", "end"]

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_bad_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @")


class TestParser:
    def test_select_with_everything(self):
        stmt = parse("SELECT a, b FROM t WHERE a > 1 AND b = 'x' "
                     "ORDER BY a DESC LIMIT 5 FOR UPDATE")
        assert isinstance(stmt, ast.Select)
        assert stmt.order_by == "a" and stmt.descending
        assert stmt.limit == 5 and stmt.for_update

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(amount) AS total FROM r")
        assert stmt.items[0].func == "COUNT"
        assert stmt.items[1].alias == "total"

    def test_between(self):
        stmt = parse("SELECT * FROM t WHERE k BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.BetweenCond)

    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        assert len(stmt.rows) == 2

    def test_insert_arity_mismatch(self):
        with pytest.raises(SQLSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_update_with_arithmetic(self):
        stmt = parse("UPDATE t SET v = v + 1 WHERE k = 0")
        column, expr = stmt.assignments[0]
        assert column == "v" and isinstance(expr, ast.BinaryOp)

    def test_begin_variants(self):
        stmt = parse("BEGIN ISOLATION LEVEL SERIALIZABLE READ ONLY, "
                     "DEFERRABLE")
        assert stmt.isolation == "serializable"
        assert stmt.read_only and stmt.deferrable
        assert parse("BEGIN").isolation is None
        assert parse("BEGIN ISOLATION LEVEL REPEATABLE READ").isolation \
            == "repeatable read"

    def test_two_phase_commit_statements(self):
        assert isinstance(parse("PREPARE TRANSACTION 'g1'"),
                          ast.PrepareTransaction)
        assert parse("COMMIT PREPARED 'g1'").gid == "g1"
        assert parse("ROLLBACK PREPARED 'g1'").gid == "g1"

    def test_savepoints(self):
        assert parse("SAVEPOINT sp").name == "sp"
        assert parse("ROLLBACK TO SAVEPOINT sp").name == "sp"
        assert parse("RELEASE SAVEPOINT sp").name == "sp"

    def test_lock_table(self):
        stmt = parse("LOCK TABLE t IN SHARE ROW EXCLUSIVE MODE")
        assert stmt.mode == "SHARE ROW EXCLUSIVE"

    def test_create_table_with_primary_key(self):
        stmt = parse("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        assert stmt.primary_key == "k"
        assert stmt.columns == ("k", "v")

    def test_create_index_using_hash(self):
        stmt = parse("CREATE INDEX ON t (v) USING HASH")
        assert stmt.using == "hash" and not stmt.unique

    def test_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN SELECT 1")
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t WHERE")


class TestExecution:
    def test_ddl_and_crud_roundtrip(self, sql):
        sql.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT,"
                    " balance INT)")
        assert sql.execute("INSERT INTO accounts (id, owner, balance) "
                           "VALUES (1, 'alice', 100), (2, 'bob', 50)") == 2
        rows = sql.execute("SELECT owner FROM accounts WHERE balance >= 100")
        assert rows == [{"owner": "alice"}]
        assert sql.execute("UPDATE accounts SET balance = balance + 10 "
                           "WHERE owner = 'bob'") == 1
        row = sql.execute("SELECT balance FROM accounts WHERE id = 2")[0]
        assert row["balance"] == 60
        assert sql.execute("DELETE FROM accounts WHERE id = 1") == 1
        assert sql.execute("SELECT COUNT(*) FROM accounts")[0]["count"] == 1

    def test_aggregates(self, sql):
        sql.execute("CREATE TABLE r (rid INT PRIMARY KEY, amount INT)")
        sql.execute("INSERT INTO r (rid, amount) VALUES (1, 10), (2, 30)")
        row = sql.execute("SELECT COUNT(*), SUM(amount) AS total, "
                          "MIN(amount), MAX(amount), AVG(amount) FROM r")[0]
        assert row["count"] == 2
        assert row["total"] == 40
        assert row["min_amount"] == 10
        assert row["max_amount"] == 30
        assert row["avg_amount"] == 20

    def test_order_by_and_limit(self, sql):
        sql.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        for k, v in ((1, 30), (2, 10), (3, 20)):
            sql.execute(f"INSERT INTO t (k, v) VALUES ({k}, {v})")
        rows = sql.execute("SELECT k FROM t ORDER BY v DESC LIMIT 2")
        assert [r["k"] for r in rows] == [1, 3]

    def test_unique_violation_via_sql(self, sql):
        sql.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        sql.execute("INSERT INTO t (k) VALUES (1)")
        with pytest.raises(UniqueViolationError):
            sql.execute("INSERT INTO t (k) VALUES (1)")

    def test_autocommit_multirow_insert_is_atomic(self, sql, db):
        sql.execute("CREATE TABLE u (k INT PRIMARY KEY, f TEXT)")
        sql.execute("INSERT INTO u (k, f) VALUES (1, 'a')")
        begins = db.stats.begins
        with pytest.raises(UniqueViolationError):
            sql.execute("INSERT INTO u (k, f) VALUES (4, 'd'), (1, 'dup')")
        assert not sql.session.in_transaction()
        assert [r["k"] for r in sql.execute("SELECT k FROM u")] == [1]
        begins = db.stats.begins
        assert sql.execute("INSERT INTO u (k, f) VALUES "
                           "(2, 'b'), (3, 'c'), (5, 'e')") == 3
        assert db.stats.begins == begins + 1
        assert sorted(r["k"] for r in sql.execute("SELECT k FROM u")) == \
            [1, 2, 3, 5]

    def test_transactions_and_savepoints(self, sql):
        sql.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        sql.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        sql.execute("INSERT INTO t (k) VALUES (1)")
        sql.execute("SAVEPOINT sp")
        sql.execute("INSERT INTO t (k) VALUES (2)")
        sql.execute("ROLLBACK TO SAVEPOINT sp")
        sql.execute("COMMIT")
        rows = sql.execute("SELECT * FROM t")
        assert [r["k"] for r in rows] == [1]

    def test_vacuum(self, sql, db):
        sql.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        sql.execute("INSERT INTO t (k, v) VALUES (1, 0)")
        for i in range(3):
            sql.execute(f"UPDATE t SET v = {i} WHERE k = 1")
        sql.execute("VACUUM t")
        assert sum(1 for _ in db.relation("t").heap.scan()) == 1

    def test_for_update_locks(self, db):
        a, b = SQLSession(db.session()), SQLSession(db.session())
        a.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        a.execute("INSERT INTO t (k, v) VALUES (1, 0)")
        a.execute("BEGIN ISOLATION LEVEL REPEATABLE READ")
        a.execute("SELECT * FROM t WHERE k = 1 FOR UPDATE")
        from repro.errors import WouldBlock
        b.execute("BEGIN ISOLATION LEVEL REPEATABLE READ")
        with pytest.raises(WouldBlock):
            b.execute("UPDATE t SET v = 9 WHERE k = 1")
        a.execute("COMMIT")
        b.session.resume()
        b.execute("COMMIT")


class TestJoinsAndGrouping:
    @pytest.fixture
    def loaded(self, sql):
        sql.execute("CREATE TABLE customers (cid INT PRIMARY KEY, "
                    "region TEXT, balance INT)")
        sql.execute("CREATE TABLE orders (oid INT PRIMARY KEY, "
                    "cid INT, amount INT)")
        sql.execute("INSERT INTO customers (cid, region, balance) VALUES "
                    "(1, 'north', 10), (2, 'south', 20), (3, 'north', 5)")
        sql.execute("INSERT INTO orders (oid, cid, amount) VALUES "
                    "(1, 1, 100), (2, 2, 50), (3, 1, 25), (4, NULL, 9)")
        return sql

    def test_parser_join_group_having(self):
        stmt = parse("SELECT region, COUNT(*) FROM orders "
                     "JOIN customers ON orders.cid = customers.cid "
                     "GROUP BY region HAVING COUNT(*) > 1")
        assert stmt.joins[0].table == "customers"
        assert stmt.group_by == ("region",)
        assert stmt.having is not None

    def test_join_left_major_order_and_null_keys(self, loaded):
        rows = loaded.execute(
            "SELECT oid, region FROM orders "
            "JOIN customers ON orders.cid = customers.cid")
        # orders order (left-major); the NULL-cid order joins nothing.
        assert rows == [{"oid": 1, "region": "north"},
                        {"oid": 2, "region": "south"},
                        {"oid": 3, "region": "north"}]

    def test_join_with_where_pushdown(self, loaded):
        rows = loaded.execute(
            "SELECT oid FROM orders "
            "JOIN customers ON orders.cid = customers.cid "
            "WHERE region = 'north' AND amount > 30")
        assert rows == [{"oid": 1}]

    def test_group_by_having_order(self, loaded):
        rows = loaded.execute(
            "SELECT cid, SUM(amount) AS total FROM orders "
            "WHERE cid = 1 OR cid = 2 GROUP BY cid "
            "HAVING SUM(amount) > 60 ORDER BY cid")
        assert rows == [{"cid": 1, "total": 125}]

    def test_join_then_group(self, loaded):
        rows = loaded.execute(
            "SELECT region, SUM(amount) AS total FROM orders "
            "JOIN customers ON orders.cid = customers.cid "
            "GROUP BY region ORDER BY region")
        assert rows == [{"region": "north", "total": 125},
                        {"region": "south", "total": 50}]

    def test_ambiguous_column_rejected(self, loaded):
        with pytest.raises(SQLSyntaxError, match="ambiguous"):
            loaded.execute("SELECT cid FROM orders "
                           "JOIN customers ON orders.cid = customers.cid")

    def test_unknown_qualifier_rejected(self, loaded):
        with pytest.raises(SQLSyntaxError, match="missing FROM-clause"):
            loaded.execute("SELECT oid FROM orders "
                           "JOIN customers ON orders.cid = nope.cid")

    def test_for_update_with_join_rejected(self, loaded):
        with pytest.raises(SQLSyntaxError, match="FOR UPDATE"):
            loaded.execute("SELECT oid FROM orders "
                           "JOIN customers ON orders.cid = customers.cid "
                           "FOR UPDATE")

    def test_bare_column_in_group_must_be_grouped(self, loaded):
        with pytest.raises(SQLSyntaxError, match="GROUP BY"):
            loaded.execute("SELECT region, amount FROM orders "
                           "JOIN customers ON orders.cid = customers.cid "
                           "GROUP BY region")

    def test_order_by_places_nulls_last(self, loaded):
        loaded.execute("INSERT INTO customers (cid, region, balance) "
                       "VALUES (4, NULL, 1)")
        regions = [r["region"] for r in loaded.execute(
            "SELECT region FROM customers GROUP BY region "
            "ORDER BY region")]
        assert regions == ["north", "south", None]

    def test_explain_shows_join_and_agg_nodes(self, loaded):
        loaded.execute("ANALYZE")
        plan = "\n".join(loaded.execute(
            "EXPLAIN SELECT region, SUM(amount) FROM orders "
            "JOIN customers ON orders.cid = customers.cid "
            "GROUP BY region ORDER BY region"))
        assert "Join" in plan
        assert "HashAggregate" in plan
        assert "Sort" in plan


class TestPaperExamplesInSQL:
    def test_write_skew_in_sql(self, db):
        """Figure 1, verbatim in SQL."""
        admin = SQLSession(db.session())
        admin.execute("CREATE TABLE doctors (name TEXT PRIMARY KEY, "
                      "oncall BOOL)")
        admin.execute("INSERT INTO doctors (name, oncall) "
                      "VALUES ('alice', TRUE), ('bob', TRUE)")
        t1, t2 = SQLSession(db.session()), SQLSession(db.session())
        t1.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        t2.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        n1 = t1.execute("SELECT COUNT(*) FROM doctors "
                        "WHERE oncall = TRUE")[0]["count"]
        n2 = t2.execute("SELECT COUNT(*) FROM doctors "
                        "WHERE oncall = TRUE")[0]["count"]
        assert n1 == n2 == 2
        t1.execute("UPDATE doctors SET oncall = FALSE WHERE name = 'alice'")
        t2.execute("UPDATE doctors SET oncall = FALSE WHERE name = 'bob'")
        t1.execute("COMMIT")
        with pytest.raises(SerializationFailure):
            t2.execute("COMMIT")
        remaining = admin.execute("SELECT COUNT(*) FROM doctors "
                                  "WHERE oncall = TRUE")[0]["count"]
        assert remaining == 1

    def test_batch_processing_in_sql(self, db):
        """Figure 2, verbatim in SQL: the REPORT's SUM plus the pivot
        abort on NEW-RECEIPT."""
        admin = SQLSession(db.session())
        admin.execute("CREATE TABLE control (id INT PRIMARY KEY, "
                      "batch INT)")
        admin.execute("CREATE TABLE receipts (rid INT PRIMARY KEY, "
                      "batch INT, amount INT)")
        admin.execute("CREATE INDEX ON receipts (batch)")
        admin.execute("INSERT INTO control (id, batch) VALUES (0, 1)")
        t1, t2, t3 = (SQLSession(db.session()) for _ in range(3))
        t2.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        x2 = t2.execute("SELECT batch FROM control WHERE id = 0")[0]["batch"]
        t3.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        t3.execute("UPDATE control SET batch = batch + 1 WHERE id = 0")
        t3.execute("COMMIT")
        t1.execute("BEGIN ISOLATION LEVEL SERIALIZABLE READ ONLY")
        x1 = t1.execute("SELECT batch FROM control WHERE id = 0")[0]["batch"]
        total = t1.execute(f"SELECT SUM(amount) FROM receipts "
                           f"WHERE batch = {x1 - 1}")[0]["sum_amount"]
        t1.execute("COMMIT")
        assert total is None  # empty batch
        with pytest.raises(SerializationFailure):
            t2.execute(f"INSERT INTO receipts (rid, batch, amount) "
                       f"VALUES (1, {x2}, 100)")
            t2.execute("COMMIT")
