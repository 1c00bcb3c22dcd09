"""What a committed transaction leaves behind: the commit records
shipped to an attached replica share the heap's row payloads instead
of copying them, and stored rows share their column-name keys across
separately parsed statements."""

from repro.config import EngineConfig
from repro.engine import Database
from repro.replication import CommitRecord, Replica
from repro.sql import SQLSession


def make_db():
    db = Database(EngineConfig())
    sql = SQLSession(db.session())
    sql.execute("CREATE TABLE accounts (account_id INT PRIMARY KEY, "
                "balance INT)")
    replica = Replica(db)  # its feed holds every later commit record
    sql.execute("INSERT INTO accounts (account_id, balance) VALUES (1, 10)")
    return db, sql, replica


def versions(db):
    return {t.xmin: t for t in db.relation("accounts").heap.scan()}


def test_commit_record_is_slotted():
    assert not hasattr(CommitRecord(xid=1), "__dict__")


def test_wal_rows_are_the_heap_payloads():
    db, sql, replica = make_db()
    insert = replica.feed[-1].changes[0]
    old = versions(db)[replica.feed[-1].xid]
    assert insert[3] is old.data
    sql.execute("UPDATE accounts SET balance = 11 WHERE account_id = 1")
    record = replica.feed[-1]
    kind, rel, before, after = record.changes[0]
    assert (kind, rel) == ("update", "accounts")
    new = versions(db)[record.xid]
    assert after is new.data
    assert before is old.data
    assert after == {"account_id": 1, "balance": 11}
    assert before == {"account_id": 1, "balance": 10}
    sql.execute("DELETE FROM accounts WHERE account_id = 1")
    assert replica.feed[-1].changes[0][2] is new.data


def test_mutating_a_select_result_changes_neither_heap_nor_wal():
    db, sql, replica = make_db()
    (insert,) = replica.feed[-1].changes
    rows = sql.execute("SELECT * FROM accounts")
    rows[0]["balance"] = 999
    rows[0]["extra"] = 1
    session_rows = db.session().select("accounts")
    session_rows[0]["balance"] = 998
    (tup,) = versions(db).values()
    assert tup.data == {"account_id": 1, "balance": 10}
    assert insert[3] == {"account_id": 1, "balance": 10}
    assert sql.execute("SELECT * FROM accounts") == [
        {"account_id": 1, "balance": 10}]


def test_separately_parsed_inserts_share_column_name_keys():
    db, sql, replica = make_db()
    sql.execute("INSERT INTO accounts (account_id, balance) VALUES (2, 20)")
    first, second = sorted(db.relation("accounts").heap.scan(),
                           key=lambda t: t.data["account_id"])
    assert list(first.data) == list(second.data)
    for a, b in zip(first.data, second.data):
        assert a is b
