"""Row versions' cached wire text (HeapTuple.text).

A single-table ``SELECT *`` returns a VersionRows, and encode_frame
splices each version's cached compact JSON into the frame. These tests
pin that the frames are byte-identical to encoding the plain row
dicts, that the cache follows row versions through UPDATE, ROLLBACK,
DELETE and a heap rewrite, that a repeat SELECT encodes no row again,
and that no other result shape reads the cache. The last class covers
the client reading a response larger than MAX_FRAME_BYTES.
"""

import decimal
import json
import random
import sys
import threading
import time

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import RetryableError
from repro.server import ReproServer, ServerConfig, connect
from repro.server import protocol
from repro.sql import SQLSession
from repro.storage.tuple import VersionRows


def plain_frame(payload):
    """The frame as encoded before row texts were cached: json.dumps of
    the payload with the result as a plain list of dicts."""
    payload = {key: (list(value) if isinstance(value, VersionRows)
                     else value) for key, value in payload.items()}
    return (json.dumps(payload, separators=(",", ":"),
                       default=protocol._fallback) + "\n").encode("utf-8")


def sent(result, request_id=7):
    """The decoded result a client receives for ``result``."""
    frame = protocol.encode_frame(
        protocol.ok_response(request_id, result, txn="idle"))
    return protocol.decode_frame(frame.rstrip(b"\n"))["result"]


def versions(db, table="t"):
    return list(db.relation(table).heap.scan())


@pytest.fixture
def db():
    db = Database(EngineConfig())
    db.create_table("t", ["k", "v"], key="k")
    return db


@pytest.fixture
def sql(db):
    sql = SQLSession(db.session())
    sql.execute("INSERT INTO t (k, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return sql


# ----------------------------------------------------------------------
# byte identity
# ----------------------------------------------------------------------
VALUES = [None, True, False, 0, -7, 2 ** 40, 1.5, -0.25, 1e300,
          "", "plain", 'quote " and \\ backslash', "unicode é ü 日本 🎉",
          "new\nline\ttab\r", "\x00nul", "\x00rows"]


def random_value(rng):
    if rng.random() < 0.05:
        return decimal.Decimal("1.25")  # encoded through _fallback
    return rng.choice(VALUES)


class TestByteIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_select_star_frames(self, seed):
        rng = random.Random(seed)
        db = Database(EngineConfig())
        db.create_table("r", ["k", "a", "b"], key="k")
        session = db.session()
        for k in range(rng.randint(0, 40)):
            session.insert("r", {"k": k, "a": random_value(rng),
                                 "b": random_value(rng)})
        sql = SQLSession(db.session())
        statements = [
            "SELECT * FROM r",
            "SELECT * FROM r WHERE k < 10",
            "SELECT * FROM r WHERE k > 1000",
            "SELECT * FROM r ORDER BY k DESC",
            "SELECT * FROM r ORDER BY k LIMIT 3",
            "SELECT * FROM r WHERE k >= 5 ORDER BY k DESC LIMIT 4",
            "SELECT * FROM r LIMIT 0",
        ]
        for statement in statements:
            for _ in range(2):  # cold cache, then warm
                result = sql.execute(statement)
                assert isinstance(result, VersionRows), statement
                for request_id in (1, "x", None, "\x00rows",
                                   {"nested": ["\x00rows"]}):
                    payload = protocol.ok_response(request_id, result,
                                                   txn="open")
                    assert protocol.encode_frame(payload) == \
                        plain_frame(payload), statement

    def test_order_by_nulls_and_extra_fields(self, db, sql):
        sql.execute("INSERT INTO t (k, v) VALUES (4, NULL), (5, 'a')")
        for statement in ("SELECT * FROM t ORDER BY v",
                          "SELECT * FROM t ORDER BY v DESC LIMIT 2"):
            result = sql.execute(statement)
            payload = protocol.ok_response(1, result, txn="idle",
                                           extra={"n": (1, 2)})
            assert protocol.encode_frame(payload) == plain_frame(payload)
            rows = [r["k"] for r in sent(result)]
            assert rows == [r["k"] for r in result]

    def test_empty_result(self, sql):
        result = sql.execute("SELECT * FROM t WHERE k = 99")
        assert result == [] and isinstance(result, VersionRows)
        payload = protocol.ok_response(3, result)
        assert protocol.encode_frame(payload) == \
            b'{"id":3,"ok":true,"result":[]}\n'


# ----------------------------------------------------------------------
# the cache follows row versions
# ----------------------------------------------------------------------
class TestCacheFollowsVersions:
    def test_update_then_select_sends_new_value(self, sql):
        assert sent(sql.execute("SELECT * FROM t WHERE k = 2")) == \
            [{"k": 2, "v": "b"}]
        sql.execute("UPDATE t SET v = 'B' WHERE k = 2")
        assert sent(sql.execute("SELECT * FROM t WHERE k = 2")) == \
            [{"k": 2, "v": "B"}]

    def test_rolled_back_update_sends_old_value(self, sql):
        sent(sql.execute("SELECT * FROM t"))
        sql.execute("BEGIN")
        sql.execute("UPDATE t SET v = 'x' WHERE k = 1")
        assert sent(sql.execute("SELECT * FROM t WHERE k = 1")) == \
            [{"k": 1, "v": "x"}]
        sql.execute("ROLLBACK")
        assert sent(sql.execute("SELECT * FROM t ORDER BY k")) == \
            [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 3, "v": "c"}]

    def test_delete_drops_the_row(self, sql):
        sent(sql.execute("SELECT * FROM t"))
        sql.execute("DELETE FROM t WHERE k = 3")
        assert [r["k"] for r in sent(sql.execute("SELECT * FROM t"))] == \
            [1, 2]

    def test_version_moved_by_rewrite_keeps_its_text(self, db, sql):
        sql.execute("UPDATE t SET v = 'z' WHERE k = 1")
        sql.execute("VACUUM t")
        sent(sql.execute("SELECT * FROM t"))
        before = {t.data["k"]: (t.tid, t.text) for t in versions(db)}
        db.session().recluster_table("t")
        after = versions(db)
        assert {t.data["k"] for t in after} == {1, 2, 3}
        assert any(before[t.data["k"]][0] != t.tid for t in after)
        for tup in after:
            assert tup.text == before[tup.data["k"]][1]
            assert json.loads(tup.text) == tup.data
        assert sent(sql.execute("SELECT * FROM t ORDER BY k")) == \
            [{"k": 1, "v": "z"}, {"k": 2, "v": "b"}, {"k": 3, "v": "c"}]

    def test_second_select_encodes_no_row(self, sql, monkeypatch):
        calls = []
        real = protocol._dumps

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(protocol, "_dumps", counting)
        first = sent(sql.execute("SELECT * FROM t"))
        rows_encoded = [c for c in calls if "result" not in c]
        assert len(rows_encoded) == 3
        calls.clear()
        assert sent(sql.execute("SELECT * FROM t")) == first
        assert [c for c in calls if "result" not in c] == []
        assert len(calls) == 1  # the frame around the rows

    @pytest.mark.parametrize("statement", [
        "SELECT v FROM t ORDER BY k",
        "SELECT *, v FROM t ORDER BY k",
        "SELECT k, v FROM t WHERE k = 1",
        "SELECT COUNT(*) FROM t",
        "SELECT v, COUNT(*) FROM t GROUP BY v",
        "SELECT * FROM t JOIN u ON t.k = u.k",
        "SELECT * FROM t WHERE k = 1 FOR UPDATE",
    ])
    def test_other_results_never_read_the_cache(self, db, sql, statement):
        db.create_table("u", ["k", "w"], key="k")
        sql.execute("INSERT INTO u (k, w) VALUES (1, 10)")
        sent(sql.execute("SELECT * FROM t"))
        for tup in versions(db):
            tup.text = b'{"poisoned":true}'
        result = sql.execute(statement)
        assert not isinstance(result, VersionRows)
        assert sent(result) == json.loads(json.dumps(result))
        assert "poisoned" not in json.dumps(sent(result))
        # SELECT * itself does read the (poisoned) cache.
        assert sent(sql.execute("SELECT * FROM t WHERE k = 1")) == \
            [{"poisoned": True}]


# ----------------------------------------------------------------------
# over TCP
# ----------------------------------------------------------------------
def assert_clean_stop(server):
    assert server.stop() == {"threads": [], "connections": []}


class TestOverTheWire:
    def test_update_and_select_through_the_server(self):
        server = ReproServer(Database(EngineConfig()),
                             ServerConfig(port=0)).start()
        try:
            client = connect(server.address)
            client.sql("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
            client.sql("INSERT INTO t (k, v) VALUES (1, 'a'), (2, 'b')")
            assert client.sql("SELECT * FROM t ORDER BY k") == \
                [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}]
            client.sql("UPDATE t SET v = 'c' WHERE k = 2")
            assert client.sql("SELECT * FROM t ORDER BY k DESC") == \
                [{"k": 2, "v": "c"}, {"k": 1, "v": "a"}]
            assert client.sql("SELECT v FROM t WHERE k = 1") == [{"v": "a"}]
            client.close()
        finally:
            assert_clean_stop(server)

    def test_concurrent_senders_and_updaters(self):
        """Connection threads fill texts outside the engine latch while
        other connections make new versions. In one REPEATABLE READ
        snapshot, SELECT * (cached texts) must equal SELECT k, v
        (encoded fresh): a text sent for the wrong version breaks it."""
        server = ReproServer(Database(EngineConfig()),
                             ServerConfig(port=0)).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        errors = []
        deadline = time.monotonic() + 2.0
        try:
            boot = connect(server.address)
            boot.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            boot.sql("INSERT INTO t (k, v) VALUES "
                     + ", ".join(f"({k}, 0)" for k in range(50)))
            boot.close()

            def updater(seed):
                rng = random.Random(seed)
                client = connect(server.address)
                while time.monotonic() < deadline:
                    try:
                        client.sql(f"UPDATE t SET v = v + 1 "
                                   f"WHERE k = {rng.randrange(50)}")
                    except RetryableError:
                        pass
                client.close()

            def reader():
                client = connect(server.address,
                                 isolation="repeatable read")
                while time.monotonic() < deadline:
                    client.sql("BEGIN")
                    star = client.sql("SELECT * FROM t ORDER BY k")
                    fresh = client.sql("SELECT k, v FROM t ORDER BY k")
                    client.sql("COMMIT")
                    if star != fresh:
                        errors.append((star, fresh))
                client.close()

            workers = ([threading.Thread(target=updater, args=(i,))
                        for i in range(2)]
                       + [threading.Thread(target=reader)
                          for _ in range(2)])
            for w in workers:
                w.start()
            for w in workers:
                w.join(30)
            assert not any(w.is_alive() for w in workers)
            assert errors == []
            assert server.fatal_errors == []
        finally:
            sys.setswitchinterval(interval)
            assert_clean_stop(server)

    def test_result_over_max_frame_bytes(self):
        db = Database(EngineConfig())
        db.create_table("big", ["k", "s"], key="k")
        session = db.session()
        session.begin()
        for k in range(30_000):
            session.insert("big", {"k": k, "s": f"{k:030d}"})
        session.commit()
        server = ReproServer(db, ServerConfig(port=0)).start()
        try:
            client = connect(server.address)
            rows = client.sql("SELECT * FROM big")
            assert len(rows) == 30_000
            assert rows[-1] == {"k": 29_999, "s": f"{29_999:030d}"}
            assert len(json.dumps(rows)) > protocol.MAX_FRAME_BYTES
            assert client.ping() == "pong"
            client.close()
        finally:
            assert_clean_stop(server)
