"""Unit tests for repro.obs: metrics registry, tracer, and the public
lock-table accessors the monitoring views now use."""

import json

import pytest

from repro.config import EngineConfig, ObsConfig
from repro.engine import Database, Eq, IsolationLevel
from repro.locks.modes import LockMode
from repro.obs import (MetricsRegistry, StatsView, Tracer, format_key,
                       install_counter_properties)

SER = IsolationLevel.SERIALIZABLE


def traced_db() -> Database:
    db = Database(EngineConfig(obs=ObsConfig(enabled=True, trace=True)))
    db.create_table("t", ["k", "v"], key="k")
    db.session().insert("t", {"k": 1, "v": "a"})
    return db


class TestMetricsRegistry:
    def test_counter_get_or_create_and_labels(self):
        reg = MetricsRegistry()
        c1 = reg.counter("ssi.aborts", cause="pivot")
        c2 = reg.counter("ssi.aborts", cause="pivot")
        c3 = reg.counter("ssi.aborts", cause="doomed_at_op")
        assert c1 is c2 and c1 is not c3
        c1.inc()
        c1.inc(2)
        assert c1.value == 3 and c3.value == 0

    def test_snapshot_diff_and_nonzero(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        reg.counter("b")
        c.inc(5)
        before = reg.snapshot()
        c.inc(2)
        delta = reg.snapshot().diff(before)
        assert delta["a"] == 2 and delta["b"] == 0
        assert delta.nonzero() == {"a": 2}

    def test_reset_keeps_bound_points_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(7)
        reg.reset()
        assert c.value == 0
        c.inc()
        assert reg.counter("x").value == 1

    def test_callback_gauge_lazy_and_reset_proof(self):
        reg = MetricsRegistry()
        state = {"n": 10}
        g = reg.gauge("live")
        g.set_function(lambda: state["n"])
        assert reg.snapshot()["live"] == 10
        state["n"] = 3
        reg.reset()  # callback gauges mirror external state: untouched
        assert reg.snapshot()["live"] == 3

    def test_histogram_buckets_and_diff(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        read = h.read()
        assert read["count"] == 3 and read["sum"] == 555
        assert read["buckets"][10] == 1
        assert read["buckets"][100] == 1
        assert read["buckets"][float("inf")] == 1
        before = reg.snapshot()
        h.observe(7)
        delta = reg.snapshot().diff(before)
        assert delta["wait"]["count"] == 1
        assert delta["wait"]["buckets"][10] == 1

    def test_format_key(self):
        reg = MetricsRegistry()
        reg.counter("plain")
        reg.counter("lab", b="2", a="1")
        snap = reg.snapshot()
        assert "plain" in snap
        assert "lab{a=1,b=2}" in snap  # labels sorted

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_stats_view_attribute_api(self):
        class V(StatsView):
            _PREFIX = "v."
            _FIELDS = ("hits",)

        install_counter_properties(V)
        reg = MetricsRegistry()
        v = V(reg)
        v.hits += 1
        v.hits += 1
        assert v.hits == 2
        assert reg.counter("v.hits").value == 2
        assert v.as_dict() == {"hits": 2}
        v.raw("hits").inc()
        assert v.hits == 3


class TestTracer:
    def test_ring_buffer_and_filters(self):
        tr = Tracer(capacity=4)
        for i in range(6):
            tr.emit("tick", i, n=i)
        events = tr.events()
        assert len(events) == 4
        assert [e.xid for e in events] == [2, 3, 4, 5]
        assert tr.emitted == 6
        tr.emit("other", 5)
        assert [e.kind for e in tr.events(kind="other")] == ["other"]
        assert all(e.xid == 5 or e.data.get("n") == 5
                   for e in tr.events(xid=5))

    def test_xid_filter_matches_payload_xids(self):
        tr = Tracer()
        tr.emit("rw.conflict", 1, reader_xid=7, writer_xid=8)
        tr.emit("rw.conflict", 2, reader_xid=3, writer_xid=4)
        assert len(tr.events(xid=7)) == 1
        assert len(tr.events(kind="rw.conflict", xid=8)) == 1
        assert tr.events(xid=99) == []

    def test_export_jsonl(self, tmp_path):
        tr = Tracer()
        tr.emit("txn.begin", 1, isolation="serializable")
        tr.emit("write.tuple", 1, site=("t", 5, 0, 1))
        path = tmp_path / "trace.jsonl"
        tr.export_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["kind"] == "txn.begin"
        assert lines[0]["xid"] == 1
        assert lines[1]["site"] == ["t", 5, 0, 1]

    def test_monotonic_seq_and_ts(self):
        tr = Tracer()
        tr.emit("a")
        tr.emit("b")
        e1, e2 = tr.events()
        assert e2.seq == e1.seq + 1
        assert e2.ts_ns >= e1.ts_ns


class TestEngineIntegration:
    def test_disabled_by_default_no_tracer(self):
        db = Database()
        assert db.obs.tracer is None
        assert db.trace_events() == []
        # metrics are still live even with obs disabled
        db.create_table("t", ["k"], key="k")
        db.session().insert("t", {"k": 1})
        assert db.obs.metrics.counter("engine.commits").value >= 1
        assert db.stats.commits == db.obs.metrics.counter(
            "engine.commits").value

    def test_txn_lifecycle_traced(self):
        from repro.replication import Replica
        db = traced_db()
        replica = Replica(db)  # commits are shipped only while attached
        s = db.session()
        s.begin(SER)
        xid = s.txn.xid
        s.select("t", Eq("k", 1))
        s.update("t", Eq("k", 1), {"v": "b"})
        s.commit()
        kinds = [e.kind for e in db.obs.trace_events(xid=xid)]
        for expected in ("txn.begin", "txn.snapshot", "read.tuple",
                         "write.tuple", "txn.commit", "wal.ship"):
            assert expected in kinds, expected
        commit = db.obs.trace_events(kind="txn.commit", xid=xid)[-1]
        assert commit.data["commit_seq"] is not None
        assert replica.catch_up() == 1

    def test_stat_ssi_and_gauges(self):
        db = traced_db()
        s = db.session()
        s.begin(SER)
        s.select("t")
        stats = db.stat_ssi()
        assert stats["sireads.live"] > 0
        assert stats["engine.begins"] >= 1
        assert stats["pages.touched"] >= stats["pages.missed"] > 0
        s.commit()

    def test_trace_events_view_returns_dicts(self):
        db = traced_db()
        s = db.session()
        s.begin(SER)
        s.select("t")
        s.commit()
        rows = db.trace_events(kind="txn.begin")
        assert rows and isinstance(rows[0], dict)
        assert rows[0]["kind"] == "txn.begin"


class TestIterLocks:
    def test_heavyweight_iter_locks(self):
        db = Database()
        db.lockmgr.acquire(1, ("rel", 42), LockMode.SHARE)
        pending = db.lockmgr.acquire(2, ("rel", 42), LockMode.EXCLUSIVE)
        assert pending is not None and not pending.granted
        rows = list(db.lockmgr.iter_locks())
        granted = [r for r in rows if r["granted"]]
        waiting = [r for r in rows if not r["granted"]]
        assert [(r["owner_xid"], r["mode"]) for r in granted] == [
            (1, LockMode.SHARE)]
        assert [(r["owner_xid"], r["mode"]) for r in waiting] == [
            (2, LockMode.EXCLUSIVE)]
        assert all(r["tag"] == ("rel", 42) for r in rows)

    def test_siread_iter_locks(self):
        db = traced_db()
        s = db.session()
        s.begin(SER)
        s.select("t", Eq("k", 1))
        sx = s.txn.sxact
        rows = list(db.ssi.lockmgr.iter_locks())
        assert any(r["holder"] is sx for r in rows)
        assert all(r["summary_commit_seq"] is None
                   for r in rows if r["holder"] is not None)
        s.commit()

    def test_lock_status_view_matches_iter(self):
        db = Database()
        db.lockmgr.acquire(9, ("rel", 1), LockMode.ROW_EXCLUSIVE)
        rows = db.lock_status()
        assert {"tag": ("rel", 1), "mode": LockMode.ROW_EXCLUSIVE.value,
                "owner_xid": 9, "granted": True} in rows
