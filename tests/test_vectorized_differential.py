"""The one read path, checked against fixed answers and against its
own instrumented runs.

The engine has one snapshot scan (page at a time, compiled batch
filters, aggregate pushdown) and the SQL layer one join executor
(hash/merge joins, nested loop only without an equality key). This
suite pins what they produce:

* every corpus replay runs plain and with tracing + history recording
  on -- the instruments watch the same path, so the schedule, the
  committed rows, the committed-transaction set and the
  serializability verdict must be identical;
* whole workloads (YCSB, the reporting join mix, SIBENCH) run plain and
  instrumented with the same seed -- the simulation must take exactly
  the same schedule: same commit/abort/serialization-failure counts,
  same per-type mix, same final table contents;
* a SQL battery (joins, GROUP BY/HAVING, aggregates including the
  pushdown shapes, NULL keys, string extrema, float sums) whose answers
  must equal golden literals -- same rows, same order, same Python
  types;
* aggregate pushdown hands its matched tuples to the history recorder,
  so the Adya checker still sees the reads of an aggregate write skew.
"""

from pathlib import Path

import pytest

from repro.config import EngineConfig, ObsConfig
from repro.engine import Database, Eq
from repro.engine.isolation import IsolationLevel
from repro.errors import SerializationFailure
from repro.explore import load_replay, run_replay
from repro.explore.explorer import execute_schedule
from repro.explore.replay import FixedSchedulePolicy
from repro.sql.executor import SQLSession
from repro.verify import check_serializable
from repro.workloads import ReportingWorkload, SIBench, YCSB, run_workload

CORPUS_DIR = Path(__file__).resolve().parent / "explore_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

SER = IsolationLevel.SERIALIZABLE
RR = IsolationLevel.REPEATABLE_READ


def instrumented_config() -> EngineConfig:
    """Event tracing and history recording both on."""
    return EngineConfig(record_history=True, obs=ObsConfig(enabled=True))


def run_pair(replay, isolation=None):
    """(plain replay, replay with the tracer installed). Both record
    history: the serializability oracle needs it."""
    plain = run_replay(replay, isolation)
    iso = isolation or replay.isolation
    policy = FixedSchedulePolicy(replay.schedule,
                                 strict=iso is replay.isolation)
    db = replay.program.build_db(sanitize=True, config=instrumented_config())
    traced = execute_schedule(replay.program, iso, policy.pick, db=db)
    assert db.obs.trace_events(kind="txn.begin"), "tracer not installed"
    return plain, traced, policy.diverged


# ---------------------------------------------------------------------------
# corpus replays
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_identical_outcome_under_snapshot_isolation(path):
    replay = load_replay(str(path))
    plain, traced, traced_diverged = run_pair(replay)
    assert plain.record.complete and traced.complete
    assert not plain.diverged and not traced_diverged, \
        "the replayable step structure moved"
    assert plain.record.schedule == traced.schedule
    assert plain.record.state == traced.state
    assert plain.record.committed_txns == traced.committed_txns
    assert not plain.record.check.serializable, \
        f"{path.stem}: pinned anomaly disappeared"
    assert not traced.check.serializable


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_identical_ssi_verdict_under_serializable(path):
    replay = load_replay(str(path))
    plain, traced, _ = run_pair(replay, SER)
    assert plain.record.complete and traced.complete
    assert plain.record.state == traced.state
    assert plain.record.check.serializable and traced.check.serializable
    assert plain.record.serialization_failures >= 1
    assert (plain.record.serialization_failures
            == traced.serialization_failures)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def _run_workload_pair(make_workload, tables, *, isolation, n_clients,
                       max_ticks, seed):
    outcomes = []
    for config in (EngineConfig(), instrumented_config()):
        db = Database(config)
        result = run_workload(make_workload(), isolation=isolation,
                              n_clients=n_clients, max_ticks=max_ticks,
                              seed=seed, db=db)
        session = db.session()
        state = {t: sorted(tuple(sorted(r.items()))
                           for r in session.select(t)) for t in tables}
        outcomes.append((result, state))
    return outcomes


WORKLOADS = [
    ("ycsb", lambda: YCSB(table_size=60), ["usertable"]),
    ("reporting", lambda: ReportingWorkload(n_customers=12),
     ["customers", "orders"]),
    ("sibench", lambda: SIBench(table_size=25), ["sibench"]),
]


@pytest.mark.parametrize("isolation", [RR, SER], ids=["si", "ssi"])
@pytest.mark.parametrize("name,factory,tables", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_workload_schedule_is_identical(name, factory, tables, isolation):
    plain, instrumented = _run_workload_pair(
        factory, tables, isolation=isolation, n_clients=4, max_ticks=2500,
        seed=7)
    r_plain, s_plain = plain
    r_inst, s_inst = instrumented
    assert r_plain.commits == r_inst.commits
    assert r_plain.aborts == r_inst.aborts
    assert r_plain.serialization_failures == r_inst.serialization_failures
    assert r_plain.by_type == r_inst.by_type
    assert r_plain.steps == r_inst.steps, \
        "tracing or recording changed the schedule"
    assert s_plain == s_inst
    assert r_plain.commits > 0, "vacuous run: nothing committed"


# ---------------------------------------------------------------------------
# SQL battery
# ---------------------------------------------------------------------------
def _loaded_sql() -> SQLSession:
    db = Database(EngineConfig())
    db.create_table("customers", ["cid", "region", "balance"], key="cid")
    db.create_table("orders", ["oid", "cid", "amount", "note"], key="oid")
    # (no secondary index on cid: some cids are NULL below, and the
    # btree does not index NULL keys; the pk index on oid still
    # exercises the batch index-scan path via the BETWEEN query.)
    session = db.session()
    session.begin()
    regions = ["north", "south", None, "east"]
    for cid in range(8):
        session.insert("customers", {"cid": cid,
                                     "region": regions[cid % 4],
                                     "balance": cid * 2.5})
    for oid in range(30):
        session.insert("orders", {
            # cid 7 never ordered; some orders have a NULL cid (SQL
            # semantics: a NULL key joins nothing).
            "oid": oid,
            "cid": None if oid % 9 == 5 else oid % 7,
            "amount": (oid * 3) % 11 + 0.25,
            "note": None if oid % 4 == 2 else f"n{oid % 3}"})
    session.commit()
    db.vacuum()
    sql = SQLSession(db.session())
    sql.execute("ANALYZE")
    return sql


#: (query, result columns in order, result rows as value tuples). Joins
#: run as hash/merge joins chosen by the planner; the aggregate shapes
#: include the pushdown ones, the ones pushdown must decline (ORDER BY
#: present) and NULL/empty/string edge cases.
BATTERY = [
    ('SELECT * FROM orders JOIN customers ON orders.cid = '
     'customers.cid',
     ['orders.oid', 'oid', 'orders.cid', 'orders.amount', 'amount',
      'orders.note', 'note', 'customers.cid', 'customers.region', 'region',
      'customers.balance', 'balance'],
     [(0, 0, 0, 0.25, 0.25, 'n0', 'n0', 0, 'north', 'north', 0.0, 0.0),
      (1, 1, 1, 3.25, 3.25, 'n1', 'n1', 1, 'south', 'south', 2.5, 2.5),
      (2, 2, 2, 6.25, 6.25, None, None, 2, None, None, 5.0, 5.0),
      (3, 3, 3, 9.25, 9.25, 'n0', 'n0', 3, 'east', 'east', 7.5, 7.5),
      (4, 4, 4, 1.25, 1.25, 'n1', 'n1', 4, 'north', 'north', 10.0, 10.0),
      (6, 6, 6, 7.25, 7.25, None, None, 6, None, None, 15.0, 15.0),
      (7, 7, 0, 10.25, 10.25, 'n1', 'n1', 0, 'north', 'north', 0.0, 0.0),
      (8, 8, 1, 2.25, 2.25, 'n2', 'n2', 1, 'south', 'south', 2.5, 2.5),
      (9, 9, 2, 5.25, 5.25, 'n0', 'n0', 2, None, None, 5.0, 5.0),
      (10, 10, 3, 8.25, 8.25, None, None, 3, 'east', 'east', 7.5, 7.5),
      (11, 11, 4, 0.25, 0.25, 'n2', 'n2', 4, 'north', 'north', 10.0, 10.0),
      (12, 12, 5, 3.25, 3.25, 'n0', 'n0', 5, 'south', 'south', 12.5, 12.5),
      (13, 13, 6, 6.25, 6.25, 'n1', 'n1', 6, None, None, 15.0, 15.0),
      (15, 15, 1, 1.25, 1.25, 'n0', 'n0', 1, 'south', 'south', 2.5, 2.5),
      (16, 16, 2, 4.25, 4.25, 'n1', 'n1', 2, None, None, 5.0, 5.0),
      (17, 17, 3, 7.25, 7.25, 'n2', 'n2', 3, 'east', 'east', 7.5, 7.5),
      (18, 18, 4, 10.25, 10.25, None, None, 4, 'north', 'north', 10.0, 10.0),
      (19, 19, 5, 2.25, 2.25, 'n1', 'n1', 5, 'south', 'south', 12.5, 12.5),
      (20, 20, 6, 5.25, 5.25, 'n2', 'n2', 6, None, None, 15.0, 15.0),
      (21, 21, 0, 8.25, 8.25, 'n0', 'n0', 0, 'north', 'north', 0.0, 0.0),
      (22, 22, 1, 0.25, 0.25, None, None, 1, 'south', 'south', 2.5, 2.5),
      (24, 24, 3, 6.25, 6.25, 'n0', 'n0', 3, 'east', 'east', 7.5, 7.5),
      (25, 25, 4, 9.25, 9.25, 'n1', 'n1', 4, 'north', 'north', 10.0, 10.0),
      (26, 26, 5, 1.25, 1.25, None, None, 5, 'south', 'south', 12.5, 12.5),
      (27, 27, 6, 4.25, 4.25, 'n0', 'n0', 6, None, None, 15.0, 15.0),
      (28, 28, 0, 7.25, 7.25, 'n1', 'n1', 0, 'north', 'north', 0.0, 0.0),
      (29, 29, 1, 10.25, 10.25, 'n2', 'n2', 1, 'south', 'south', 2.5, 2.5)]),
    ('SELECT customers.cid, amount FROM customers JOIN orders ON '
     'customers.cid = orders.cid WHERE balance > 5',
     ['customers.cid', 'amount'],
     [(3, 9.25), (3, 8.25), (3, 7.25), (3, 6.25), (4, 1.25), (4, 0.25),
      (4, 10.25), (4, 9.25), (5, 3.25), (5, 2.25), (5, 1.25), (6, 7.25),
      (6, 6.25), (6, 5.25), (6, 4.25)]),
    ('SELECT region, SUM(amount) AS total FROM orders JOIN customers '
     'ON orders.cid = customers.cid GROUP BY region HAVING '
     'SUM(amount) > 1 ORDER BY region',
     ['region', 'total'],
     [('east', 31.0), ('north', 47.0), ('south', 24.0), (None, 38.75)]),
    ('SELECT oid FROM orders JOIN customers ON orders.cid = '
     "customers.cid WHERE region = 'north' ORDER BY oid LIMIT 5",
     ['oid'],
     [(0,), (4,), (7,), (11,), (18,)]),
    ('SELECT cid, COUNT(*) AS n, AVG(amount) AS avg_amount FROM '
     'orders GROUP BY cid ORDER BY cid',
     ['cid', 'n', 'avg_amount'],
     [(0, 4, 6.5), (1, 5, 3.45), (2, 3, 5.25), (3, 4, 7.75), (4, 4, 5.25),
      (5, 3, 2.25), (6, 4, 5.75), (None, 3, 5.583333333333333)]),
    ('SELECT note, COUNT(note) FROM orders GROUP BY note',
     ['note', 'count_note'],
     [('n0', 8), ('n1', 8), (None, 0), ('n2', 7)]),
    ('SELECT COUNT(*) FROM orders',
     ['count'],
     [(30,)]),
    ('SELECT COUNT(cid) FROM orders',
     ['count_cid'],
     [(27,)]),
    ('SELECT SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM '
     'orders',
     ['sum_amount', 'min_amount', 'max_amount', 'avg_amount'],
     [(157.5, 0.25, 10.25, 5.25)]),
    ('SELECT SUM(amount) FROM orders WHERE cid = 3',
     ['sum_amount'],
     [(31.0,)]),
    ('SELECT COUNT(*) FROM orders WHERE amount < 0',
     ['count'],
     [(0,)]),
    ('SELECT MIN(note), MAX(note) FROM orders',
     ['min_note', 'max_note'],
     [('n0', 'n2')]),
    ('SELECT MIN(region) FROM customers WHERE balance > 100',
     ['min_region'],
     [(None,)]),
    ('SELECT COUNT(*) AS n FROM orders WHERE oid BETWEEN 5 AND 25',
     ['n'],
     [(21,)]),
    ('SELECT * FROM customers ORDER BY cid',
     ['cid', 'region', 'balance'],
     [(0, 'north', 0.0), (1, 'south', 2.5), (2, None, 5.0), (3, 'east', 7.5),
      (4, 'north', 10.0), (5, 'south', 12.5), (6, None, 15.0),
      (7, 'east', 17.5)]),
    ('SELECT region FROM customers WHERE balance >= 10',
     ['region'],
     [('north',), ('south',), (None,), ('east',)]),
]


def _expected(columns, rows):
    return [dict(zip(columns, row)) for row in rows]


def test_sql_battery_byte_identical():
    sql = _loaded_sql()
    for query, columns, rows in BATTERY:
        assert repr(sql.execute(query)) == repr(_expected(columns, rows)), \
            f"answer moved for {query!r}"


def test_sql_battery_empty_table():
    for query, expected in [
            ("SELECT COUNT(*), SUM(balance) FROM customers",
             [{"count": 0, "sum_balance": None}]),
            ("SELECT * FROM customers JOIN orders "
             "ON customers.cid = orders.cid", [])]:
        db = Database(EngineConfig())
        db.create_table("customers", ["cid", "balance"], key="cid")
        db.create_table("orders", ["oid", "cid"], key="oid")
        assert repr(SQLSession(db.session()).execute(query)) \
            == repr(expected)


def test_float_sum_is_bit_identical():
    """Partial per-page sums must chain exactly like one flat sum()
    (BatchAggregator uses sum(values, acc) for this); floats expose
    any regrouping immediately."""
    db = Database(EngineConfig())
    db.create_table("t", ["k", "x"], key="k")
    s = db.session()
    s.begin()
    values = {k: 0.1 * ((k * 7919) % 97) for k in range(500)}
    for k, x in values.items():
        s.insert("t", {"k": k, "x": x})
    s.commit()
    db.vacuum()
    sql = SQLSession(db.session())
    flat = [x for k, x in values.items() if k > 3]
    answer = sql.execute("SELECT SUM(x), AVG(x) FROM t WHERE k > 3")
    assert repr(answer) == repr([{"sum_x": sum(flat),
                                  "avg_x": sum(flat) / len(flat)}])


def test_scan_aggregate_matches_select_fold():
    """Engine-level: session.scan_aggregate equals a fold over the
    scan_rows output, for every supported func."""
    db = Database(EngineConfig())
    db.create_table("t", ["k", "v"], key="k")
    s = db.session()
    s.begin()
    for k in range(40):
        s.insert("t", {"k": k, "v": None if k % 5 == 0 else k * 1.5})
    s.commit()
    db.vacuum()
    s = db.session()
    specs = [("COUNT", None), ("COUNT", "v"), ("SUM", "v"),
             ("MIN", "v"), ("MAX", "v"), ("AVG", "v")]
    got = s.scan_aggregate("t", specs)
    rows = s.scan_rows("t")
    values = [r["v"] for r in rows if r["v"] is not None]
    expect = [len(rows), len(values), sum(values), min(values),
              max(values), sum(values) / len(values)]
    assert got == expect


# ---------------------------------------------------------------------------
# history recording through aggregate pushdown
# ---------------------------------------------------------------------------
def _aggregate_write_skew(isolation):
    """Two clients COUNT a department's expenses in one snapshot and
    each admits a new expense the other's count never saw."""
    db = Database(EngineConfig(record_history=True))
    db.create_table("expenses", ["eid", "dept", "amount"], key="eid")
    db.session().insert("expenses", {"eid": 0, "dept": "eng", "amount": 50})
    s1, s2 = db.session(), db.session()
    s1.begin(isolation)
    s2.begin(isolation)
    counts = [s.scan_aggregate("expenses", [("COUNT", None)],
                               Eq("dept", "eng"))[0] for s in (s1, s2)]
    failures = 0
    for eid, (sess, count) in enumerate(zip((s1, s2), counts), start=1):
        try:
            if count <= 1:
                sess.insert("expenses",
                            {"eid": eid, "dept": "eng", "amount": 25})
            sess.commit()
        except SerializationFailure:
            failures += 1
            sess.rollback()
    return counts, failures, check_serializable(db.recorder)


def test_recorded_aggregate_write_skew_keeps_its_adya_verdict():
    replay = load_replay(str(CORPUS_DIR / "write_skew_via_aggregate.json"))
    assert run_replay(replay).ok
    assert run_replay(replay, SER).ok
    counts, failures, check = _aggregate_write_skew(RR)
    assert counts == [1, 1] and failures == 0
    assert not check.serializable, \
        "the recorder missed the aggregate's predicate read"
    counts, failures, check = _aggregate_write_skew(SER)
    assert counts == [1, 1] and failures == 1
    assert check.serializable
