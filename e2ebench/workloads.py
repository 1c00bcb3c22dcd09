"""The benchmark's own SQL mixes, seeded generators and end-of-run checks.

Each workload copies the transaction shapes and weights of the engine's
in-process workloads (SIBENCH, YCSB, DBT-2++) as SQL text, but imports
nothing from them, so a change to the engine's workload package cannot
change what this benchmark sends over the wire.

A workload object is shared by every client of one run. It hands each
client a generator of transactions (``transactions(client_index, rng)``)
and keeps the *expected* state the end-of-run check compares against:
``apply(effect)`` is called once per committed transaction, with the
value its body returned, and never for an attempt that was rolled back.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One transaction: (kind, read_only, body). ``body(sql)`` runs the
#: statements between BEGIN and COMMIT through ``sql(text)`` and
#: returns the effect to record if the commit succeeds.
Txn = Tuple[str, bool, Callable[[Callable[[str], Any]], Any]]


def literal(value: Any) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def insert_statements(table: str, columns: List[str], rows: List[tuple],
                      chunk: int = 250) -> Iterator[str]:
    """Multi-row INSERTs of at most ``chunk`` rows each."""
    head = f"INSERT INTO {table} ({', '.join(columns)}) VALUES "
    for start in range(0, len(rows), chunk):
        part = rows[start:start + chunk]
        yield head + ", ".join(
            "(" + ", ".join(literal(v) for v in row) + ")" for row in part)


class Workload:
    """Base: schema, seeded load, transaction stream, expected state."""

    name = ""
    clients = 1
    durable = False
    #: Client 0 issues VACUUM after every this many of its own commits.
    vacuum_every = 100
    #: (slot, kind) for the end-to-end latency slots type_a / type_b.
    latency_slots: Tuple[str, str] = ("", "")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._mu = threading.Lock()

    def load_statements(self) -> List[str]:
        """DDL and INSERTs, generated from the seed; run in one
        transaction after the DDL."""
        raise NotImplementedError

    def ddl(self) -> List[str]:
        raise NotImplementedError

    def transactions(self, client: int, rng: random.Random) -> Iterator[Txn]:
        raise NotImplementedError

    def apply(self, effect: Any) -> None:
        """Record one committed transaction's effect."""

    def check(self, sql: Callable[[str], Any]) -> List[str]:
        """Compare the database with the expected state; returns the
        violations found (empty when the run was correct)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# SIBENCH (paper section 8.1)
# ----------------------------------------------------------------------
class SIBench(Workload):
    """Half single-key updates, half full-table min-value queries."""

    name = "sibench_1c"
    clients = 1
    vacuum_every = 100
    latency_slots = ("query", "update")
    rows = 1000
    update_fraction = 0.5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{seed}/load")
        self.values = {k: rng.randrange(10_000) for k in range(self.rows)}
        #: Last committed value of every key.
        self.expected = dict(self.values)

    def ddl(self) -> List[str]:
        return ["CREATE TABLE sibench (k INT PRIMARY KEY, v INT)"]

    def load_statements(self) -> List[str]:
        return list(insert_statements(
            "sibench", ["k", "v"], sorted(self.values.items())))

    def transactions(self, client, rng):
        while True:
            if rng.random() < self.update_fraction:
                key, value = rng.randrange(self.rows), rng.randrange(10_000)

                def update(sql, key=key, value=value):
                    sql(f"UPDATE sibench SET v = {value} WHERE k = {key}")
                    return key, value

                yield "update", False, update
            else:
                def query(sql):
                    rows = sql("SELECT * FROM sibench")
                    min(rows, key=lambda r: (r["v"], r["k"]))
                    return None

                yield "query", True, query

    def apply(self, effect):
        if effect is not None:
            key, value = effect
            with self._mu:
                self.expected[key] = value

    def check(self, sql):
        rows = sql("SELECT * FROM sibench")
        found = {r["k"]: r["v"] for r in rows}
        problems = []
        if len(rows) != self.rows:
            problems.append(f"sibench has {len(rows)} rows, "
                            f"expected {self.rows}")
        wrong = [k for k, v in self.expected.items() if found.get(k) != v]
        if wrong:
            k = wrong[0]
            problems.append(f"{len(wrong)} keys lost their last committed "
                            f"value (key {k}: {found.get(k)!r}, "
                            f"expected {self.expected[k]})")
        return problems


# ----------------------------------------------------------------------
# YCSB with Zipfian keys
# ----------------------------------------------------------------------
class YCSB(Workload):
    """Point reads, read-modify-writes, inserts and short range scans
    over one table, keys drawn Zipfian (theta 0.8, rank = key)."""

    name = "ycsb_zipf_2c"
    clients = 2
    vacuum_every = 400
    latency_slots = ("read", "update")
    rows = 10_000
    theta = 0.8
    scan_window = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{seed}/load")
        self.values = [rng.randrange(1000) for _ in range(self.rows)]
        cdf, acc = [], 0.0
        for rank in range(1, self.rows + 1):
            acc += 1.0 / rank ** self.theta
            cdf.append(acc)
        self._cdf, self._cdf_total = cdf, acc
        self.expected_rows = self.rows
        self.expected_sum = sum(self.values)

    def ddl(self):
        return ["CREATE TABLE usertable (k INT PRIMARY KEY, v INT, pad INT)"]

    def load_statements(self):
        return list(insert_statements(
            "usertable", ["k", "v", "pad"],
            [(k, v, k % 7) for k, v in enumerate(self.values)], chunk=500))

    def _key(self, rng):
        return bisect_left(self._cdf, rng.random() * self._cdf_total)

    def transactions(self, client, rng):
        # Mix: read 50%, read-modify-write 35%, insert 5%, scan 10%.
        inserted = 0
        while True:
            draw = rng.random()
            if draw < 0.50:
                key = self._key(rng)

                def read(sql, key=key):
                    sql(f"SELECT * FROM usertable WHERE k = {key}")
                    return None

                yield "read", False, read
            elif draw < 0.85:
                key, delta = self._key(rng), rng.randrange(1, 10)

                def rmw(sql, key=key, delta=delta):
                    if sql(f"SELECT v FROM usertable WHERE k = {key}"):
                        sql(f"UPDATE usertable SET v = v + {delta} "
                            f"WHERE k = {key}")
                        return 0, delta
                    return None

                yield "update", False, rmw
            elif draw < 0.90:
                # Keys above the loaded range, disjoint per client.
                key = self.rows + client + self.clients * inserted
                inserted += 1
                value = rng.randrange(1000)

                def insert(sql, key=key, value=value):
                    sql(f"INSERT INTO usertable (k, v, pad) "
                        f"VALUES ({key}, {value}, {key % 7})")
                    return 1, value

                yield "insert", False, insert
            else:
                start = self._key(rng)

                def scan(sql, start=start):
                    rows = sql(f"SELECT * FROM usertable WHERE k BETWEEN "
                               f"{start} AND {start + self.scan_window - 1}")
                    sum(r["v"] for r in rows)
                    return None

                yield "scan", False, scan

    def apply(self, effect):
        if effect is not None:
            added_rows, added_sum = effect
            with self._mu:
                self.expected_rows += added_rows
                self.expected_sum += added_sum

    def check(self, sql):
        row = sql("SELECT COUNT(*), SUM(v) FROM usertable")[0]
        problems = []
        if row["count"] != self.expected_rows:
            problems.append(f"usertable has {row['count']} rows, expected "
                            f"{self.expected_rows}")
        if row["sum_v"] != self.expected_sum:
            problems.append(f"sum(v) is {row['sum_v']}, expected "
                            f"{self.expected_sum}")
        return problems


# ----------------------------------------------------------------------
# DBT-2++ (paper section 8.2)
# ----------------------------------------------------------------------
def district_key(w, d):
    return w * 100 + d


def customer_key(w, d, c):
    return district_key(w, d) * 1000 + c


def stock_key(w, i):
    return w * 100_000 + i


def order_key(w, d, o_id):
    return district_key(w, d) * 100_000 + o_id


class DBT2PP(Workload):
    """TPC-C-like mix plus Cahill's credit check, on the durable engine.

    Money is kept in whole units so the ``sum(d_ytd)`` check is exact.
    """

    name = "dbt2pp_durable_2c"
    clients = 2
    durable = True
    vacuum_every = 200
    latency_slots = ("new_order", "payment")
    warehouses, districts, customers, items = 2, 10, 20, 50
    initial_orders = 8
    items_per_order = (3, 6)
    read_only_fraction = 0.08
    remote_fraction = 0.10
    rw_mix = (("new_order", 0.46), ("payment", 0.44), ("delivery", 0.05),
              ("credit_check", 0.05))
    ro_mix = (("order_status", 0.5), ("stock_level", 0.5))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: Sum of committed PAYMENT amounts (d_ytd starts at zero).
        self.paid = 0

    def ddl(self):
        return [
            "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_tax INT)",
            "CREATE TABLE district (d_key INT PRIMARY KEY, w_id INT, "
            "d_id INT, d_next_o_id INT, d_ytd INT)",
            "CREATE TABLE customer (c_key INT PRIMARY KEY, w_id INT, "
            "d_id INT, c_id INT, c_balance INT, c_credit_lim INT, "
            "c_credit TEXT, c_ytd INT)",
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_price INT)",
            "CREATE TABLE stock (s_key INT PRIMARY KEY, w_id INT, i_id INT, "
            "s_quantity INT)",
            "CREATE TABLE orders (o_key INT PRIMARY KEY, d_key INT, "
            "o_id INT, c_key INT, o_carrier INT, o_ol_cnt INT)",
            "CREATE INDEX ON orders (c_key)",
            "CREATE TABLE order_line (ol_key INT PRIMARY KEY, o_key INT, "
            "i_id INT, ol_amount INT, ol_delivered BOOL)",
            "CREATE INDEX ON order_line (o_key)",
            "CREATE TABLE new_order (no_key INT PRIMARY KEY, d_key INT)",
        ]

    def load_statements(self):
        rng = random.Random(f"{self.seed}/load")
        tables: Dict[str, Tuple[List[str], List[tuple]]] = {
            "warehouse": (["w_id", "w_tax"], []),
            "stock": (["s_key", "w_id", "i_id", "s_quantity"], []),
            "district": (["d_key", "w_id", "d_id", "d_next_o_id", "d_ytd"],
                         []),
            "customer": (["c_key", "w_id", "d_id", "c_id", "c_balance",
                          "c_credit_lim", "c_credit", "c_ytd"], []),
            "orders": (["o_key", "d_key", "o_id", "c_key", "o_carrier",
                        "o_ol_cnt"], []),
            "order_line": (["ol_key", "o_key", "i_id", "ol_amount",
                            "ol_delivered"], []),
            "new_order": (["no_key", "d_key"], []),
            "item": (["i_id", "i_price"], []),
        }

        def add(table, *row):
            tables[table][1].append(row)

        for w in range(self.warehouses):
            add("warehouse", w, 5)
            for i in range(self.items):
                add("stock", stock_key(w, i), w, i, 50 + rng.randrange(50))
            for d in range(self.districts):
                dk = district_key(w, d)
                add("district", dk, w, d, self.initial_orders + 1, 0)
                for c in range(self.customers):
                    add("customer", customer_key(w, d, c), w, d, c, 0, 500,
                        "GC", 0)
                for o_id in range(1, self.initial_orders + 1):
                    ok = order_key(w, d, o_id)
                    n_lines = rng.randint(*self.items_per_order)
                    delivered = o_id <= self.initial_orders // 2
                    for line in range(n_lines):
                        add("order_line", ok * 100 + line, ok,
                            rng.randrange(self.items), rng.randint(1, 100),
                            delivered)
                    add("orders", ok, dk, o_id,
                        customer_key(w, d, rng.randrange(self.customers)),
                        7 if delivered else None, n_lines)
                    if not delivered:
                        add("new_order", ok, dk)
        for i in range(self.items):
            add("item", i, 1 + rng.randrange(100))
        out = []
        for table, (columns, rows) in tables.items():
            out.extend(insert_statements(table, columns, rows))
        return out

    @staticmethod
    def _pick(rng, mix):
        draw = rng.random() * sum(w for _n, w in mix)
        for name, weight in mix:
            draw -= weight
            if draw <= 0:
                return name
        return mix[-1][0]

    def transactions(self, client, rng):
        # TPC-C binds each terminal to a home (warehouse, district).
        home = (client % self.warehouses,
                (client // self.warehouses) % self.districts)
        while True:
            read_only = rng.random() < self.read_only_fraction
            kind = self._pick(rng, self.ro_mix if read_only else self.rw_mix)
            if rng.random() < self.remote_fraction:
                w, d = rng.randrange(self.warehouses), rng.randrange(
                    self.districts)
            else:
                w, d = home
            c = rng.randrange(self.customers)
            body = getattr(self, "_" + kind)(rng, w, d, c)
            yield kind, read_only, body

    # -- read/write transactions -------------------------------------
    def _new_order(self, rng, w, d, c):
        lines = tuple((rng.randrange(self.items), rng.randint(1, 5))
                      for _ in range(rng.randint(*self.items_per_order)))
        dk, ck = district_key(w, d), customer_key(w, d, c)

        def body(sql):
            sql(f"SELECT * FROM warehouse WHERE w_id = {w}")
            o_id = sql(f"SELECT * FROM district WHERE d_key = {dk}"
                       )[0]["d_next_o_id"]
            sql(f"UPDATE district SET d_next_o_id = {o_id + 1} "
                f"WHERE d_key = {dk}")
            sql(f"SELECT * FROM customer WHERE c_key = {ck}")
            ok = order_key(w, d, o_id)
            for line, (i_id, qty) in enumerate(lines):
                price = sql(f"SELECT * FROM item WHERE i_id = {i_id}"
                            )[0]["i_price"]
                sk = stock_key(w, i_id)
                quantity = sql(f"SELECT * FROM stock WHERE s_key = {sk}"
                               )[0]["s_quantity"] - qty
                if quantity < 10:
                    quantity += 91
                sql(f"UPDATE stock SET s_quantity = {quantity} "
                    f"WHERE s_key = {sk}")
                sql(f"INSERT INTO order_line (ol_key, o_key, i_id, "
                    f"ol_amount, ol_delivered) VALUES ({ok * 100 + line}, "
                    f"{ok}, {i_id}, {price * qty}, FALSE)")
            sql(f"INSERT INTO orders (o_key, d_key, o_id, c_key, o_carrier, "
                f"o_ol_cnt) VALUES ({ok}, {dk}, {o_id}, {ck}, NULL, "
                f"{len(lines)})")
            sql(f"INSERT INTO new_order (no_key, d_key) VALUES ({ok}, {dk})")
            return None

        return body

    def _payment(self, rng, w, d, c):
        amount = rng.randint(1, 50)
        dk, ck = district_key(w, d), customer_key(w, d, c)

        def body(sql):
            sql(f"UPDATE district SET d_ytd = d_ytd + {amount} "
                f"WHERE d_key = {dk}")
            sql(f"UPDATE customer SET c_balance = c_balance - {amount}, "
                f"c_ytd = c_ytd + {amount} WHERE c_key = {ck}")
            return amount

        return body

    def _delivery(self, rng, w, d, c):
        dk = district_key(w, d)
        lo, hi = dk * 100_000, (dk + 1) * 100_000 - 1

        def body(sql):
            pending = sql(f"SELECT * FROM new_order "
                          f"WHERE no_key BETWEEN {lo} AND {hi}")
            if pending:
                ok = min(p["no_key"] for p in pending)
                sql(f"DELETE FROM new_order WHERE no_key = {ok}")
                sql(f"UPDATE orders SET o_carrier = 7 WHERE o_key = {ok}")
                lines = sql(f"SELECT * FROM order_line WHERE o_key = {ok}")
                total = sum(l["ol_amount"] for l in lines)
                sql(f"UPDATE order_line SET ol_delivered = TRUE "
                    f"WHERE o_key = {ok}")
                ck = sql(f"SELECT * FROM orders WHERE o_key = {ok}"
                         )[0]["c_key"]
                sql(f"UPDATE customer SET c_balance = c_balance + {total} "
                    f"WHERE c_key = {ck}")
            return None

        return body

    def _credit_check(self, rng, w, d, c):
        ck = customer_key(w, d, c)

        def body(sql):
            cust = sql(f"SELECT * FROM customer WHERE c_key = {ck}")[0]
            open_amount = 0
            for order in sql(f"SELECT * FROM orders WHERE c_key = {ck}"):
                if order["o_carrier"] is None:
                    open_amount += sum(
                        l["ol_amount"] for l in sql(
                            f"SELECT * FROM order_line "
                            f"WHERE o_key = {order['o_key']}"))
            status = ("BC" if cust["c_balance"] + open_amount
                      > cust["c_credit_lim"] else "GC")
            sql(f"UPDATE customer SET c_credit = '{status}' "
                f"WHERE c_key = {ck}")
            return None

        return body

    # -- read-only transactions ----------------------------------------
    def _order_status(self, rng, w, d, c):
        ck = customer_key(w, d, c)

        def body(sql):
            sql(f"SELECT * FROM customer WHERE c_key = {ck}")
            orders = sql(f"SELECT * FROM orders WHERE c_key = {ck}")
            if orders:
                last = max(orders, key=lambda o: o["o_id"])
                sql(f"SELECT * FROM order_line WHERE o_key = {last['o_key']}")
            return None

        return body

    def _stock_level(self, rng, w, d, c):
        threshold = rng.randint(30, 60)
        dk = district_key(w, d)

        def body(sql):
            next_o = sql(f"SELECT * FROM district WHERE d_key = {dk}"
                         )[0]["d_next_o_id"]
            lo = order_key(w, d, max(1, next_o - 5)) * 100
            hi = order_key(w, d, next_o) * 100
            lines = sql(f"SELECT * FROM order_line "
                        f"WHERE ol_key BETWEEN {lo} AND {hi}")
            low = 0
            for i_id in sorted({l["i_id"] for l in lines}):
                stock = sql(f"SELECT * FROM stock "
                            f"WHERE s_key = {stock_key(w, i_id)}")
                if stock and stock[0]["s_quantity"] < threshold:
                    low += 1
            return None

        return body

    def apply(self, effect):
        if effect is not None:
            with self._mu:
                self.paid += effect

    def check(self, sql):
        """TPC-C consistency conditions 1-3, plus the payment ledger."""
        problems = []
        next_ids = {r["d_key"]: r["d_next_o_id"] for r in sql(
            "SELECT d_key, d_next_o_id FROM district")}
        max_ids = {r["d_key"]: r["max_o_id"] for r in sql(
            "SELECT d_key, MAX(o_id) FROM orders GROUP BY d_key")}
        for dk, next_id in sorted(next_ids.items()):
            if next_id - 1 != max_ids.get(dk):
                problems.append(f"district {dk}: d_next_o_id - 1 = "
                                f"{next_id - 1} but max(o_id) = "
                                f"{max_ids.get(dk)}")
        undelivered = {r["o_key"] for r in sql(
            "SELECT o_key, o_carrier FROM orders")
            if r["o_carrier"] is None}
        queued = {r["no_key"] for r in sql("SELECT no_key FROM new_order")}
        if undelivered != queued:
            problems.append(
                f"new_order holds {len(queued)} rows but {len(undelivered)} "
                f"orders are undelivered "
                f"({len(queued ^ undelivered)} differ)")
        ytd = sql("SELECT SUM(d_ytd) FROM district")[0]["sum_d_ytd"]
        if ytd != self.paid:
            problems.append(f"sum(d_ytd) = {ytd} but committed payments "
                            f"total {self.paid}")
        return problems


WORKLOADS: Dict[str, type] = {w.name: w for w in (SIBench, YCSB, DBT2PP)}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(f"unknown workload {name!r} "
                         f"(expected one of {sorted(WORKLOADS)})") from None


def percentile(sorted_values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return None
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
