"""Static multi-client transaction programs.

The explorer needs programs it can re-execute deterministically and
serialize into replay files, so programs here are *data*, not Python
generators: a :class:`Program` is an initial database state plus, per
client, a list of transactions, each a list of :class:`Stmt` statement
descriptors. Statements support just enough dataflow for the paper's
canonical anomalies:

* a ``guard`` makes a statement conditional on the row count of an
  earlier statement's result (the doctors example's "IF on-call >= 2");
* value references (``ref(stmt, field)``) feed a field read earlier in
  the same transaction into a later WHERE clause or INSERT row (the
  batch-processing example's "insert into batch x");
* ``add(field, by)`` in an UPDATE computes ``row[field] + by`` (the
  batch-closing "batch = batch + 1").

Everything round-trips through plain-JSON dicts (see DESIGN.md,
"Schedule exploration" for the format), which is what the replay files
under tests/explore_corpus/ contain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import EngineConfig, SanitizerConfig
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.engine.predicate import AlwaysTrue, Between, Eq, Predicate
from repro.sim import ops

#: Statement kinds a program may contain (begin/commit are implicit:
#: every transaction opens with BEGIN and closes with COMMIT).
DML_KINDS = ("select", "select_for_update", "insert", "update", "delete")


# ---------------------------------------------------------------------------
# value encoding: literals, back-references, and field arithmetic
# ---------------------------------------------------------------------------
def ref(stmt: int, fld: str, add: int = 0) -> Dict[str, Any]:
    """Value of ``fld`` in the first row returned by statement ``stmt``
    of the same transaction (0-based), plus ``add``."""
    return {"$ref": {"stmt": stmt, "field": fld, "add": add}}


def add(fld: str, by: int) -> Dict[str, Any]:
    """UPDATE set-value: current row's ``fld`` plus ``by``."""
    return {"$add": {"field": fld, "by": by}}


def _resolve(value: Any, results: List[Any]) -> Any:
    """Resolve a value encoding against earlier statement results."""
    if isinstance(value, dict) and "$ref" in value:
        spec = value["$ref"]
        rows = results[spec["stmt"]]
        return rows[0][spec["field"]] + spec.get("add", 0)
    return value


def _set_fn(updates: Dict[str, Any], results: List[Any]):
    """Compile an UPDATE's SET clause into the engine's updates arg."""
    if any(isinstance(v, dict) and "$add" in v for v in updates.values()):
        def compute(row, updates=updates, results=results):
            out = {}
            for col, value in updates.items():
                if isinstance(value, dict) and "$add" in value:
                    spec = value["$add"]
                    out[col] = row[spec["field"]] + spec["by"]
                else:
                    out[col] = _resolve(value, results)
            return out
        return compute
    return {col: _resolve(v, results) for col, v in updates.items()}


def _where(encoded, results: List[Any]) -> Predicate:
    if encoded is None:
        return AlwaysTrue()
    kind = encoded[0]
    if kind == "eq":
        return Eq(encoded[1], _resolve(encoded[2], results))
    if kind == "between":
        return Between(encoded[1], _resolve(encoded[2], results),
                       _resolve(encoded[3], results))
    raise ValueError(f"unknown where encoding {encoded!r}")


# ---------------------------------------------------------------------------
# program model
# ---------------------------------------------------------------------------
@dataclass
class Stmt:
    """One DML statement of a transaction program."""

    op: str
    table: str
    #: Encoded predicate: None | ["eq", col, v] | ["between", col, lo, hi].
    where: Optional[list] = None
    #: INSERT row (values may be encoded).
    row: Optional[Dict[str, Any]] = None
    #: UPDATE set clause (values may be encoded, incl. ``$add``).
    set: Optional[Dict[str, Any]] = None
    #: Conditional execution: {"stmt": i, "min_rows": n, "max_rows": m}
    #: -- run only if the row count of statement i's result is in range.
    guard: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": self.op, "table": self.table}
        for key in ("where", "row", "set", "guard"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Stmt":
        if d["op"] not in DML_KINDS:
            raise ValueError(f"unknown statement op {d['op']!r}")
        return Stmt(op=d["op"], table=d["table"], where=d.get("where"),
                    row=d.get("row"), set=d.get("set"), guard=d.get("guard"))

    def guard_passes(self, results: List[Any]) -> bool:
        if self.guard is None:
            return True
        rows = results[self.guard["stmt"]]
        if not isinstance(rows, list):
            return False  # guarded on a skipped/non-SELECT statement
        n = len(rows)
        if n < self.guard.get("min_rows", 0):
            return False
        return n <= self.guard.get("max_rows", n)

    def to_op(self, results: List[Any]) -> ops.Op:
        if self.op == "select":
            return ops.select(self.table, self._pred(results))
        if self.op == "select_for_update":
            return ops.select_for_update(self.table, self._pred(results))
        if self.op == "insert":
            return ops.insert(self.table, {col: _resolve(v, results)
                                           for col, v in self.row.items()})
        if self.op == "update":
            return ops.update(self.table, self._pred(results),
                              _set_fn(self.set, results))
        if self.op == "delete":
            return ops.delete(self.table, self._pred(results))
        raise ValueError(f"unknown statement op {self.op!r}")

    def _pred(self, results: List[Any]) -> Optional[Predicate]:
        return _where(self.where, results) if self.where is not None else None


@dataclass
class Txn:
    """One transaction: implicit BEGIN, statements, implicit COMMIT."""

    stmts: List[Stmt]
    read_only: bool = False

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"stmts": [s.to_dict() for s in self.stmts]}
        if self.read_only:
            out["read_only"] = True
        return out

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Txn":
        return Txn(stmts=[Stmt.from_dict(s) for s in d["stmts"]],
                   read_only=bool(d.get("read_only", False)))


@dataclass
class TableSpec:
    name: str
    columns: List[str]
    key: Optional[str] = None
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Extra secondary indexes: list of column names.
    indexes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "columns": self.columns,
                               "rows": self.rows}
        if self.key is not None:
            out["key"] = self.key
        if self.indexes:
            out["indexes"] = self.indexes
        return out

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "TableSpec":
        return TableSpec(name=d["name"], columns=list(d["columns"]),
                         key=d.get("key"), rows=list(d.get("rows", [])),
                         indexes=list(d.get("indexes", [])))


def txn_name(cid: int, idx: int) -> str:
    """Stable name for transaction ``idx`` of client ``cid`` (used to
    map committed transactions back to program positions)."""
    return f"c{cid}.t{idx}"


@dataclass
class Program:
    """Initial state plus one statement list per client."""

    tables: List[TableSpec]
    clients: List[List[Txn]]

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "tables": [t.to_dict() for t in self.tables],
            "clients": [[txn.to_dict() for txn in txns]
                        for txns in self.clients],
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Program":
        return Program(
            tables=[TableSpec.from_dict(t) for t in d["tables"]],
            clients=[[Txn.from_dict(txn) for txn in txns]
                     for txns in d["clients"]])

    # -- structure --------------------------------------------------------
    def txn_count(self) -> int:
        return sum(len(txns) for txns in self.clients)

    def stmt_count(self) -> int:
        """Explicit DML statements (excludes implicit begin/commit)."""
        return sum(len(txn.stmts) for txns in self.clients for txn in txns)

    def all_txns(self) -> List[Tuple[str, Txn]]:
        out = []
        for cid, txns in enumerate(self.clients):
            for idx, txn in enumerate(txns):
                out.append((txn_name(cid, idx), txn))
        return out

    # -- execution --------------------------------------------------------
    def build_db(self, *, record_history: bool = True,
                 sanitize: bool = False,
                 analyze: bool = False,
                 config: Optional[EngineConfig] = None) -> Database:
        """Fresh database loaded with the initial state.

        ``analyze`` collects catalog statistics after the initial load
        so the cost planner has something to price with (the planner
        differential suite runs the same program with and without);
        ``config`` replaces the whole EngineConfig (the durability
        differential tests run programs against a disk-backed engine).
        """
        if config is None:
            config = EngineConfig(record_history=record_history)
        if sanitize:
            config.sanitize = SanitizerConfig.all_on(sweep_interval=4)
        db = Database(config)
        for spec in self.tables:
            db.create_table(spec.name, spec.columns, key=spec.key)
            for column in spec.indexes:
                db.create_index(spec.name, column)
            if spec.rows:
                session = db.session()
                session.begin()
                for row in spec.rows:
                    session.insert(spec.name, dict(row))
                session.commit()
        if analyze:
            db.analyze()
        return db

    def run_txn_directly(self, session, txn: Txn,
                         isolation: IsolationLevel) -> None:
        """Execute one transaction serially on a plain session (no
        scheduler) -- the serial-execution oracle's building block."""
        session.begin(isolation, read_only=txn.read_only)
        results: List[Any] = []
        for stmt in txn.stmts:
            if not stmt.guard_passes(results):
                results.append(None)
                continue
            op = stmt.to_op(results)
            results.append(getattr(session, op.method)(*op.args, **op.kwargs))
        session.commit()
