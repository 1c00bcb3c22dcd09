"""SQL execution: compile ASTs onto the Session API.

The statement hot path is cached at two levels (see DESIGN.md, "Query
planning"):

* a per-session LRU **parse cache** (SQL text -> AST; the AST nodes
  are frozen dataclasses, so sharing them across executions is safe);
* **prepared statements** (``PREPARE name AS ... / EXECUTE name(...)``)
  whose generic plan is re-derived only when the stats epoch moved --
  ANALYZE and DDL bump the epoch, flushing stale plans exactly like
  PostgreSQL's plancache invalidation. The scan choice itself is
  additionally memoized in the engine-level plan cache
  (repro.engine.planner), which both cached and ad-hoc statements hit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import operators
from repro.engine import predicate as P
from repro.engine.isolation import IsolationLevel
from repro.errors import ReproError, UserError
from repro.locks.modes import LockMode
from repro.sql import ast
from repro.sql.lexer import SQLSyntaxError
from repro.sql.parser import parse

#: Parse-cache capacity (statement strings per session).
PARSE_CACHE_SIZE = 256

_ISOLATION = {
    "read committed": IsolationLevel.READ_COMMITTED,
    "repeatable read": IsolationLevel.REPEATABLE_READ,
    "serializable": IsolationLevel.SERIALIZABLE,
    "s2pl": IsolationLevel.S2PL,
}

_LOCK_MODES = {
    "ACCESS SHARE": LockMode.ACCESS_SHARE,
    "ROW SHARE": LockMode.ROW_SHARE,
    "ROW EXCLUSIVE": LockMode.ROW_EXCLUSIVE,
    "SHARE UPDATE EXCLUSIVE": LockMode.SHARE_UPDATE_EXCLUSIVE,
    "SHARE": LockMode.SHARE,
    "SHARE ROW EXCLUSIVE": LockMode.SHARE_ROW_EXCLUSIVE,
    "EXCLUSIVE": LockMode.EXCLUSIVE,
    "ACCESS EXCLUSIVE": LockMode.ACCESS_EXCLUSIVE,
}

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a is not None and b is not None and a < b,
    "<=": lambda a, b: a is not None and b is not None and a <= b,
    ">": lambda a, b: a is not None and b is not None and a > b,
    ">=": lambda a, b: a is not None and b is not None and a >= b,
}


def eval_expr(expr, row: Dict[str, Any]) -> Any:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return row.get(expr.name)
    if isinstance(expr, ast.BinaryOp):
        left = eval_expr(expr.left, row)
        right = eval_expr(expr.right, row)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        raise SQLSyntaxError(f"unsupported operator {expr.op!r}")
    raise SQLSyntaxError(f"cannot evaluate {expr!r}")


def _is_const(expr) -> bool:
    return isinstance(expr, ast.Literal)


def compile_condition(cond) -> P.Predicate:
    """Compile to an engine predicate; sargable comparisons become the
    structured predicates the planner can turn into index scans,
    anything else becomes a Func filter (a sequential scan)."""
    if cond is None:
        return P.AlwaysTrue()
    if isinstance(cond, ast.Comparison):
        left, right, op = cond.left, cond.right, cond.op
        if _is_const(left) and isinstance(right, ast.ColumnRef):
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            left, right = right, left
            op = flip.get(op, op)
        if isinstance(left, ast.ColumnRef) and _is_const(right):
            value = right.value
            classes = {"=": P.Eq, "<>": P.Ne, "<": P.Lt, "<=": P.Le,
                       ">": P.Gt, ">=": P.Ge}
            return classes[op](left.name, value)
        compare = _COMPARATORS[op]
        return P.Func(lambda row, l=left, r=right, c=compare:
                      c(eval_expr(l, row), eval_expr(r, row)),
                      description=f"{left} {op} {right}")
    if isinstance(cond, ast.BetweenCond):
        if isinstance(cond.column, ast.ColumnRef) and _is_const(cond.lo) \
                and _is_const(cond.hi):
            return P.Between(cond.column.name, cond.lo.value, cond.hi.value)
        return P.Func(lambda row, c=cond:
                      eval_expr(c.lo, row) <= eval_expr(c.column, row)
                      <= eval_expr(c.hi, row))
    if isinstance(cond, ast.AndCond):
        return P.And(*(compile_condition(part) for part in cond.parts))
    if isinstance(cond, ast.OrCond):
        return P.Or(*(compile_condition(part) for part in cond.parts))
    if isinstance(cond, ast.NotCond):
        inner = compile_condition(cond.inner)
        return P.Func(lambda row, p=inner: not p.matches(row),
                      description=f"NOT {inner!r}")
    raise SQLSyntaxError(f"cannot compile condition {cond!r}")


# -- condition analysis (join planning support) ----------------------------
def _conjuncts(cond) -> List[Any]:
    """Flatten nested ANDs into a conjunct list (source order)."""
    if cond is None:
        return []
    if isinstance(cond, ast.AndCond):
        out: List[Any] = []
        for part in cond.parts:
            out.extend(_conjuncts(part))
        return out
    return [cond]


def _expr_columns(expr, acc: List[str]) -> None:
    if isinstance(expr, ast.ColumnRef):
        acc.append(expr.name)
    elif isinstance(expr, ast.BinaryOp):
        _expr_columns(expr.left, acc)
        _expr_columns(expr.right, acc)


def _cond_columns(cond) -> List[str]:
    """Every column name referenced by a condition, in source order."""
    acc: List[str] = []

    def walk(c) -> None:
        if isinstance(c, ast.Comparison):
            _expr_columns(c.left, acc)
            _expr_columns(c.right, acc)
        elif isinstance(c, ast.BetweenCond):
            _expr_columns(c.column, acc)
            _expr_columns(c.lo, acc)
            _expr_columns(c.hi, acc)
        elif isinstance(c, ast.NotCond):
            walk(c.inner)
        elif isinstance(c, (ast.AndCond, ast.OrCond)):
            for part in c.parts:
                walk(part)

    walk(cond)
    return acc


def _map_expr_columns(expr, fn: Callable[[str], str]):
    if isinstance(expr, ast.ColumnRef):
        return ast.ColumnRef(fn(expr.name))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _map_expr_columns(expr.left, fn),
                            _map_expr_columns(expr.right, fn))
    return expr


def _map_cond_columns(cond, fn: Callable[[str], str]):
    """Rewrite every ColumnRef name through ``fn`` (used to strip table
    qualifiers before compiling single-table predicates)."""
    if cond is None:
        return None
    if isinstance(cond, ast.Comparison):
        return ast.Comparison(cond.op, _map_expr_columns(cond.left, fn),
                              _map_expr_columns(cond.right, fn))
    if isinstance(cond, ast.BetweenCond):
        return ast.BetweenCond(_map_expr_columns(cond.column, fn),
                               _map_expr_columns(cond.lo, fn),
                               _map_expr_columns(cond.hi, fn))
    if isinstance(cond, ast.NotCond):
        return ast.NotCond(_map_cond_columns(cond.inner, fn))
    if isinstance(cond, ast.AndCond):
        return ast.AndCond(tuple(_map_cond_columns(p, fn)
                                 for p in cond.parts))
    if isinstance(cond, ast.OrCond):
        return ast.OrCond(tuple(_map_cond_columns(p, fn)
                                for p in cond.parts))
    return cond


def _base_name(name: str) -> str:
    """``t.c`` -> ``c``; unqualified names pass through."""
    return name.split(".", 1)[1] if "." in name else name


def _order_key(column: str):
    """ORDER BY sort key with PostgreSQL NULL placement: NULLs sort
    last ascending (and, via ``reverse=``, first descending)."""
    def key(row):
        value = row.get(column)
        return (value is None, value)
    return key


def _strip_prefix(name: str, table: str) -> str:
    if name.startswith(table + "."):
        return name[len(table) + 1:]
    return name


def _dequalify_select(stmt: ast.Select) -> ast.Select:
    """For single-table SELECTs, strip ``table.`` qualifiers so the
    engine sees plain column names; a qualifier naming any other table
    is an error (there is no FROM-clause entry for it)."""
    names = _cond_columns(stmt.where) + _cond_columns(stmt.having)
    names += [i.column for i in stmt.items if i.column is not None]
    names += list(stmt.group_by)
    if stmt.order_by is not None:
        names.append(stmt.order_by)
    if not any("." in n for n in names):
        return stmt

    def fn(name: str) -> str:
        if "." not in name:
            return name
        t, c = name.split(".", 1)
        if t != stmt.table:
            raise SQLSyntaxError(
                f"missing FROM-clause entry for table {t!r}")
        return c

    items = tuple(
        ast.SelectItem(i.kind,
                       fn(i.column) if i.column is not None else None,
                       i.func, i.alias)
        for i in stmt.items)
    return ast.Select(
        items, stmt.table, _map_cond_columns(stmt.where, fn),
        fn(stmt.order_by) if stmt.order_by is not None else None,
        stmt.descending, stmt.limit, stmt.for_update, stmt.joins,
        tuple(fn(g) for g in stmt.group_by),
        _map_cond_columns(stmt.having, fn))


def _equi_key(cond, acc, right_table: str,
              resolve: Callable[[str], str]):
    """``(left_owner, left_col, right_col)`` when ``cond`` is an
    equality between a column of an already-joined table and a column
    of ``right_table``; None otherwise."""
    if not isinstance(cond, ast.Comparison) or cond.op != "=":
        return None
    lhs, rhs = cond.left, cond.right
    if not (isinstance(lhs, ast.ColumnRef)
            and isinstance(rhs, ast.ColumnRef)):
        return None
    lt, rt = resolve(lhs.name), resolve(rhs.name)
    if lt in acc and rt == right_table:
        return (lt, _base_name(lhs.name), _base_name(rhs.name))
    if rt in acc and lt == right_table:
        return (rt, _base_name(rhs.name), _base_name(lhs.name))
    return None


@dataclass
class _JoinStep:
    """One left-deep join step: ``(accumulated) JOIN table``."""

    table: str
    #: Equi-key: owning table / raw column of the left side, raw column
    #: on the right table (all None for a keyless cross/filter join).
    l_owner: Optional[str] = None
    l_col: Optional[str] = None
    r_col: Optional[str] = None
    #: Residual predicate over combined rows (None when none apply).
    residual: Optional[P.Predicate] = None


@dataclass
class _JoinPlan:
    """The analyzed shape of a join query, shared by execution and
    EXPLAIN so both always agree."""

    tables: List[str]
    rels: Dict[str, Any]
    #: Column names owned by more than one table (never exposed
    #: unqualified on combined rows).
    ambiguous: set
    #: Per-table pushed-down scan predicate (AlwaysTrue when none).
    scan_preds: Dict[str, P.Predicate]
    steps: List[_JoinStep] = field(default_factory=list)


def _make_combine(left_tables: List[str], right_table: str, rels,
                  ambiguous) -> Callable:
    """Build the row combiner for one join step.

    Combined rows carry every column under its qualified
    ``table.column`` name plus, for columns owned by exactly one
    table, the bare name -- so residuals, HAVING, ORDER BY and
    projection can use whichever spelling the query wrote.
    """
    rcols = list(rels[right_table].columns)
    rqual = [f"{right_table}.{c}" for c in rcols]
    if len(left_tables) == 1:
        lt = left_tables[0]
        lcols = list(rels[lt].columns)
        lqual = [f"{lt}.{c}" for c in lcols]

        def combine(l_row, r_row):
            out: Dict[str, Any] = {}
            for c, q in zip(lcols, lqual):
                v = l_row.get(c)
                out[q] = v
                if c not in ambiguous:
                    out[c] = v
            for c, q in zip(rcols, rqual):
                v = r_row.get(c)
                out[q] = v
                if c not in ambiguous:
                    out[c] = v
            return out
        return combine

    def combine(l_row, r_row):
        out = dict(l_row)
        for c, q in zip(rcols, rqual):
            v = r_row.get(c)
            out[q] = v
            if c not in ambiguous:
                out[c] = v
        return out
    return combine


# -- prepared-statement parameter binding ---------------------------------
def _bind_expr(expr, args: Tuple[Any, ...]):
    if isinstance(expr, ast.Param):
        if expr.index > len(args):
            raise UserError(
                f"there is no parameter ${expr.index} "
                f"({len(args)} supplied)")
        return ast.Literal(args[expr.index - 1])
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _bind_expr(expr.left, args),
                            _bind_expr(expr.right, args))
    return expr


def _bind_cond(cond, args: Tuple[Any, ...]):
    if cond is None:
        return None
    if isinstance(cond, ast.Comparison):
        return ast.Comparison(cond.op, _bind_expr(cond.left, args),
                              _bind_expr(cond.right, args))
    if isinstance(cond, ast.BetweenCond):
        return ast.BetweenCond(_bind_expr(cond.column, args),
                               _bind_expr(cond.lo, args),
                               _bind_expr(cond.hi, args))
    if isinstance(cond, ast.NotCond):
        return ast.NotCond(_bind_cond(cond.inner, args))
    if isinstance(cond, ast.AndCond):
        return ast.AndCond(tuple(_bind_cond(p, args) for p in cond.parts))
    if isinstance(cond, ast.OrCond):
        return ast.OrCond(tuple(_bind_cond(p, args) for p in cond.parts))
    return cond


def bind_statement(stmt, args: Tuple[Any, ...]):
    """Substitute $n parameters with the EXECUTE arguments, returning a
    parameter-free statement of the same shape."""
    if isinstance(stmt, ast.Select):
        joins = tuple(ast.Join(j.table, _bind_cond(j.on, args))
                      for j in stmt.joins)
        return ast.Select(stmt.items, stmt.table,
                          _bind_cond(stmt.where, args), stmt.order_by,
                          stmt.descending, stmt.limit, stmt.for_update,
                          joins, stmt.group_by,
                          _bind_cond(stmt.having, args))
    if isinstance(stmt, ast.Update):
        assignments = tuple((col, _bind_expr(expr, args))
                            for col, expr in stmt.assignments)
        return ast.Update(stmt.table, assignments,
                          _bind_cond(stmt.where, args))
    if isinstance(stmt, ast.Delete):
        return ast.Delete(stmt.table, _bind_cond(stmt.where, args))
    if isinstance(stmt, ast.Insert):
        rows = tuple(tuple(_bind_expr(v, args) for v in row)
                     for row in stmt.rows)
        return ast.Insert(stmt.table, stmt.columns, rows)
    if args:
        raise UserError(
            f"{type(stmt).__name__} statements take no parameters")
    return stmt


@dataclass
class PreparedStatement:
    """One PREPARE'd statement and its cached generic plan."""

    name: str
    statement: Any
    #: Stats epoch the cached plan was derived under; a mismatch at
    #: EXECUTE time forces a replan (ANALYZE/DDL invalidation).
    plan_epoch: int = -1
    #: The generic plan summary (a repro.engine.planner.PlanNode) for
    #: plannable statements; None until first EXECUTE or after
    #: invalidation.
    plan: Any = None


class SQLSession:
    """Execute SQL text against one engine session.

    ``execute`` returns a list of row dicts for SELECT, an affected-row
    count for INSERT/UPDATE/DELETE, and None for other statements.
    """

    def __init__(self, session) -> None:
        self.session = session
        self.db = session.db
        self._parse_cache: "OrderedDict[str, Any]" = OrderedDict()
        metrics = self.db.obs.metrics
        self._parse_hits = metrics.counter("perf.parse_cache_hits")
        self._parse_misses = metrics.counter("perf.parse_cache_misses")
        self._prepared_replans = metrics.counter("sql.prepared_replans")
        self._prepared: Dict[str, PreparedStatement] = {}

    def execute(self, sql: str):
        statement = self._parse(sql)
        handler = getattr(self, "_do_" + type(statement).__name__.lower())
        return handler(statement)

    def _parse(self, sql: str):
        """Parse with the LRU statement cache (ASTs are frozen, so a
        cached statement is safe to re-execute)."""
        cached = self._parse_cache.get(sql)
        if cached is not None:
            self._parse_cache.move_to_end(sql)
            self._parse_hits.inc()
            return cached
        self._parse_misses.inc()
        statement = parse(sql)
        self._parse_cache[sql] = statement
        if len(self._parse_cache) > PARSE_CACHE_SIZE:
            self._parse_cache.popitem(last=False)
        return statement

    # -- DML -----------------------------------------------------------------
    def _do_select(self, stmt: ast.Select):
        if stmt.for_update and (stmt.joins or stmt.group_by):
            raise SQLSyntaxError(
                "FOR UPDATE is not allowed with JOIN or GROUP BY")
        if stmt.joins:
            rows = self._join_rows(stmt)
            copied = True  # combine() built fresh dicts
        else:
            stmt = _dequalify_select(stmt)
            where = compile_condition(stmt.where)
            if (not stmt.for_update
                    and not stmt.group_by and stmt.order_by is None
                    and stmt.items
                    and all(i.kind == "aggregate" for i in stmt.items)):
                # Aggregate pushdown: fold during the scan, never
                # materializing the row list. Matches the fold-after-
                # scan path value-for-value (BatchAggregator docstring);
                # ORDER BY disables it only because sorting the input
                # can change which of several equal-comparing objects
                # MIN/MAX return first.
                specs = [(item.func, item.column) for item in stmt.items]
                values = self.session.scan_aggregate(
                    stmt.table, specs, where)
                return [{self._agg_name(item): value
                         for item, value in zip(stmt.items, values)}]
            if stmt.for_update:
                rows = self.session.select_for_update(stmt.table, where)
                copied = True
            else:
                # Zero-copy scan: rows alias live heap tuple payloads.
                # Every downstream consumer here only reads them; the
                # star projection below copies before returning.
                rows = self.session.scan_rows(stmt.table, where)
                copied = False
        if stmt.group_by:
            grouped = self._grouped_rows(stmt, rows)
            if stmt.order_by is not None:
                key = stmt.order_by
                if grouped and key not in grouped[0]:
                    key = _base_name(key)
                grouped.sort(key=_order_key(key), reverse=stmt.descending)
            if stmt.limit is not None:
                grouped = grouped[:stmt.limit]
            return grouped
        if stmt.order_by is not None:
            rows.sort(key=_order_key(stmt.order_by),
                      reverse=stmt.descending)
        if any(item.kind == "aggregate" for item in stmt.items):
            return [self._aggregate_row(stmt.items, rows)]
        if stmt.limit is not None:
            rows = rows[:stmt.limit]
        if all(item.kind == "star" for item in stmt.items):
            return rows if copied else [dict(r) for r in rows]
        projected = []
        for row in rows:
            out: Dict[str, Any] = {}
            for item in stmt.items:
                if item.kind == "star":
                    out.update(row)
                else:
                    out[item.alias or item.column] = row.get(item.column)
            projected.append(out)
        return projected

    # -- join execution ----------------------------------------------------
    def _analyze_join(self, stmt: ast.Select) -> _JoinPlan:
        """Classify WHERE/ON conjuncts into per-table pushdowns,
        equi-join keys and residual filters over a left-deep join tree
        in FROM order. Pure analysis -- execution and EXPLAIN both
        consume the result, so they cannot disagree."""
        tables = [stmt.table] + [j.table for j in stmt.joins]
        if len(set(tables)) != len(tables):
            raise SQLSyntaxError(
                "table name repeated in FROM/JOIN "
                "(table aliases are not supported)")
        rels = {t: self.db.relation(t) for t in tables}
        owners: Dict[str, List[str]] = {}
        for t in tables:
            for c in rels[t].columns:
                owners.setdefault(c, []).append(t)
        ambiguous = {c for c, ts in owners.items() if len(ts) > 1}

        def resolve(name: str) -> str:
            if "." in name:
                t, c = name.split(".", 1)
                if t not in rels:
                    raise SQLSyntaxError(
                        f"missing FROM-clause entry for table {t!r}")
                if c not in rels[t].columns:
                    raise SQLSyntaxError(
                        f"column {c!r} of table {t!r} does not exist")
                return t
            ts = owners.get(name)
            if not ts:
                raise SQLSyntaxError(f"column {name!r} does not exist")
            if len(ts) > 1:
                raise SQLSyntaxError(
                    f"column reference {name!r} is ambiguous")
            return ts[0]

        # The select list resolves against the same namespace as the
        # conditions, so bare references to columns owned by more than
        # one table are rejected up front (PostgreSQL's "column
        # reference is ambiguous"), not silently projected as NULL.
        for item in stmt.items:
            if item.kind != "star" and item.column is not None:
                resolve(item.column)

        pool = list(_conjuncts(stmt.where))
        for join in stmt.joins:
            pool.extend(_conjuncts(join.on))

        single: Dict[str, List[Any]] = {t: [] for t in tables}
        cross: List[Tuple[set, Any]] = []
        for cond in pool:
            ts = {resolve(n) for n in _cond_columns(cond)}
            if len(ts) <= 1:
                # Single-table conjunct: push into that table's scan
                # (qualifier stripped so And.index_range's
                # equality-preference applies as on any base scan).
                target = next(iter(ts)) if ts else tables[0]
                single[target].append(_map_cond_columns(
                    cond, lambda n, t=target: _strip_prefix(n, t)))
            else:
                cross.append((ts, cond))

        def compiled(conds: List[Any]) -> P.Predicate:
            if len(conds) == 1:
                return compile_condition(conds[0])
            return compile_condition(ast.AndCond(tuple(conds)))

        scan_preds = {t: (compiled(single[t]) if single[t]
                          else P.AlwaysTrue()) for t in tables}

        plan = _JoinPlan(tables, rels, ambiguous, scan_preds)
        acc = {tables[0]}
        remaining = cross
        for right_table in tables[1:]:
            avail = acc | {right_table}
            key = None
            residuals: List[Any] = []
            rest: List[Tuple[set, Any]] = []
            for ts, cond in remaining:
                if not ts <= avail:
                    rest.append((ts, cond))
                    continue
                pair = (None if key is not None
                        else _equi_key(cond, acc, right_table, resolve))
                if pair is not None:
                    key = pair
                else:
                    residuals.append(cond)
            plan.steps.append(_JoinStep(
                right_table,
                l_owner=key[0] if key else None,
                l_col=key[1] if key else None,
                r_col=key[2] if key else None,
                residual=compiled(residuals) if residuals else None))
            acc.add(right_table)
            remaining = rest
        return plan

    def _join_step_choice(self, plan: _JoinPlan, step: _JoinStep,
                          n_left: int):
        """The planner's algorithm/build-side verdict for one step."""
        planner = self.db.planner
        t0 = plan.tables[0]
        left_choice = (planner.choose(plan.rels[t0], plan.scan_preds[t0])
                       if n_left == 1 else None)
        right_choice = planner.choose(plan.rels[step.table],
                                      plan.scan_preds[step.table])
        left_rel = plan.rels[step.l_owner] if step.l_owner else plan.rels[t0]
        return planner.plan_join(left_rel, plan.rels[step.table],
                                 step.l_col, step.r_col,
                                 left_choice, right_choice)

    def _join_rows(self, stmt: ast.Select) -> List[Dict[str, Any]]:
        plan = self._analyze_join(stmt)

        def scan(table: str):
            return self.session.scan_rows(table, plan.scan_preds[table])

        rows = scan(plan.tables[0])
        left_tables = [plan.tables[0]]
        for step in plan.steps:
            right_rows = scan(step.table)
            combine = _make_combine(left_tables, step.table, plan.rels,
                                    plan.ambiguous)
            cond = (step.residual.matches if step.residual is not None
                    else (lambda row: True))
            if step.l_col is not None:
                # First step joins two base scans (bare column names);
                # later steps read the qualified name off combined rows.
                lname = (step.l_col if len(left_tables) == 1
                         else f"{step.l_owner}.{step.l_col}")
                lkey = lambda r, n=lname: r.get(n)  # noqa: E731
                rkey = lambda r, n=step.r_col: r.get(n)  # noqa: E731
            else:
                lkey = rkey = None
            choice = self._join_step_choice(plan, step, len(left_tables))
            if choice.algorithm == "hash":
                rows = operators.hash_join(rows, right_rows, lkey, rkey,
                                           cond, combine,
                                           build=choice.build)
            elif choice.algorithm == "merge":
                rows = operators.merge_join(rows, right_rows, lkey, rkey,
                                            cond, combine)
            else:
                rows = operators.nested_loop_join(rows, right_rows, lkey,
                                                  rkey, cond, combine)
            left_tables.append(step.table)
        return rows

    # -- grouping ----------------------------------------------------------
    def _grouped_rows(self, stmt: ast.Select,
                      rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        group_cols = list(stmt.group_by)
        groups = operators.hash_group(rows, group_cols)
        having = (compile_condition(stmt.having)
                  if stmt.having is not None else None)
        bases = {_base_name(g) for g in group_cols} | set(group_cols)
        out_rows: List[Dict[str, Any]] = []
        for key, grows in groups:
            keyvals = dict(zip(group_cols, key))
            out: Dict[str, Any] = {}
            defaults: Dict[str, Any] = {}
            for item in stmt.items:
                if item.kind == "star":
                    raise SQLSyntaxError("cannot use * with GROUP BY")
                if item.kind == "aggregate":
                    default = (item.func.lower()
                               + (f"_{item.column}" if item.column else ""))
                    value = operators.aggregate_value(item.func,
                                                      item.column, grows)
                    defaults[default] = value
                    out[item.alias or default] = value
                else:
                    if (item.column not in group_cols
                            and _base_name(item.column) not in bases):
                        raise SQLSyntaxError(
                            f"column {item.column!r} must appear in the "
                            f"GROUP BY clause or be used in an aggregate")
                    value = (keyvals[item.column]
                             if item.column in keyvals
                             else grows[0].get(item.column) if grows
                             else None)
                    out[item.alias or _base_name(item.column)] = value
            if having is not None:
                # HAVING sees group columns (any spelling, via a sample
                # group row) plus aggregate outputs under their default
                # names (the parser compiles COUNT(*) in HAVING to the
                # column ref "count") and any aliases.
                env = dict(grows[0]) if grows else dict(keyvals)
                env.update(defaults)
                env.update(out)
                if not having.matches(env):
                    continue
            out_rows.append(out)
        return out_rows

    @staticmethod
    def _agg_name(item) -> str:
        """Output column name of an aggregate select item (the default
        the parser also uses for aggregate refs in HAVING)."""
        return item.alias or (item.func.lower()
                              + (f"_{item.column}" if item.column else ""))

    @staticmethod
    def _aggregate_row(items, rows) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for item in items:
            if item.kind != "aggregate":
                raise SQLSyntaxError(
                    "cannot mix aggregates with plain columns "
                    "(no GROUP BY support)")
            func = item.func
            name = SQLSession._agg_name(item)
            if func == "COUNT":
                value = (len(rows) if item.column is None else
                         sum(1 for r in rows if r.get(item.column)
                             is not None))
            else:
                column = item.column
                values = [v for r in rows
                          if (v := r.get(column)) is not None]
                if not values:
                    value = None
                elif func == "SUM":
                    value = sum(values)
                elif func == "MIN":
                    value = min(values)
                elif func == "MAX":
                    value = max(values)
                elif func == "AVG":
                    value = sum(values) / len(values)
                else:  # pragma: no cover - parser restricts
                    raise SQLSyntaxError(f"unknown aggregate {func}")
            out[name] = value
        return out

    def _do_insert(self, stmt: ast.Insert) -> int:
        rows = [{column: eval_expr(value, {})
                 for column, value in zip(stmt.columns, values)}
                for values in stmt.rows]
        # Autocommit: the statement's rows commit or fail together.
        atomic = len(rows) > 1 and not self.session.in_transaction()
        if atomic:
            self.session.begin()
        try:
            for row in rows:
                self.session.insert(stmt.table, row)
        except ReproError:
            if atomic:
                self.session.rollback()
            raise
        if atomic:
            self.session.commit()
        return len(rows)

    def _do_update(self, stmt: ast.Update) -> int:
        where = compile_condition(stmt.where)
        assignments = stmt.assignments

        def updater(row: Dict[str, Any]) -> Dict[str, Any]:
            return {column: eval_expr(expr, row)
                    for column, expr in assignments}

        return self.session.update(stmt.table, where, updater)

    def _do_delete(self, stmt: ast.Delete) -> int:
        return self.session.delete(stmt.table, compile_condition(stmt.where))

    # -- DDL --------------------------------------------------------------------
    def _do_createtable(self, stmt: ast.CreateTable):
        self.db.create_table(stmt.name, stmt.columns, key=stmt.primary_key)

    def _do_createindex(self, stmt: ast.CreateIndex):
        self.db.create_index(stmt.table, stmt.column, name=stmt.name,
                             unique=stmt.unique, using=stmt.using)

    def _do_dropindex(self, stmt: ast.DropIndex):
        self.session.drop_index(stmt.name)

    # -- transaction control -------------------------------------------------------
    def _do_begin(self, stmt: ast.Begin):
        isolation = _ISOLATION[stmt.isolation] if stmt.isolation else None
        self.session.begin(isolation, read_only=stmt.read_only,
                           deferrable=stmt.deferrable)

    def _do_commit(self, stmt: ast.Commit):
        self.session.commit()

    def _do_rollback(self, stmt: ast.Rollback):
        self.session.rollback()

    def _do_savepoint(self, stmt: ast.Savepoint):
        self.session.savepoint(stmt.name)

    def _do_rollbackto(self, stmt: ast.RollbackTo):
        self.session.rollback_to_savepoint(stmt.name)

    def _do_releasesavepoint(self, stmt: ast.ReleaseSavepoint):
        self.session.release_savepoint(stmt.name)

    def _do_preparetransaction(self, stmt: ast.PrepareTransaction):
        self.session.prepare_transaction(stmt.gid)

    def _do_commitprepared(self, stmt: ast.CommitPrepared):
        self.db.commit_prepared(stmt.gid)

    def _do_rollbackprepared(self, stmt: ast.RollbackPrepared):
        self.db.rollback_prepared(stmt.gid)

    def _do_locktable(self, stmt: ast.LockTable):
        try:
            mode = _LOCK_MODES[stmt.mode]
        except KeyError:
            raise SQLSyntaxError(f"unknown lock mode {stmt.mode!r}") from None
        self.session.lock_table(stmt.table, mode)

    def _do_vacuum(self, stmt: ast.Vacuum):
        self.db.vacuum(stmt.table)

    # -- planner statements --------------------------------------------------------
    def _do_analyze(self, stmt: ast.Analyze):
        return self.db.analyze(stmt.table)

    def _do_explain(self, stmt: ast.Explain):
        """EXPLAIN [ANALYZE]: returns the deterministic plan tree as a
        list of text lines (PostgreSQL's one-column result shape)."""
        inner = stmt.statement
        if isinstance(inner, ast.ExecuteStmt):
            entry = self._get_prepared(inner.name)
            args = tuple(eval_expr(arg, {}) for arg in inner.args)
            inner = bind_statement(entry.statement, args)
        node = self._plan_tree(inner)
        if node is None:
            raise SQLSyntaxError(
                f"cannot EXPLAIN a {type(inner).__name__} statement")
        if stmt.analyze:
            buf = self.db.buffer
            pages_before = buf.hits + buf.misses
            handler = getattr(self, "_do_" + type(inner).__name__.lower())
            result = handler(inner)
            node.actual_pages = (buf.hits + buf.misses) - pages_before
            node.actual_rows = (len(result) if isinstance(result, list)
                                else int(result or 0))
        return node.render()

    def _plan_tree(self, stmt):
        """The plan the executor would use for ``stmt`` (None when the
        statement kind is not plannable)."""
        from repro.engine.planner import PlanNode, explain_scan

        def scan_node(table: str, where) -> PlanNode:
            return explain_scan(self.db, self.db.relation(table),
                                compile_condition(where))

        if isinstance(stmt, ast.Select):
            if stmt.joins:
                node = self._join_plan_node(stmt)
                label = ",".join([stmt.table]
                                 + [j.table for j in stmt.joins])
            else:
                stmt = _dequalify_select(stmt)
                node = scan_node(stmt.table, stmt.where)
                label = stmt.table
            if stmt.group_by:
                node = PlanNode(
                    "HashAggregate", label,
                    detail="group by " + ", ".join(stmt.group_by),
                    children=[node])
                if stmt.order_by is not None:
                    node = PlanNode("Sort", label, children=[node])
                if stmt.limit is not None:
                    node = PlanNode("Limit", label, children=[node])
                return node
            if stmt.order_by is not None:
                node = PlanNode("Sort", label, children=[node])
            if any(item.kind == "aggregate" for item in stmt.items):
                node = PlanNode("Aggregate", label, children=[node])
            if stmt.limit is not None:
                node = PlanNode("Limit", label, children=[node])
            return node
        if isinstance(stmt, ast.Update):
            return PlanNode("Update", stmt.table,
                            children=[scan_node(stmt.table, stmt.where)])
        if isinstance(stmt, ast.Delete):
            return PlanNode("Delete", stmt.table,
                            children=[scan_node(stmt.table, stmt.where)])
        if isinstance(stmt, ast.Insert):
            return PlanNode("Insert", stmt.table)
        return None

    def _join_plan_node(self, stmt: ast.Select):
        """EXPLAIN subtree for a join query: the same _analyze_join /
        plan_join calls the executor makes, rendered as nested plan
        nodes (join condition + hash build side in the detail)."""
        from repro.engine.planner import PlanNode, explain_scan

        plan = self._analyze_join(stmt)
        t0 = plan.tables[0]
        node = explain_scan(self.db, plan.rels[t0], plan.scan_preds[t0])
        left_tables = [t0]
        for step in plan.steps:
            right_node = explain_scan(self.db, plan.rels[step.table],
                                      plan.scan_preds[step.table])
            choice = self._join_step_choice(plan, step, len(left_tables))
            details = []
            if step.l_col is not None:
                details.append(f"{step.l_owner}.{step.l_col} = "
                               f"{step.table}.{step.r_col}")
            if choice.algorithm == "hash":
                details.append(f"build={choice.build}")
            if step.residual is not None:
                details.append("with residual filter")
            kwargs: Dict[str, Any] = {}
            if choice.est_rows is not None and choice.cost is not None:
                kwargs.update(est_rows=choice.est_rows, est_pages=0.0,
                              cost=choice.cost)
            node = PlanNode(choice.node_name,
                            ",".join(left_tables + [step.table]),
                            source=choice.source,
                            detail=" ".join(details) or None,
                            children=[node, right_node], **kwargs)
            left_tables.append(step.table)
        return node

    # -- prepared statements -------------------------------------------------------
    def _do_preparestmt(self, stmt: ast.PrepareStmt):
        if stmt.name in self._prepared:
            raise UserError(
                f"prepared statement {stmt.name!r} already exists")
        if isinstance(stmt.statement,
                      (ast.PrepareStmt, ast.ExecuteStmt, ast.Explain)):
            raise SQLSyntaxError(
                f"cannot prepare a {type(stmt.statement).__name__} "
                f"statement")
        self._prepared[stmt.name] = PreparedStatement(stmt.name,
                                                      stmt.statement)

    def _do_executestmt(self, stmt: ast.ExecuteStmt):
        entry = self._get_prepared(stmt.name)
        args = tuple(eval_expr(arg, {}) for arg in stmt.args)
        bound = bind_statement(entry.statement, args)
        self._refresh_plan(entry, bound)
        handler = getattr(self, "_do_" + type(bound).__name__.lower())
        return handler(bound)

    def _do_deallocate(self, stmt: ast.Deallocate):
        if stmt.name is None:
            self._prepared.clear()
            return
        if self._prepared.pop(stmt.name, None) is None:
            raise UserError(
                f"prepared statement {stmt.name!r} does not exist")

    def _get_prepared(self, name: str) -> PreparedStatement:
        try:
            return self._prepared[name]
        except KeyError:
            raise UserError(
                f"prepared statement {name!r} does not exist") from None

    def _refresh_plan(self, entry: PreparedStatement, bound) -> None:
        """Re-derive the generic plan when the stats epoch moved
        (ANALYZE/DDL invalidation); otherwise reuse it untouched."""
        epoch = self.db.statscat.epoch
        if entry.plan is not None and entry.plan_epoch == epoch:
            return
        if isinstance(bound, (ast.Select, ast.Update, ast.Delete,
                              ast.Insert)):
            if entry.plan is not None:
                self._prepared_replans.inc()
            entry.plan = self._plan_tree(bound)
            entry.plan_epoch = epoch

    def prepared_plan(self, name: str):
        """The cached generic plan of a prepared statement (tests and
        introspection; None before the first EXECUTE)."""
        return self._get_prepared(name).plan
