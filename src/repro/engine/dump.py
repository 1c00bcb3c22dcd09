"""pg_dump-style consistent dumps.

Section 4.3 motivates deferrable transactions with exactly this tool:
"periodic database maintenance tasks, such as backups using
PostgreSQL's pg_dump utility, may also use long-running transactions",
and section 2.2 notes that even a read-only pg_dump "can expose
anomalous states of the database" under snapshot isolation.

:func:`dump_sql` therefore runs under ``BEGIN SERIALIZABLE READ ONLY,
DEFERRABLE``: it waits for a safe snapshot, then scans every table
with zero SSI overhead and zero abort risk, producing a SQL script
that :func:`restore_sql` replays into an empty database.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.engine.isolation import IsolationLevel
from repro.sql.executor import SQLSession


def _literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_literal(v) for v in value) + ")"
    if isinstance(value, (int, float)):
        return repr(value)
    raise TypeError(f"cannot dump value of type {type(value).__name__}")


def dump_sql(db, *, session=None, deferrable: bool = True) -> List[str]:
    """Produce a consistent SQL script for the whole database.

    Uses a DEFERRABLE read-only serializable transaction by default;
    under the deterministic scheduler the BEGIN suspends until a safe
    snapshot arrives (direct callers with idle databases proceed
    immediately, the "important special case" of section 4.2).
    """
    statements: List[str] = []
    own_session = session is None
    if session is None:
        session = db.session()
    session.begin(IsolationLevel.SERIALIZABLE, read_only=True,
                  deferrable=deferrable)
    try:
        for name in sorted(db.relations()):
            rel = db.relations()[name]
            columns = ", ".join(rel.columns)
            statements.append(f"CREATE TABLE {name} ({columns})")
            for index in rel.indexes.values():
                unique = "UNIQUE " if index.unique else ""
                statements.append(
                    f"CREATE {unique}INDEX {index.name} ON {name} "
                    f"({index.column}) USING {index.using.upper()}")
            for row in session.select(name):
                cols = ", ".join(rel.columns)
                values = ", ".join(_literal(row.get(c)) for c in rel.columns)
                statements.append(
                    f"INSERT INTO {name} ({cols}) VALUES ({values})")
    finally:
        if session.in_transaction():
            session.commit()
    return statements


def restore_sql(db, statements: List[str]) -> None:
    """Replay a dump into an (empty) database."""
    sql = SQLSession(db.session())
    for statement in statements:
        sql.execute(statement)
