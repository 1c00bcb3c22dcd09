"""``python -m repro.server`` -- stand up a server on a fresh database.

Example (two terminals)::

    $ python -m repro.server --port 5433
    repro server (threaded) listening on 127.0.0.1:5433

    $ printf '%s\\n' \\
        '{"id":1,"op":"hello","isolation":"serializable"}' \\
        '{"id":2,"op":"sql","sql":"CREATE TABLE t (k INT PRIMARY KEY, v INT)"}' \\
        '{"id":3,"op":"sql","sql":"INSERT INTO t VALUES (1, 10)"}' \\
        '{"id":4,"op":"sql","sql":"SELECT * FROM t"}' \\
        '{"id":5,"op":"close"}' | nc 127.0.0.1 5433
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.server.server import ReproServer, ServerConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a repro database over line-delimited JSON.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433)
    parser.add_argument("--mode", choices=("threaded", "asyncio"),
                        default="threaded")
    parser.add_argument("--max-connections", type=int, default=64)
    parser.add_argument("--statement-timeout", type=float, default=None,
                        help="seconds before a parked statement is "
                        "cancelled (55P03/57014); default: wait forever")
    parser.add_argument("--auth-token", default=None,
                        help="require this token in every hello (28P01 "
                        "on mismatch)")
    parser.add_argument("--isolation", default="serializable",
                        help="default isolation for connections whose "
                        "hello names none")
    parser.add_argument("--init-sql", action="append", default=[],
                        metavar="SQL", help="statement to run at startup "
                        "(repeatable), e.g. CREATE TABLE ...")
    args = parser.parse_args(argv)

    db = Database(EngineConfig())
    config = ServerConfig(
        host=args.host, port=args.port, mode=args.mode,
        max_connections=args.max_connections,
        statement_timeout=args.statement_timeout,
        auth_token=args.auth_token,
        default_isolation=args.isolation)
    server = ReproServer(db, config)

    if args.init_sql:
        from repro.engine.isolation import IsolationLevel
        es = server.engine.open_session(IsolationLevel.SERIALIZABLE)
        for sql in args.init_sql:
            server.engine.execute(es, sql)
        server.engine.close_session(es)

    server.start()
    host, port = server.address
    print(f"repro server ({config.mode}) listening on {host}:{port}",
          flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        leaks = server.stop()
        if leaks["threads"] or leaks["connections"]:
            print(f"leak report: {leaks}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
