"""The benchmark's server launcher: one ReproServer in its own process.

Run by ``run.py``, never by hand::

    python e2ebench/server.py --workload NAME [--trace] [--data-dir DIR]
                              [--reopen] [--dump PATH]

It builds the workload's engine configuration, optionally installs the
layer tracer (before the database exists, so every hot-path reference
the engine binds is already the wrapped one), starts the server on an
ephemeral port and prints ``{"port": N}``. It then answers one JSON
line on stdout per command read from stdin:

* ``begin`` -- quiescent point before the timed phase: reset the
  tracer window; reply with the process CPU seconds so far;
* ``cpu`` -- the process CPU seconds so far (clients may be running);
* ``end`` -- quiescent point after the timed phase: CPU seconds,
  resident memory, and (traced) the window's aggregates;
* ``stop`` -- stop the server, report leaks and fatal errors, and
  (traced) dump the metrics registry and spans to ``--dump`` and
  cross-check the registry against the tracer's counts.

End of input is treated as ``stop``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from typing import Any, Dict

from layertrace import Tracer  # the script's directory is sys.path[0]

#: Group-commit durable configuration of dbt2pp_durable_2c: every
#: commit waits for its WAL fsync; a checkpoint every 1 MiB of WAL,
#: about one per five seconds, so each timed window sees a checkpoint
#: and its cost is not an accident of where one happens to fall.
CHECKPOINT_WAL_BYTES = 1 << 20


def engine_config(durable: bool, data_dir: str):
    from repro.config import DurabilityConfig, EngineConfig
    if not durable:
        return EngineConfig()
    return EngineConfig.durable(data_dir, durability=DurabilityConfig(
        synchronous_commit=True, fsync=True, group_commit=True,
        full_page_writes=True, checkpoint_wal_bytes=CHECKPOINT_WAL_BYTES))


def rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def crosscheck(db, registry: Dict[str, Any], life: Dict[str, int]
               ) -> Dict[str, Any]:
    """Tracer lifetime counts against the engine's own counters.

    WAL fsyncs are compared with the WAL file's own ``flushes`` count:
    the registry's ``durable.wal_fsyncs`` adds the change in that count
    across each committer's flush call, so two committers whose calls
    overlap one fsync both count it. The registry value is reported
    alongside, not checked.
    """
    wal = db.durability.wal.flushes if db.durability is not None else 0
    pairs = [
        ("sql.parse", "perf.parse_cache_misses",
         registry.get("perf.parse_cache_misses", 0)),
        ("engine.commits_ok", "engine.commits",
         registry.get("engine.commits", 0)),
        ("durable.wal_fsyncs", "WALFile.flushes", wal),
    ]
    out: Dict[str, Any] = {
        f"{traced}={engine}": {"traced": life.get(traced, 0),
                               "engine": value,
                               "ok": life.get(traced, 0) == value}
        for traced, engine, value in pairs}
    out["durable.wal_fsyncs=registry durable.wal_fsyncs"] = {
        "traced": life.get("durable.wal_fsyncs", 0),
        "engine": registry.get("durable.wal_fsyncs", 0), "ok": None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/server.py")
    parser.add_argument("--durable", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--data-dir", default="")
    parser.add_argument("--reopen", action="store_true",
                        help="recover the durable database in --data-dir")
    parser.add_argument("--dump", default="")
    args = parser.parse_args(argv)

    tracer = Tracer().install() if args.trace else None

    from repro.engine.database import Database
    from repro.server.server import ReproServer, ServerConfig
    from repro.storage.durable import open_database

    config = engine_config(args.durable, args.data_dir)
    db = (open_database(args.data_dir, config) if args.reopen
          else Database(config))
    if db.sanitizers is not None:
        print("sanitizers are enabled in the server (is REPRO_SANITIZE "
              "exported?); refusing to measure", file=sys.stderr)
        return 3
    server = ReproServer(db, ServerConfig(
        port=0, max_connections=4, default_isolation="serializable"))
    server.start()

    def reply(payload: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"port": server.address[1]})
    status = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "begin":
            if tracer is not None:
                tracer.reset_window()
            reply({"cpu_s": cpu_seconds()})
        elif command == "cpu":
            reply({"cpu_s": cpu_seconds()})
        elif command == "end":
            payload = {"cpu_s": cpu_seconds(), "rss_mb": rss_mb()}
            if tracer is not None:
                payload["trace"] = tracer.window()
            reply(payload)
        elif command == "stop":
            break
        else:
            reply({"error": f"unknown command {command!r}"})
    leaks = server.stop()
    payload = {"leaks": leaks, "fatal_errors": [
        repr(e) for e in server.fatal_errors]}
    if leaks["threads"] or leaks["connections"] or server.fatal_errors:
        status = 1
    if tracer is not None:
        registry = dict(db.obs.metrics.snapshot())
        life = tracer.lifetime()
        payload["crosscheck"] = crosscheck(db, registry, life)
        if any(c["ok"] is False for c in payload["crosscheck"].values()):
            status = 1
        if args.dump:
            with open(args.dump, "w") as f:
                json.dump({"registry": registry, "lifetime": life,
                           "dropped_spans": tracer.dropped(),
                           "spans": tracer.spans()}, f)
    reply(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
