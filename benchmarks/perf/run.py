#!/usr/bin/env python
"""Wall-clock benchmarks of the real stack beyond the simulator.

Dependency-free (stdlib only). One section, ``group_commit``
(concurrent committers on a durable database with real fsyncs, group
commit on vs off), written as JSON to BENCH_PERF.json at the repo root.

The sharding section (``shards``) is written by shard_bench.py. The
standing end-to-end performance guard is e2ebench/: its ``sibench_1c``
workload measures SIBENCH through the TCP server with repeats and
spread.

Usage:
    python benchmarks/perf/run.py [--quick] [-o OUTPUT.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

import shutil  # noqa: E402
import tempfile  # noqa: E402

from repro.analysis import ANALYSIS_VERSION  # noqa: E402
from repro.analysis.sanitize import ENV_FLAG  # noqa: E402
from repro.config import DurabilityConfig, EngineConfig  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.server import ReproServer, ServerConfig, connect  # noqa: E402


# ----------------------------------------------------------------------
# group-commit throughput (real fsyncs, threaded server)
# ----------------------------------------------------------------------
def group_commit_bench(*, n_clients: int, txns_per_client: int,
                       group_commit: bool) -> dict:
    """Concurrent single-row-insert committers through the TCP server
    against a *really durable* database (synchronous_commit on, real
    fsync per commit). With group commit, backends queue behind one
    fsync leader (the server releases the engine latch around the
    flush); without it every commit pays its own fsync. The delta is
    the paper's walwriter batching win."""
    data_dir = tempfile.mkdtemp(prefix="repro-groupcommit-")
    db = Database(EngineConfig.durable(
        data_dir,
        durability=DurabilityConfig(group_commit=group_commit)))
    assert db.sanitizers is None, (
        f"sanitizers are enabled (is {ENV_FLAG} exported?); "
        f"unset it before benchmarking")
    server = ReproServer(db, ServerConfig(
        port=0, max_connections=n_clients + 2)).start()
    try:
        boot = connect(server.address)
        boot.sql("CREATE TABLE gc (k INT PRIMARY KEY, c INT)")
        boot.close()
        errors = []
        barrier = threading.Barrier(n_clients + 1)

        def worker(i: int) -> None:
            try:
                client = connect(server.address)
                barrier.wait()
                for j in range(txns_per_client):
                    client.sql(f"INSERT INTO gc (k, c) VALUES "
                               f"({i * 1_000_000 + j}, {i})")
                client.close()
            except Exception as exc:
                errors.append((i, exc))
                try:
                    barrier.abort()
                except Exception:
                    pass

        threads = [threading.Thread(target=worker, args=(i,),
                                    name=f"gc-client-{i}")
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise RuntimeError(f"group-commit clients failed: {errors}")
        mgr = db.durability
        commits = n_clients * txns_per_client
        stats = {
            "group_commit": group_commit,
            "clients": n_clients,
            "commits": commits,
            "seconds": elapsed,
            "commits_per_s": commits / elapsed if elapsed else None,
            "wal_records": mgr.wal.records,
            "wal_fsyncs": mgr.wal.flushes,
            "piggybacked": mgr.wal.piggybacked,
            "commits_per_fsync": (commits / mgr.wal.flushes
                                  if mgr.wal.flushes else None),
        }
    finally:
        server.stop()
        db.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return stats


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes (CI smoke run)")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: BENCH_PERF.json at "
                             "the repo root)")
    args = parser.parse_args(argv)

    if args.quick:
        params = {"gc_clients": 3, "gc_txns": 10}
    else:
        params = {"gc_clients": 8, "gc_txns": 25}

    # Group commit on vs off: same concurrent commit load with real
    # per-commit fsyncs; the delta is one leader fsync amortizing many
    # waiters vs one fsync per commit.
    group_commit_results = {}
    for flag in (True, False):
        result = group_commit_bench(n_clients=params["gc_clients"],
                                    txns_per_client=params["gc_txns"],
                                    group_commit=flag)
        group_commit_results["on" if flag else "off"] = result
        cpf = result["commits_per_fsync"]
        print(f"      group_commit [{'on ' if flag else 'off'}]  "
              f"{result['commits_per_s']:8.1f} commit/s  "
              f"fsyncs {result['wal_fsyncs']:5d}  "
              f"commits/fsync {cpf:6.2f}")
    on, off = group_commit_results["on"], group_commit_results["off"]
    group_commit_results["speedup"] = (
        on["commits_per_s"] / off["commits_per_s"]
        if off["commits_per_s"] else None)

    out = {
        "meta": {
            "quick": args.quick,
            "analysis_version": ANALYSIS_VERSION,
            "sanitizers": "off (asserted)",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "params": params,
        },
        # Durable WAL group commit: on vs off under concurrent
        # committers with real fsyncs.
        "group_commit": group_commit_results,
    }
    repo_root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, os.pardir)
    path = args.output or os.path.join(repo_root, "BENCH_PERF.json")
    if os.path.exists(path):
        # Keep the section shard_bench.py owns.
        with open(path) as fh:
            previous = json.load(fh)
        if "shards" in previous:
            out["shards"] = previous["shards"]
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
