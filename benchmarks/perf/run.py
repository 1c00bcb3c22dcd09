#!/usr/bin/env python
"""Wall-clock benchmarks of the real stack beyond the simulator.

Dependency-free (stdlib only). Three sections, written as JSON to
BENCH_PERF.json at the repo root:

* ``server``: SIBENCH through the TCP server at 1/4/16 clients
  (client-side p50/p95/p99 latency and throughput);
* ``group_commit``: concurrent committers on a durable database with
  real fsyncs, group commit on vs off;
* ``fig5b_disk``: the Figure 5(b) disk-bound DBT-2++ point with the
  durability layer doing real page and WAL IO under the simulated
  cost model.

The sharding section (``shards``) is written by shard_bench.py. The
standing end-to-end performance guard is e2ebench/.

Usage:
    python benchmarks/perf/run.py [--quick] [-o OUTPUT.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
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
from repro.engine.isolation import IsolationLevel  # noqa: E402
from repro.server import ReproServer, ServerConfig, connect  # noqa: E402
from repro.workloads.base import run_workload  # noqa: E402
from repro.workloads.dbt2pp import DBT2PP  # noqa: E402

ISOLATION = {
    "SI": IsolationLevel.REPEATABLE_READ,
    "SSI": IsolationLevel.SERIALIZABLE,
}


# ----------------------------------------------------------------------
# benchmark 1: SIBENCH through the real network server (multi-client
# latency: p50/p95/p99 per transaction plus end-to-end throughput)
# ----------------------------------------------------------------------
def _quantile_ms(sorted_seconds, q: float) -> float:
    idx = min(len(sorted_seconds) - 1,
              max(0, int(q * len(sorted_seconds) + 0.999999) - 1))
    return sorted_seconds[idx] * 1000.0


def server_sibench(*, n_clients: int, txns_per_client: int,
                   table_size: int, mode: str = "threaded") -> dict:
    """The SIBENCH mix (half single-key updates, half full-table
    min-scans, all SERIALIZABLE) driven by ``n_clients`` real OS
    threads through the TCP server. Latency is measured client-side
    per committed transaction, *including* any serialization-failure
    retries the client library performed -- that is the latency an
    application experiences under SSI (paper section 8.1)."""
    db = Database(EngineConfig())
    assert db.sanitizers is None, (
        f"sanitizers are enabled (is {ENV_FLAG} exported?); "
        f"unset it before benchmarking")
    server = ReproServer(db, ServerConfig(
        port=0, mode=mode, max_connections=n_clients + 2)).start()
    boot = connect(server.address)
    boot.sql("CREATE TABLE sibench (k INT PRIMARY KEY, v INT)")
    seed_rng = random.Random(7)
    boot.sql("INSERT INTO sibench (k, v) VALUES "
             + ", ".join(f"({k}, {seed_rng.randrange(10_000)})"
                         for k in range(table_size)))
    boot.close()

    latencies = [[] for _ in range(n_clients)]
    retries = [0] * n_clients
    errors = []
    barrier = threading.Barrier(n_clients + 1)

    def worker(i: int) -> None:
        rng = random.Random(100 + i)
        try:
            client = connect(server.address, isolation="serializable",
                             backoff_base=0.001, backoff_cap=0.05)
            barrier.wait()
            for _ in range(txns_per_client):
                t0 = time.perf_counter()
                if rng.random() < 0.5:
                    key = rng.randrange(table_size)
                    value = rng.randrange(10_000)
                    client.run_transaction(
                        lambda c, k=key, v=value: c.sql(
                            f"UPDATE sibench SET v = {v} WHERE k = {k}"),
                        max_retries=100)
                else:
                    client.run_transaction(
                        lambda c: min(c.sql("SELECT * FROM sibench"),
                                      key=lambda r: (r["v"], r["k"])),
                        read_only=True, max_retries=100)
                latencies[i].append(time.perf_counter() - t0)
            retries[i] = client.retries
            client.close()
        except Exception as exc:
            errors.append((i, exc))
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [threading.Thread(target=worker, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait()  # all clients connected: clock only the steady state
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    leaks = server.stop()
    if errors:
        raise RuntimeError(f"server bench clients failed: {errors}")
    if leaks["threads"] or leaks["connections"]:
        raise RuntimeError(f"server bench leaked: {leaks}")

    all_lat = sorted(lat for per_client in latencies for lat in per_client)
    total = len(all_lat)
    return {
        "mode": mode,
        "clients": n_clients,
        "transactions": total,
        "seconds": elapsed,
        "throughput_txn_s": total / elapsed if elapsed else None,
        "latency_ms": {
            "p50": _quantile_ms(all_lat, 0.50),
            "p95": _quantile_ms(all_lat, 0.95),
            "p99": _quantile_ms(all_lat, 0.99),
            "mean": sum(all_lat) / total * 1000.0,
            "max": all_lat[-1] * 1000.0,
        },
        "retries": sum(retries),
    }


# ----------------------------------------------------------------------
# benchmark 2: group-commit throughput (real fsyncs, threaded server)
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
# benchmark 3: fig5b DBT-2++ disk configuration on the real durability
# layer (the simulated disk-bound series, now doing actual page/WAL IO)
# ----------------------------------------------------------------------
def fig5b_disk_durable(isolation: IsolationLevel, *,
                       max_ticks: float) -> dict:
    """The paper's figure 5(b) disk-bound DBT-2++ point, run against a
    disk-backed engine: small buffer pool + per-miss charge for the
    *simulated* throughput figure, with the durability layer doing real
    page-file and WAL writes underneath (fsync off: the simulated
    scheduler serializes clients, so per-commit fsync stalls would
    measure the disk, not the engine)."""
    data_dir = tempfile.mkdtemp(prefix="repro-fig5b-")
    cfg = EngineConfig.disk_bound(io_miss=10.0, buffer_pages=96)
    cfg.durability = DurabilityConfig(
        enabled=True, data_dir=data_dir, fsync=False,
        max_dirty_pages=96, checkpoint_wal_bytes=1 << 20)
    db = Database(cfg)
    assert db.sanitizers is None, (
        f"sanitizers are enabled (is {ENV_FLAG} exported?); "
        f"unset it before benchmarking")
    try:
        start = time.perf_counter()
        result = run_workload(DBT2PP(), isolation=isolation, n_clients=4,
                              max_ticks=max_ticks, seed=7, db=db)
        elapsed = time.perf_counter() - start
        mgr = db.durability
        io = mgr.io
        stats = {
            "seconds": elapsed,
            "committed": result.commits,
            "txns_per_ktick": result.throughput,
            "durable_io": {
                "wal_records": mgr.wal.records,
                "wal_bytes": mgr.wal.end_lsn,
                "wal_fsyncs": mgr.wal.flushes,
                "page_writes": io.writes,
                "bytes_written": io.bytes_written,
                "checkpoints": mgr.checkpoints,
            },
        }
    finally:
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
        params = {"server_txns": 12, "server_table": 30,
                  "gc_clients": 3, "gc_txns": 10,
                  "fig5b_disk_ticks": 2000.0}
    else:
        params = {"server_txns": 40, "server_table": 100,
                  "gc_clients": 8, "gc_txns": 25,
                  "fig5b_disk_ticks": 8000.0}

    # SIBENCH through the real TCP server at 1/4/16 concurrent clients.
    server_results = {}
    for n in (1, 4, 16):
        result = server_sibench(n_clients=n,
                                txns_per_client=params["server_txns"],
                                table_size=params["server_table"])
        server_results[str(n)] = result
        lat = result["latency_ms"]
        print(f"    server_sibench [{n:>2} clients]  "
              f"p50 {lat['p50']:7.2f}ms  p95 {lat['p95']:7.2f}ms  "
              f"p99 {lat['p99']:7.2f}ms  "
              f"{result['throughput_txn_s']:7.1f} txn/s  "
              f"retries {result['retries']}")

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

    # Figure 5(b): the disk-bound DBT-2++ series with the durability
    # layer doing real page/WAL IO underneath the simulated cost model.
    fig5b_disk = {}
    for series, iso in ISOLATION.items():
        result = fig5b_disk_durable(iso, max_ticks=params["fig5b_disk_ticks"])
        fig5b_disk[series] = result
        io = result["durable_io"]
        print(f"       fig5b_disk [{series:>3}]  "
              f"{result['txns_per_ktick']:6.2f} txn/ktick  "
              f"wal {io['wal_bytes'] / 1024:7.0f}KiB  "
              f"page writes {io['page_writes']:5d}  "
              f"wall {result['seconds']:.2f}s")

    out = {
        "meta": {
            "quick": args.quick,
            "analysis_version": ANALYSIS_VERSION,
            "sanitizers": "off (asserted)",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "params": params,
            "series": list(ISOLATION),
        },
        # Multi-client latency through the real network server
        # (keyed by client count; latency_ms has p50/p95/p99).
        "server": {"sibench": server_results},
        # Durable WAL group commit: on vs off under concurrent
        # committers with real fsyncs.
        "group_commit": group_commit_results,
        # Figure 5(b) disk configuration on the real durability layer
        # (simulated txn/ktick + the actual IO the run performed).
        "fig5b_disk": fig5b_disk,
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
