#!/usr/bin/env python
"""DBT-2++ scale-up across 1/2/4/8 shards (wall-clock).

Runs the DBT-2++ mix (TPC-C + Cahill's credit check) against a
:class:`ThreadedShardedDatabase` whose shard engines are durable, with
``synchronous_commit`` on, group commit off, and a **modeled WAL flush
latency**: every fsync sleeps a fixed few milliseconds with the GIL
released, standing in for a dedicated storage device per shard. That
makes the measurement disk-bound and host-independent -- N shards mean
N WAL devices flushing in parallel, which is the resource sharding
actually scales on one machine (the Python interpreter itself is still
one GIL).

Load scales with the deployment, exactly as TPC-C drives terminals in
proportion to configured warehouses: ``--clients-per-shard`` client
threads per shard (total clients = per_shard x n_shards), each running
the same number of transactions. Throughput (commits/s) is the
comparable metric. The modeled latency is applied *after* seed loading
so setup cost never pollutes the measurement; fsync counters are
likewise reported as measured-phase deltas.

Tables are distributed by warehouse (the shard-key extractor of
``repro.shard.partition``), so most transactions are single-shard and
commit locally with no decision record; item lookups and range scans
still fan out, so the run also exercises 2PC + global certification
under SERIALIZABLE.

Results go into BENCH_PERF.json under the "shards" key
(read-modify-write, like the other perf suites). The companion gate
(shard_gate.py) fails CI if 4-shard throughput falls under 2x 1-shard.

Usage:
    python benchmarks/perf/shard_bench.py [--quick] [-o OUTPUT.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from repro.analysis.sanitize import ENV_FLAG  # noqa: E402
from repro.config import DurabilityConfig, EngineConfig  # noqa: E402
from repro.engine.isolation import IsolationLevel  # noqa: E402
from repro.errors import RetryableError  # noqa: E402
from repro.shard.database import ShardedDatabase  # noqa: E402
from repro.shard.threaded import ThreadedShardedDatabase  # noqa: E402
from repro.workloads.dbt2pp import DBT2PP  # noqa: E402

#: Warehouse extractors for DBT-2++'s flattened integer keys (see the
#: key-layout table in repro/workloads/dbt2pp.py). `item` is a shared
#: catalog and stays hashed by i_id.
AFFINITY = {
    "warehouse": lambda k: k,
    "district": lambda k: k // 100,
    "customer": lambda k: k // 100_000,
    "stock": lambda k: k // 100_000,
    "orders": lambda k: k // 10_000_000,
    "order_line": lambda k: k // 1_000_000_000,
    "new_order": lambda k: k // 10_000_000,
}


class _AffinityDDL:
    """Setup-time proxy: injects the warehouse shard key into the
    workload's unchanged ``create_table`` calls."""

    def __init__(self, sdb: ShardedDatabase) -> None:
        self._sdb = sdb

    def create_table(self, name, columns, key=None):
        return self._sdb.create_table(name, columns, key,
                                      shard_key=AFFINITY.get(name))

    def __getattr__(self, attr):
        return getattr(self._sdb, attr)


def build(n_shards: int, data_dir: str, scale: dict,
          flush_latency: float) -> ShardedDatabase:
    configs = [
        EngineConfig(durability=DurabilityConfig(
            enabled=True,
            data_dir=os.path.join(data_dir, f"s{i}"),
            synchronous_commit=True,
            group_commit=False,
            # The modeled latency is the device; a real fsync on the CI
            # runner's page cache would just add noise under it.
            fsync=False))
        for i in range(n_shards)]
    sdb = ShardedDatabase(n_shards, configs)
    workload = DBT2PP(**scale)
    workload.setup(_AffinityDDL(sdb), random.Random(7))
    # Seed loading ran at zero latency; the modeled device kicks in
    # only for the measured phase.
    for db in sdb.shards:
        db.durability.io.flush_latency = flush_latency
    sdb.workload = workload  # type: ignore[attr-defined]
    return sdb


def run_program(session, program) -> None:
    """Drive one ops-generator transaction against a sharded session."""
    gen = program()
    value = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration:
            return
        value = getattr(session, op.method)(*op.args, **op.kwargs)


def bench(n_shards: int, *, scale: dict, clients_per_shard: int,
          txns_per_client: int, flush_latency: float,
          max_retries: int = 40) -> dict:
    clients = clients_per_shard * n_shards
    data_dir = tempfile.mkdtemp(prefix=f"shardbench{n_shards}_")
    sdb = build(n_shards, data_dir, scale, flush_latency)
    tdb = ThreadedShardedDatabase(sdb)
    workload: DBT2PP = sdb.workload  # type: ignore[attr-defined]
    iso = IsolationLevel.SERIALIZABLE
    fsync_base = sum(db.durability.io.fsyncs for db in sdb.shards
                     if db.durability is not None)
    start_gate = threading.Barrier(clients + 1)
    committed = [0] * clients
    retried = [0] * clients
    errors = []

    def client(idx: int) -> None:
        rng = random.Random(1000 + idx)
        session = tdb.session(iso)
        try:
            start_gate.wait()
            for _ in range(txns_per_client):
                _kind, program = workload.next_transaction(rng, iso)
                attempts = 0
                while True:
                    try:
                        run_program(session, program)
                        committed[idx] += 1
                        break
                    except RetryableError:
                        if session.in_transaction():
                            session.rollback()
                        attempts += 1
                        retried[idx] += 1
                        if attempts > max_retries:
                            raise
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(clients)]
    for t in threads:
        t.start()
    start_gate.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - t0
    if errors:
        raise errors[0]

    total = sum(committed)
    fsyncs = sum(db.durability.io.fsyncs for db in sdb.shards
                 if db.durability is not None) - fsync_base
    two_pc = len(sdb.coordinator.log)
    stats = sdb.certifier.stats()
    tdb.close()
    sdb.close()
    shutil.rmtree(data_dir, ignore_errors=True)
    return {
        "shards": n_shards,
        "clients": clients,
        "commits": total,
        "retries": sum(retried),
        "seconds": seconds,
        "commits_per_s": total / seconds if seconds else 0.0,
        "wal_fsyncs": fsyncs,
        "two_phase_commits": two_pc,
        "fast_path_commits": total - two_pc,
        "certifier_txns": stats.get("txns", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale for CI smoke")
    parser.add_argument("--shards", type=int, nargs="*",
                        default=[1, 2, 4, 8])
    parser.add_argument("--clients-per-shard", type=int, default=2,
                        help="client threads per shard (load scales with "
                             "the deployment, like TPC-C terminals)")
    parser.add_argument("--txns", type=int, default=None,
                        help="transactions per client")
    parser.add_argument("--flush-latency", type=float, default=0.02,
                        help="modeled WAL device sync latency (s)")
    parser.add_argument("-o", "--output",
                        default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "BENCH_PERF.json"))
    args = parser.parse_args(argv)

    assert os.environ.get(ENV_FLAG) is None, (
        f"sanitizers are enabled (unset {ENV_FLAG} before benchmarking)")

    if args.quick:
        scale = dict(warehouses=8, districts=4, customers_per_district=20,
                     items=100)
        txns = args.txns if args.txns is not None else 12
    else:
        # ~20x the seed row counts (the issue's 10-100x band).
        scale = dict(warehouses=16, districts=10,
                     customers_per_district=100, items=500)
        txns = args.txns if args.txns is not None else 25

    results = {}
    for n in args.shards:
        r = bench(n, scale=scale, clients_per_shard=args.clients_per_shard,
                  txns_per_client=txns, flush_latency=args.flush_latency)
        base = results.get(1)
        speedup = (r["commits_per_s"] / base["commits_per_s"]
                   if base and base is not r else 1.0)
        r["speedup_vs_1"] = speedup
        r["per_shard_efficiency"] = speedup / n
        results[n] = r
        print(f"shards={n}: {r['commits_per_s']:.1f} commits/s "
              f"({r['commits']} commits, {r['retries']} retries, "
              f"{r['two_phase_commits']} 2PC, "
              f"{r['wal_fsyncs']} fsyncs) "
              f"speedup {speedup:.2f}x eff {r['per_shard_efficiency']:.2f}")

    payload = {
        "params": {"scale": scale,
                   "clients_per_shard": args.clients_per_shard,
                   "txns_per_client": txns,
                   "flush_latency": args.flush_latency,
                   "isolation": "SERIALIZABLE",
                   "quick": bool(args.quick)},
        "host": {"python": platform.python_version(),
                 "platform": platform.platform()},
        "results": {str(n): results[n] for n in sorted(results)},
    }
    out_path = os.path.abspath(args.output)
    data = {}
    if os.path.exists(out_path):
        with open(out_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data["shards"] = payload
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path} ['shards']")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
