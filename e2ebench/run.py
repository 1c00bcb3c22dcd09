"""End-to-end benchmark of the repro server: one command, three workloads.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload sibench_1c --seed 1 --seconds 20 \\
        --trace 0

Each run spawns the server (``e2ebench/server.py``) in its own process
and drives it over TCP from this process with a closed loop of at most
two clients, every transaction SERIALIZABLE and retried on retryable
errors. Steps: load the data over the wire and ANALYZE (timed as
set-up, repeated and reported as a median); warm up; run the timed
phase, with client 0 issuing VACUUM after every fixed number of its
commits; check the database against the expected state. The durable
workload is checked again after a restart through ``open_database``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced run and prints the per-layer metrics. The last
line of standard output is one JSON object; the exit code is non-zero
when any correctness check fails. See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".e2ebench_out")

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module)

WARMUP_SECONDS = 2.0
SETUPS = 5
#: The timed phase is cut into this many equal windows (see end_to_end).
WINDOWS = 5
#: Fixed client backoff between retries (jittered by the seeded rng).
BACKOFF_S = 0.001
MAX_RETRIES = 100
RETRY_STATES = ("40001", "40P01", "55P03", "53300")

END_TO_END = {
    "txn_per_s": "1/s", "server_cpu_ms_per_txn": "ms",
    "server_rss_mb": "MB", "setup_s": "s",
    "type_a_p50_ms": "ms", "type_a_p95_ms": "ms",
    "type_b_p50_ms": "ms", "type_b_p95_ms": "ms",
}


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``e2ebench/server.py`` as a child speaking JSON lines on stdio."""

    def __init__(self, durable: bool, data_dir: str = "", *,
                 trace: bool = False, reopen: bool = False,
                 dump: str = "") -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, os.path.join(HERE, "server.py")]
        if durable:
            cmd += ["--durable", "--data-dir", data_dir]
        if trace:
            cmd.append("--trace")
        if reopen:
            cmd.append("--reopen")
        if dump:
            cmd += ["--dump", dump]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=ROOT)
        self.port = self._read()["port"]

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(10)
            raise RuntimeError(f"server exited with code "
                               f"{self.proc.returncode}")
        return json.loads(line)

    def command(self, name: str) -> Dict[str, Any]:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> Dict[str, Any]:
        """Stop the server; returns its report, with its exit code."""
        report = self.command("stop")
        report["exit_code"] = self.proc.wait(60)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(30)


def connect(port: int, rng: random.Random):
    from repro.server.client import ReproClient
    return ReproClient(("127.0.0.1", port), isolation="serializable",
                       rng=rng, backoff_base=BACKOFF_S,
                       backoff_cap=BACKOFF_S).connect()


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Phase:
    """What one phase of one client did."""

    def __init__(self) -> None:
        self.attempted = 0
        self.committed = 0
        self.failed: Counter = Counter()
        self.retries: Counter = Counter()
        self.vacuums = 0
        self.latency_ms: Dict[str, List[float]] = defaultdict(list)
        #: (completion time, kind, latency ms) per committed transaction.
        self.done: List[Tuple[float, str, float]] = []

    def merge(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.committed += other.committed
        self.failed.update(other.failed)
        self.retries.update(other.retries)
        self.vacuums += other.vacuums
        for kind, values in other.latency_ms.items():
            self.latency_ms[kind].extend(values)
        self.done.extend(other.done)


class ClientLoop:
    """One connection sending its next transaction only after the
    previous one returned."""

    def __init__(self, index: int, wl: workloads.Workload, port: int,
                 seed: int) -> None:
        self.index = index
        self.wl = wl
        self.rng = random.Random(f"{seed}/client{index}/backoff")
        self.txns = wl.transactions(index, random.Random(
            f"{seed}/client{index}"))
        self.client = connect(port, self.rng)
        self.commits = 0

    def run(self, deadline: float, phase: Phase) -> None:
        while time.perf_counter() < deadline:
            kind, read_only, body = next(self.txns)
            phase.attempted += 1
            start = time.perf_counter()
            if self._transaction(read_only, body, phase):
                end = time.perf_counter()
                latency = (end - start) * 1000.0
                phase.committed += 1
                phase.latency_ms[kind].append(latency)
                phase.done.append((end, kind, latency))
                self.commits += 1
                if self.index == 0 and self.commits % self.wl.vacuum_every == 0:
                    self.client.sql("VACUUM")
                    phase.vacuums += 1

    def _transaction(self, read_only: bool, body, phase: Phase) -> bool:
        from repro.errors import ReproError, RetryableError
        begin = "BEGIN ISOLATION LEVEL SERIALIZABLE" + (
            " READ ONLY" if read_only else "")
        client = self.client
        for attempt in range(MAX_RETRIES + 1):
            try:
                client.sql(begin)
                effect = body(client.sql)
                client.sql("COMMIT")
            except RetryableError as exc:
                phase.retries[getattr(exc, "sqlstate", None) or "retry"] += 1
                self._rollback()
                time.sleep(BACKOFF_S * (0.5 + self.rng.random() / 2))
                continue
            except ReproError as exc:
                phase.failed[exc.sqlstate] += 1
                self._rollback()
                return False
            self.wl.apply(effect)
            return True
        phase.failed["retries_exhausted"] += 1
        return False

    def _rollback(self) -> None:
        if self.client.txn in ("open", "failed"):
            self.client.sql("ROLLBACK")

    def close(self) -> None:
        self.client.close()


def run_phase(loops: List[ClientLoop], seconds: float,
              marks: Optional[Callable[[], None]] = None
              ) -> Tuple[Phase, float, float]:
    """Run every client for ``seconds``; returns the merged phase, its
    start time and its wall time (until the last in-flight transaction
    returned). ``marks`` is called at each of the WINDOWS window ends
    while the clients run."""
    phases = [Phase() for _ in loops]
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def drive(loop, phase):
        try:
            loop.run(deadline, phase)
        except BaseException as exc:  # reported and re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(loop, phase))
               for loop, phase in zip(loops, phases)]
    for t in threads:
        t.start()
    if marks is not None:
        for i in range(1, WINDOWS + 1):
            time.sleep(max(0.0, start + seconds * i / WINDOWS
                           - time.perf_counter()))
            marks()
    for t in threads:
        t.join(seconds + 120)
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client did not finish its last transaction")
    merged = Phase()
    for phase in phases:
        merged.merge(phase)
    return merged, start, elapsed


# ----------------------------------------------------------------------
# one measured run
# ----------------------------------------------------------------------
def check(wl: workloads.Workload, port: int) -> List[str]:
    """Run the workload's checks in one REPEATABLE READ snapshot."""
    client = connect(port, random.Random(0))
    try:
        client.sql("BEGIN ISOLATION LEVEL REPEATABLE READ READ ONLY")
        problems = wl.check(client.sql)
        client.sql("COMMIT")
        return problems
    finally:
        client.close()


class Run:
    """Set-up, warm-up, timed phase and checks for one workload."""

    def __init__(self, name: str, seed: int, *, trace: bool = False,
                 setups: int = SETUPS) -> None:
        self.name, self.seed, self.trace = name, seed, trace
        self.setups = setups
        self.wl = workloads.make(name, seed)
        self.data_dir = os.path.join(OUT, f"data-{os.getpid()}")
        self.dump = (os.path.join(OUT, f"trace-{name}.json")
                     if trace else "")
        self.problems: List[str] = []
        self.server: Optional[ServerProcess] = None

    def _start_and_load(self, ddl: List[str], load: List[str]) -> float:
        if os.path.exists(self.data_dir):
            shutil.rmtree(self.data_dir)
        start = time.perf_counter()
        server = ServerProcess(self.wl.durable, self.data_dir,
                               trace=self.trace, dump=self.dump)
        self.server = server
        client = connect(server.port, random.Random(0))
        try:
            for statement in ddl:
                client.sql(statement)
            client.sql("BEGIN")
            for statement in load:
                client.sql(statement)
            client.sql("COMMIT")
            client.sql("ANALYZE")
        finally:
            client.close()
        return time.perf_counter() - start

    def setup(self) -> float:
        """Set up ``setups`` times (fresh server each time); keep the
        last server, return the median set-up time."""
        ddl, load = self.wl.ddl(), self.wl.load_statements()
        times = []
        for i in range(self.setups):
            if self.server is not None:
                self._stop_server()
            times.append(self._start_and_load(ddl, load))
        return statistics.median(times)

    def _stop_server(self) -> Dict[str, Any]:
        server, self.server = self.server, None
        report = server.stop()
        if report["exit_code"] != 0:
            self.problems.append(f"server stop was not clean: {report}")
        return report

    def execute(self, seconds: float) -> Dict[str, Any]:
        os.makedirs(OUT, exist_ok=True)
        try:
            setup_s = self.setup()
            loops = [ClientLoop(i, self.wl, self.server.port, self.seed)
                     for i in range(self.wl.clients)]
            try:
                run_phase(loops, WARMUP_SECONDS)
                server = self.server
                cpu_marks = [server.command("begin")["cpu_s"]]
                cpu0 = time.process_time()
                phase, start, elapsed = run_phase(
                    loops, seconds, lambda: cpu_marks.append(
                        server.command("cpu")["cpu_s"]))
                driver_cpu_s = time.process_time() - cpu0
                server_end = server.command("end")
            finally:
                for loop in loops:
                    loop.close()
            self.problems += check(self.wl, self.server.port)
            stop_report = self._stop_server()
            if self.wl.durable:
                server = ServerProcess(True, self.data_dir, reopen=True)
                self.server = server
                self.problems += [f"after restart: {p}" for p in
                                  check(self.wl, server.port)]
                self._stop_server()
        finally:
            if self.server is not None:
                self.server.kill()
            if os.path.exists(self.data_dir):
                shutil.rmtree(self.data_dir)
        return {"setup_s": setup_s, "phase": phase, "start": start,
                "seconds": seconds, "elapsed": elapsed,
                "cpu_marks": cpu_marks, "driver_cpu_s": driver_cpu_s,
                "server": server_end, "stop": stop_report}


def end_to_end(wl: workloads.Workload, result: Dict[str, Any]
               ) -> Dict[str, float]:
    """Each rate and latency is computed per window of the timed phase
    and reported as the median over the windows, so a short slow
    episode of the host moves one window, not the result."""
    width = result["seconds"] / WINDOWS
    marks = result["cpu_marks"]
    windows: Dict[str, List[float]] = defaultdict(list)
    for i in range(WINDOWS):
        lo = result["start"] + i * width
        done = [d for d in result["phase"].done if lo <= d[0] < lo + width]
        windows["txn_per_s"].append(len(done) / width)
        windows["server_cpu_ms_per_txn"].append(
            (marks[i + 1] - marks[i]) * 1000 / max(1, len(done)))
        for slot, kind in zip(("type_a", "type_b"), wl.latency_slots):
            values = sorted(lat for _t, k, lat in done if k == kind)
            windows[f"{slot}_p50_ms"].append(
                workloads.percentile(values, 50))
            windows[f"{slot}_p95_ms"].append(
                workloads.percentile(values, 95))
    metrics = {name: statistics.median(v for v in values if v is not None)
               for name, values in windows.items()}
    metrics["server_rss_mb"] = result["server"]["rss_mb"]
    metrics["setup_s"] = result["setup_s"]
    return metrics


# ----------------------------------------------------------------------
# per-layer metrics from a traced window
# ----------------------------------------------------------------------
def per_layer(window: Dict[str, Any], commits: int, phase: Phase,
              driver_cpu_s: float, overhead_pct: float) -> Dict[str, float]:
    spans, counts = window["spans"], window["counts"]
    n = commits

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def total_ms(name):
        return spans.get(name, [0, 0, 0])[1] / 1e6 / n

    def self_ms(name):
        return spans.get(name, [0, 0, 0])[2] / 1e6 / n

    def count(name):
        return counts.get(name, 0)

    rows = count("sql.rows_returned")
    fsyncs = count("durable.wal_fsyncs")
    begins = calls("engine.begin")
    out = {
        "server.decode_ms_per_txn": (self_ms("server.decode"), "ms"),
        "server.encode_ms_per_txn": (self_ms("server.encode"), "ms"),
        "server.bytes_out_per_txn": (count("server.bytes_out") / n, "bytes"),
        "server.requests_per_txn": (calls("server.request") / n, "count"),
        "server.latch_wait_ms_per_txn": (total_ms("server.latch_wait"),
                                         "ms"),
        "server.latch_hold_ms_per_txn": (
            total_ms("server.execute") - total_ms("server.latch_wait")
            - total_ms("server.park"), "ms"),
        "server.parks_per_txn": (calls("server.park") / n, "count"),
        "server.bows_per_txn": (count("server.bow") / n, "count"),
        "server.unattributed_ms_per_txn": (self_ms("server.request"), "ms"),
        "sql.parse_ms_per_txn": (self_ms("sql.parse"), "ms"),
        "sql.parse_miss_ratio": (
            calls("sql.parse") / max(1, calls("sql.execute")), "ratio"),
        "sql.execute_self_ms_per_txn": (self_ms("sql.execute"), "ms"),
        "sql.rows_returned_per_txn": (rows / n, "count"),
        "engine.plan_ms_per_txn": (self_ms("engine.plan"), "ms"),
        "engine.read_ms_per_txn": (self_ms("engine.read"), "ms"),
        "engine.write_ms_per_txn": (self_ms("engine.write"), "ms"),
        "engine.begin_ms_per_txn": (self_ms("engine.begin"), "ms"),
        "engine.commit_ms_per_txn": (self_ms("engine.commit"), "ms"),
        "engine.abort_ms_per_txn": (self_ms("engine.abort"), "ms"),
        "storage.heap_fetches_per_txn": (count("storage.heap_fetch") / n,
                                         "count"),
        "storage.fetches_per_row_returned": (
            count("storage.heap_fetch") / max(1, rows), "ratio"),
        "mvcc.visibility_checks_per_txn": (count("mvcc.visibility") / n,
                                           "count"),
        "storage.vacuum_ms_per_txn": (total_ms("storage.vacuum"), "ms"),
        "storage.dead_versions_removed_per_txn": (
            count("storage.dead_versions_removed") / n, "count"),
        "ssi.read_ms_per_txn": (self_ms("ssi.read"), "ms"),
        "ssi.write_ms_per_txn": (self_ms("ssi.write"), "ms"),
        "ssi.precommit_ms_per_txn": (self_ms("ssi.precommit"), "ms"),
        "ssi.cleanup_ms_per_txn": (self_ms("ssi.cleanup"), "ms"),
        "ssi.siread_acquires_per_txn": (count("ssi.siread_acquire") / n,
                                        "count"),
        "ssi.serialization_failures_per_1k_txn": (
            count("ssi.serialization_failures") * 1000 / n, "count"),
        "ssi.commit_ratio": (count("engine.commits_ok") / max(1, begins),
                             "ratio"),
        "locks.acquire_ms_per_txn": (self_ms("locks.acquire"), "ms"),
        "locks.acquires_per_txn": (calls("locks.acquire") / n, "count"),
        "locks.waits_per_txn": (count("locks.waits") / n, "count"),
        "locks.deadlocks_per_1k_txn": (count("locks.deadlocks") * 1000 / n,
                                       "count"),
        "durable.log_ms_per_txn": (self_ms("durable.log"), "ms"),
        "durable.commit_ms_per_txn": (self_ms("durable.commit"), "ms"),
        "durable.flush_ms_per_txn": (self_ms("durable.flush"), "ms"),
        "durable.fsync_ms_per_txn": (total_ms("durable.fsync"), "ms"),
        "durable.commits_per_fsync": (
            count("engine.commits_ok") / fsyncs if fsyncs else 0.0,
            "ratio"),
        "durable.wal_bytes_per_txn": (count("durable.wal_bytes") / n,
                                      "bytes"),
        "durable.page_bytes_per_txn": (count("durable.page_bytes") / n,
                                       "bytes"),
        "durable.checkpoint_ms_per_txn": (total_ms("durable.checkpoint"),
                                          "ms"),
        "driver.cpu_ms_per_txn": (driver_cpu_s * 1000 / n, "ms"),
        "driver.retries_per_1k_txn": (
            sum(phase.retries.values()) * 1000 / n, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def report_phase(wl: workloads.Workload, phase: Phase) -> None:
    failed = sum(phase.failed.values())
    print(f"transactions: attempted {phase.attempted}, committed "
          f"{phase.committed}, failed {failed} "
          f"({failed / max(1, phase.attempted):.4%} of attempted)"
          f"{' by SQLSTATE ' + repr(dict(phase.failed)) if failed else ''}")
    retries = {state: phase.retries.get(state, 0) for state in RETRY_STATES}
    other = {k: v for k, v in phase.retries.items()
             if k not in RETRY_STATES}
    print(f"retries by SQLSTATE: {retries}"
          f"{' other ' + repr(other) if other else ''}; "
          f"VACUUMs {phase.vacuums}")
    for kind in sorted(phase.latency_ms):
        values = sorted(phase.latency_ms[kind])
        p50, p95, p99 = (workloads.percentile(values, q)
                         for q in (50, 95, 99))
        slot = ""
        if kind in wl.latency_slots:
            slot = f" (type_{'ab'[wl.latency_slots.index(kind)]})"
        print(f"  {kind}_p50_ms {p50:.3f} ms  {kind}_p95_ms {p95:.3f} ms  "
              f"{kind}_p99_ms {p99:.3f} ms  n={len(values)}{slot}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py",
        description="End-to-end benchmark of the repro server.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=SETUPS,
                        help="set-ups per run (median reported)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no program source at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    probe_before = host_probe()
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}; commit {git_commit()}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    wl_name = args.workload
    run = Run(wl_name, args.seed, setups=1 if args.trace else args.setups)
    result = run.execute(args.seconds)
    wl, phase = run.wl, result["phase"]
    problems = list(run.problems)
    report_phase(wl, phase)
    e2e = end_to_end(wl, result)
    attempted, failed = phase.attempted, sum(phase.failed.values())

    if args.trace:
        traced_run = Run(wl_name, args.seed, trace=True, setups=1)
        traced = traced_run.execute(args.seconds)
        problems += traced_run.problems
        stop = traced["stop"]
        for pair, outcome in stop.get("crosscheck", {}).items():
            verdict = {True: "ok", False: "MISMATCH",
                       None: "(not checked)"}[outcome["ok"]]
            print(f"cross-check {pair}: traced {outcome['traced']} "
                  f"engine {outcome['engine']} {verdict}")
        tphase = traced["phase"]
        report_phase(traced_run.wl, tphase)
        window = traced["server"]["trace"]
        print("layer spans (calls per txn, self ms per txn):")
        for name, (calls, _total, own) in sorted(window["spans"].items()):
            print(f"  {name:22s} {calls / tphase.committed:10.2f} "
                  f"{own / 1e6 / tphase.committed:10.4f}")
        untraced_tps = phase.committed / result["elapsed"]
        traced_tps = tphase.committed / traced["elapsed"]
        overhead = (untraced_tps / traced_tps - 1.0) * 100.0
        layer = per_layer(window, tphase.committed, tphase,
                          traced["driver_cpu_s"], overhead)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
        attempted += tphase.attempted
        failed += sum(tphase.failed.values())
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"host probe: {probe_before:.3f} s before, "
          f"{host_probe():.3f} s after")
    for problem in problems:
        print(f"CORRECTNESS VIOLATION: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
