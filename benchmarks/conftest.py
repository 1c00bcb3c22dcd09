"""Shared benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's experiment index): it runs the workload series, prints the
same rows/series the paper reports, saves them under
``benchmarks/results/``, and asserts the qualitative *shape* (who wins,
by roughly what factor) since absolute numbers come from the simulated
cost model, not the authors' hardware.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, List, Optional, Sequence

import pytest

from repro.config import DurabilityConfig, EngineConfig, SSIConfig
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.workloads.base import Workload, run_workload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Per-series metric deltas collected by run_series, printed in the
#: terminal summary: {(test nodeid-ish label, series): MetricsSnapshot}.
_METRIC_DELTAS: Dict[tuple, object] = {}


def _config(series: str, disk_bound: bool = False) -> EngineConfig:
    if series == "SSI (no r/o opt.)":
        ssi = SSIConfig(read_only_opt=False, safe_snapshots=False)
    elif series == "SSI (flags)":
        ssi = SSIConfig(conflict_tracking="flags")
    else:
        ssi = SSIConfig()
    if disk_bound:
        cfg = EngineConfig.disk_bound(io_miss=10.0, buffer_pages=96, ssi=ssi)
        # The disk configuration does *real* IO too: the durability
        # layer writes pages and WAL underneath the simulated cost
        # model. fsync stays off (the simulated scheduler serializes
        # clients, so per-commit fsync stalls would measure the host
        # disk, not the engine) -- the differential suite pins that
        # durability never perturbs simulated outcomes either way.
        cfg.durability = DurabilityConfig(
            enabled=True, data_dir=tempfile.mkdtemp(prefix="repro-bench-"),
            fsync=False, max_dirty_pages=96, checkpoint_wal_bytes=1 << 20)
    else:
        cfg = EngineConfig(ssi=ssi)
    return cfg


SERIES_ISOLATION = {
    "SI": IsolationLevel.REPEATABLE_READ,
    "SSI": IsolationLevel.SERIALIZABLE,
    "SSI (no r/o opt.)": IsolationLevel.SERIALIZABLE,
    "SSI (flags)": IsolationLevel.SERIALIZABLE,
    "S2PL": IsolationLevel.S2PL,
}


def run_series(workload_factory, series: Sequence[str], *,
               n_clients: int = 4, max_ticks: float = 8000.0, seed: int = 7,
               disk_bound: bool = False,
               label: Optional[str] = None) -> Dict[str, object]:
    """Run one workload under each concurrency-control series.

    ``workload_factory`` builds a fresh Workload per run (workloads
    carry counters). Returns {series name: SimResult}. Each run's
    metric delta (repro.obs registry snapshot, setup included) is
    stashed on the SimResult as ``.metrics`` and echoed in the pytest
    terminal summary.
    """
    results = {}
    for name in series:
        workload = workload_factory()
        cfg = _config(name, disk_bound=disk_bound)
        db = Database(cfg)
        try:
            before = db.obs.metrics.snapshot()
            result = run_workload(
                workload,
                isolation=SERIES_ISOLATION[name],
                n_clients=n_clients,
                max_ticks=max_ticks,
                seed=seed,
                db=db,
            )
            delta = db.obs.metrics.snapshot().diff(before).nonzero()
        finally:
            if cfg.durability.enabled:
                db.close()
                shutil.rmtree(cfg.durability.data_dir, ignore_errors=True)
        result.metrics = delta
        _METRIC_DELTAS[(label or type(workload).__name__, name)] = delta
        results[name] = result
    return results


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Print each benchmark run's engine/SSI metric deltas (the
    pg_stat-style counters backing the figures) after the test summary."""
    if not _METRIC_DELTAS:
        return
    terminalreporter.section("benchmark metric deltas")
    for (label, series), delta in _METRIC_DELTAS.items():
        terminalreporter.write_line(f"{label} [{series}]")
        for key, value in delta.items():
            if isinstance(value, dict):
                value = f"count={value['count']} sum={value['sum']:.3g}"
            terminalreporter.write_line(f"    {key} = {value}")
    fastpath = {(label, series): {k: v for k, v in delta.items()
                                  if k.startswith("perf.") and "cache" not in k}
                for (label, series), delta in _METRIC_DELTAS.items()}
    if any(fastpath.values()):
        terminalreporter.section("fast-path counters (perf.*)")
        for (label, series), counters in fastpath.items():
            if not counters:
                continue
            summary = "  ".join(f"{k.removeprefix('perf.')}={v}"
                                for k, v in sorted(counters.items()))
            terminalreporter.write_line(f"{label} [{series}]  {summary}")
    planner = {(label, series): {k: v for k, v in delta.items()
                                 if k.startswith("planner.")
                                 or (k.startswith("perf.") and "cache" in k)}
               for (label, series), delta in _METRIC_DELTAS.items()}
    if any(planner.values()):
        terminalreporter.section("planner / cache counters")
        for (label, series), counters in planner.items():
            if not counters:
                continue
            summary = "  ".join(f"{k}={v}"
                                for k, v in sorted(counters.items()))
            terminalreporter.write_line(f"{label} [{series}]  {summary}")


def normalized(results: Dict[str, object],
               baseline: str = "SI") -> Dict[str, float]:
    base = results[baseline].throughput
    return {name: (res.throughput / base if base else 0.0)
            for name, res in results.items()}


class Report:
    """Collects printable rows and persists them."""

    def __init__(self, title: str, filename: str) -> None:
        self.title = title
        self.filename = filename
        self.lines: List[str] = [title, "=" * len(title)]

    def row(self, text: str) -> None:
        self.lines.append(text)

    def table(self, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
                  for i, h in enumerate(header)]
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        self.lines.append(fmt.format(*header))
        self.lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            self.lines.append(fmt.format(*[str(x) for x in r]))

    def emit(self) -> str:
        text = "\n".join(self.lines) + "\n"
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, self.filename)
        with open(path, "w") as fh:
            fh.write(text)
        print("\n" + text)
        return text


@pytest.fixture
def report():
    """Factory fixture for Report objects."""
    return Report
