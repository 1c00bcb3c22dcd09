"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest e2ebench/test_e2ebench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--setups", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 20 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


# A committed write the driver never records: each workload's check
# must report it.
ROGUE_WRITES = {
    "sibench_1c": "UPDATE sibench SET v = v + 1 WHERE k = 3",
    "ycsb_zipf_2c": "INSERT INTO usertable (k, v, pad) VALUES (-1, 5, 0)",
    "dbt2pp_durable_2c": "UPDATE district SET d_ytd = d_ytd + 1 "
                         "WHERE d_key = 0",
}


@pytest.mark.parametrize("workload", sorted(ROGUE_WRITES))
def test_check_catches_a_seeded_violation(workload):
    bench = run.Run(workload, seed=3, setups=1)
    os.makedirs(run.OUT, exist_ok=True)
    try:
        bench.setup()
        port = bench.server.port
        assert run.check(bench.wl, port) == []
        client = run.connect(port, random.Random(0))
        try:
            client.sql(ROGUE_WRITES[workload])
        finally:
            client.close()
        assert run.check(bench.wl, port) != []
    finally:
        if bench.server is not None:
            bench.server.kill()
        shutil.rmtree(bench.data_dir, ignore_errors=True)
