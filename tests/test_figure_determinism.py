"""Simulated figures are a pure function of their inputs.

The benchmark figures must not depend on what else ran earlier in the
same process. SerializableXact hashes by identity, so any SSI loop
that walked a set of sxacts in iteration order -- and let its first
hit choose the victim -- made abort decisions follow memory addresses.
Flags-mode conflict tracking on the receipts mix is the most sensitive
case: every dangerous structure aborts on the spot.
"""

from repro.config import EngineConfig, SSIConfig
from repro.engine.isolation import IsolationLevel
from repro.workloads import ReceiptsWorkload
from repro.workloads.base import run_workload


def _flags_series():
    result = run_workload(
        ReceiptsWorkload(), isolation=IsolationLevel.SERIALIZABLE,
        n_clients=5, max_ticks=3000, seed=23,
        config=EngineConfig(ssi=SSIConfig(conflict_tracking="flags")))
    return (result.commits, result.serialization_failures,
            result.throughput)


def test_series_repeats_exactly_after_unrelated_allocations():
    first = _flags_series()
    # Shift the allocator: fresh sxacts now land at other addresses,
    # in a different relative order.
    ballast = [[object() for _ in range(7)] for _ in range(20_000)]
    second = _flags_series()
    del ballast[::2]
    third = _flags_series()
    assert first == second == third
