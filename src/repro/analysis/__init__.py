"""repro.analysis — machine-checked guardrails for the SSI engine.

The paper's correctness argument rests on discipline the code can
silently lose as it is refactored for speed: SIREAD locks outlive
their transactions under an exact cleanup protocol (section 4.7 /
section 6), conflict flags are only mutated under the SSI manager, and
the performance layer's hint bits are sound only while every CLOG
verdict flows through ``repro.mvcc.visibility``. Formal treatments of
snapshot isolation (Raad et al., *On the Semantics of Snapshot
Isolation*; Fernández Gómez & Yabandeh, *A Critique of Snapshot
Isolation*) show these invariants are exactly where implementations
drift, so this package provides a TSan/ASan analog for the codebase:

* :mod:`repro.analysis.lint` -- a stdlib-``ast`` static pass framework
  with repo-specific rules (CLOG discipline, nondeterminism,
  ``__slots__`` consistency, lock-manager encapsulation, hygiene),
  each carrying a fix-it hint and a
  ``# repro: noqa(RULE)`` escape hatch;
* :mod:`repro.analysis.sanitize` -- runtime invariant sanitizers
  (SSI state, heap/MVCC state, lock leaks) toggleable via
  ``EngineConfig.sanitize`` or the ``REPRO_SANITIZE`` environment
  variable, raising a structured
  :class:`~repro.analysis.sanitize.SanitizerViolation` with an
  ``repro.obs`` post-mortem dump on any breach.

Both halves sit behind one CLI::

    python -m repro.analysis lint src/repro tests
    python -m repro.analysis rules
    python -m repro.analysis smoke

The CI ``analysis`` job runs the linter over ``src/`` and ``tests/``
and a sanitizer-enabled SIBENCH smoke run, failing the build on any
finding; wall-clock benchmarks assert the sanitizers are *off* and
record :data:`ANALYSIS_VERSION` in their metadata so perf numbers are
attributable to a guardrail generation.
"""

from __future__ import annotations

#: Version of the analysis toolchain (rule catalog + sanitizer
#: invariants). Bumped when rules or invariants change meaningfully;
#: recorded in BENCH_PERF.json metadata by the benchmark harness.
ANALYSIS_VERSION = "1.1"

from repro.analysis.lint import (Finding, LintReport, Rule,  # noqa: E402
                                 all_rules, lint_paths)
from repro.analysis.sanitize import (SanitizerRunner,  # noqa: E402
                                     SanitizerViolation)

__all__ = [
    "ANALYSIS_VERSION", "Finding", "LintReport", "Rule", "all_rules",
    "lint_paths", "SanitizerRunner", "SanitizerViolation",
]
