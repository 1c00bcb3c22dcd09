"""Static latch-rank proof (LATCH001/LATCH002).

The runtime discipline (:mod:`repro.engine.latches`) raises
``LatchOrderError`` the moment a thread acquires a latch at a rank at
or below one it already holds. That catches violations *observed* on
some build; this module proves their absence statically by propagating
the set of held latch ranks along every resolvable call path from the
thread entry points and checking each acquisition site against every
hold-set that can reach it.

* **LATCH001** -- out-of-rank acquisition: some path reaches a
  ``with latch:`` / ``latch.acquire()`` site while already holding a
  latch of equal or higher rank (and not reentrantly holding this
  one). The finding carries the example call path.
* **LATCH002** -- park/bow/notify discipline on
  :class:`~repro.engine.latches.EngineLatch`:

  - ``park``/``bow``/``notify_all`` on a path that does **not** hold
    the latch (the runtime would corrupt the condition-variable
    protocol or raise from ``Condition.wait``);
  - ``park``/``bow`` while also holding some *other* latch of equal or
    higher rank -- the block point releases and **re-acquires** the
    parked latch, and the re-acquisition is exactly an out-of-rank
    acquire that the runtime check would only catch when the race
    window is hit.

Acquisition sites whose latch rank cannot be resolved statically are
never guessed: they are returned as *unproven* entries, and the report
is only ``ok`` when that list is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.concurrency.callgraph import (AcquireEvent, BlockEvent,
                                                  CallGraph, RANK_BY_NAME,
                                                  Reachability)


@dataclass(frozen=True)
class LatchViolation:
    rule: str
    path: str
    line: int
    message: str
    hint: str
    trace: Tuple[str, ...] = ()


@dataclass
class LatchOrderResult:
    violations: List[LatchViolation] = field(default_factory=list)
    #: acquisition/park sites whose latch rank is statically unknown.
    unproven: List[Dict[str, object]] = field(default_factory=list)
    #: number of (site, hold-set) pairs proven in-order.
    proven_sites: int = 0


def _max_rank(names: "frozenset[str]") -> int:
    return max((RANK_BY_NAME[n] for n in names if n in RANK_BY_NAME),
               default=-1)


def _fmt(names: "frozenset[str]") -> str:
    return "{" + ",".join(sorted(names)) + "}"


def check_latch_order(graph: CallGraph,
                      reach: Reachability) -> LatchOrderResult:
    result = LatchOrderResult()
    seen: set = set()

    def emit(rule: str, path: str, line: int, message: str, hint: str,
             state: Tuple[str, frozenset]) -> None:
        key = (rule, path, line, message)
        if key in seen:
            return
        seen.add(key)
        result.violations.append(LatchViolation(
            rule=rule, path=path, line=line, message=message, hint=hint,
            trace=tuple(reach.trace(state))))

    for qname, heldsets in sorted(reach.states.items()):
        fn = graph.functions[qname]
        for held in sorted(heldsets, key=sorted):
            state = (qname, held)
            for ev in fn.events:
                if isinstance(ev, AcquireEvent):
                    eff = held | ev.held
                    latch = ev.latch
                    if not latch.known():
                        result.unproven.append({
                            "path": fn.path, "line": ev.line,
                            "function": qname,
                            "reason": "latch rank not statically "
                                      "resolvable at this acquire site"})
                        continue
                    if latch.name in eff:
                        result.proven_sites += 1  # reentrant: safe
                        continue
                    worst = _max_rank(eff)
                    if worst >= latch.rank:
                        emit("LATCH001", fn.path, ev.line,
                             f"acquires latch {latch.name} (rank "
                             f"{latch.rank}) while a path from "
                             f"{reach.entry_of[state]} already holds "
                             f"{_fmt(eff)} (max rank {worst})",
                             "latches must be acquired in strictly "
                             "increasing rank order "
                             "(ENGINE<CONNECTIONS<METRICS); "
                             "restructure so the lower-rank latch is "
                             "taken first, or drop the outer latch "
                             "before calling in", state)
                    else:
                        result.proven_sites += 1
                elif isinstance(ev, BlockEvent):
                    eff = held | ev.held
                    latch = ev.latch
                    if not latch.known():
                        result.unproven.append({
                            "path": fn.path, "line": ev.line,
                            "function": qname,
                            "reason": f"{ev.kind}() on a latch whose "
                                      "rank is not statically "
                                      "resolvable"})
                        continue
                    if latch.name not in eff:
                        emit("LATCH002", fn.path, ev.line,
                             f"{ev.kind}() on latch {latch.name} on a "
                             f"path from {reach.entry_of[state]} that "
                             f"does not hold it (held: {_fmt(eff)})",
                             "park/bow/notify_all require the latch "
                             "held: they operate on the condition "
                             "variable sharing the latch's lock", state)
                        continue
                    if ev.kind in ("park", "bow"):
                        others = eff - {latch.name}
                        worst = _max_rank(others)
                        if worst >= latch.rank:
                            emit("LATCH002", fn.path, ev.line,
                                 f"{ev.kind}() releases and re-acquires "
                                 f"latch {latch.name} (rank "
                                 f"{latch.rank}) while still holding "
                                 f"{_fmt(others)} (max rank {worst}): "
                                 "the re-acquisition is out of rank "
                                 "order",
                                 "a blocked thread keeps its other "
                                 "latches; parking may only happen "
                                 "with the parked latch as the "
                                 "highest-ranked latch held", state)
                        else:
                            result.proven_sites += 1
                    else:
                        result.proven_sites += 1
    return result


def latent_unknown_sites(graph: CallGraph,
                         reach: Reachability) -> List[Dict[str, object]]:
    """Unknown-rank acquire sites in functions *not* reached from any
    entry point -- informational (they cannot violate the proof, but a
    new call edge could make them reachable)."""
    out: List[Dict[str, object]] = []
    for qname, fn in sorted(graph.functions.items()):
        if qname in reach.states:
            continue
        for ev in fn.events:
            if isinstance(ev, (AcquireEvent, BlockEvent)) and \
                    not ev.latch.known():
                out.append({"path": fn.path, "line": ev.line,
                            "function": qname,
                            "reason": "unreached function acquires a "
                                      "latch of unknown rank"})
    return out
