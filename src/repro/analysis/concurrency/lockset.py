"""Eraser-style lockset race detection (RACE001/RACE002).

For every attribute of an engine-shared class, collect each access
site reachable from the thread entry points together with the set of
latch ranks held there, then:

* attributes **declared** with ``# repro: guarded-by(LATCH)`` must
  hold that latch at every reachable site -- a miss is **RACE002**,
  anchored at the offending site with the example call path;
* attributes **declared** ``# repro: confined(<rationale>)`` are
  thread-confined by design; they are skipped but surfaced in the
  audit table so the claim stays reviewable;
* **undeclared** attributes get the classic Eraser treatment: the
  *candidate lockset* is the intersection of held latches over every
  reachable site. An empty intersection with at least one write
  outside ``__init__`` is **RACE001** -- no latch protects the field
  consistently. A non-empty intersection is reported in the audit as
  the suggested ``guarded-by`` annotation.

Accesses inside the owning class's ``__init__`` are excluded:
construction happens before the object is published to other threads
(the latch that publishes it provides the happens-before edge).

Declared facts with **no** reachable access site are not "proven" --
they are listed as *vacuous* in the audit, which is exactly the set
the dynamic lockset sanitizer (:mod:`repro.analysis.sanitize`) covers
at runtime behind the ``getattr``-dispatch boundary the static call
graph cannot cross.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.concurrency.callgraph import (AccessEvent, CallGraph,
                                                  RANK_BY_NAME, Reachability)


@dataclass(frozen=True)
class RaceFinding:
    rule: str
    path: str
    line: int
    message: str
    hint: str
    trace: Tuple[str, ...] = ()


@dataclass(frozen=True)
class AuditRow:
    """One (class, attribute) row of the shared-state audit."""

    cls: str
    attr: str
    status: str          #: proven | violated | confined | vacuous |
                         #: candidate | read-only
    detail: str
    sites: int

    def to_dict(self) -> Dict[str, object]:
        return {"class": self.cls, "attr": self.attr,
                "status": self.status, "detail": self.detail,
                "sites": self.sites}


@dataclass
class LocksetResult:
    races: List[RaceFinding] = field(default_factory=list)
    audit: List[AuditRow] = field(default_factory=list)


@dataclass
class _Site:
    path: str
    line: int
    held: "frozenset[str]"
    is_write: bool
    state: Tuple[str, frozenset]


def collect_guarded_facts(
        graph: CallGraph) -> Dict[Tuple[str, str], str]:
    """(class, attr) -> declared guard rank name, project-wide. Also
    consumed by the dynamic lockset sanitizer."""
    facts: Dict[Tuple[str, str], str] = {}
    for name, node in graph.classes.items():
        for attr, guard in node.guarded.items():
            facts[(name, attr)] = guard
    return facts


def _fact_owner(graph: CallGraph, cls: str, attr: str) -> str:
    """The class on ``cls``'s MRO that declares ``attr`` (guard,
    confinement, or plain declaration), else ``cls`` itself -- so an
    access through a subclass reference aggregates with the base-class
    fact."""
    for node in graph.mro(cls):
        if (attr in node.guarded or attr in node.confined
                or attr in node.decl_lines):
            return node.name
    return cls


def check_locksets(graph: CallGraph, reach: Reachability,
                   shared_classes: Sequence[str]) -> LocksetResult:
    result = LocksetResult()
    shared: Set[str] = set(shared_classes)
    for name, node in graph.classes.items():
        if node.guarded or node.confined:
            shared.add(name)

    # 1. gather reachable access sites per (owner class, attr)
    sites: Dict[Tuple[str, str], List[_Site]] = {}
    for qname, heldsets in sorted(reach.states.items()):
        fn = graph.functions[qname]
        for held in sorted(heldsets, key=sorted):
            state = (qname, held)
            for ev in fn.events:
                if not isinstance(ev, AccessEvent) or ev.in_init:
                    continue
                owner = _fact_owner(graph, ev.cls, ev.attr)
                if ev.cls not in shared and owner not in shared:
                    continue
                sites.setdefault((owner, ev.attr), []).append(_Site(
                    path=fn.path, line=ev.line, held=held | ev.held,
                    is_write=ev.is_write, state=state))

    # 2. every declared fact, whether or not it has reachable sites
    keys: Set[Tuple[str, str]] = set(sites)
    for name, node in graph.classes.items():
        for attr in node.guarded:
            keys.add((name, attr))
        for attr in node.confined:
            keys.add((name, attr))

    seen: Set[Tuple[str, str, int]] = set()
    for owner, attr in sorted(keys):
        node = graph.class_node(owner)
        guard = node.guarded.get(attr) if node else None
        confined = node.confined.get(attr) if node else None
        at = sites.get((owner, attr), [])
        n = len(at)
        if confined is not None:
            result.audit.append(AuditRow(
                cls=owner, attr=attr, status="confined",
                detail=confined.strip() or "(no rationale)", sites=n))
            continue
        if guard is not None:
            if guard not in RANK_BY_NAME:
                result.races.append(RaceFinding(
                    rule="RACE002", path=(node.decl_lines.get(attr)
                                          or (node.path, node.lineno))[0],
                    line=(node.decl_lines.get(attr)
                          or (node.path, node.lineno))[1],
                    message=f"{owner}.{attr} declares guarded-by"
                            f"({guard}), which is not a known latch "
                            "rank (ENGINE/CONNECTIONS/METRICS)",
                    hint="fix the annotation; guard names are latch "
                         "rank names"))
                continue
            misses = [s for s in at if guard not in s.held]
            for s in misses:
                key = ("RACE002", s.path, s.line)
                if key in seen:
                    continue
                seen.add(key)
                result.races.append(RaceFinding(
                    rule="RACE002", path=s.path, line=s.line,
                    message=f"{owner}.{attr} is declared guarded-by"
                            f"({guard}) but this "
                            f"{'write' if s.is_write else 'read'} is "
                            f"reachable holding only "
                            "{" + ",".join(sorted(s.held)) + "}",
                    hint=f"take the {guard} latch around the access, "
                         "or re-declare the field (confined / a "
                         "different guard) if the claim is wrong",
                    trace=tuple(reach.trace(s.state))))
            if n == 0:
                result.audit.append(AuditRow(
                    cls=owner, attr=attr, status="vacuous",
                    detail=f"guarded-by({guard}); no statically "
                           "reachable access (dynamic sanitizer "
                           "covers)", sites=0))
            elif misses:
                result.audit.append(AuditRow(
                    cls=owner, attr=attr, status="violated",
                    detail=f"guarded-by({guard}); {len(misses)} "
                           f"unguarded site(s)", sites=n))
            else:
                result.audit.append(AuditRow(
                    cls=owner, attr=attr, status="proven",
                    detail=f"guarded-by({guard}) holds at every "
                           "reachable site", sites=n))
            continue
        # undeclared: Eraser candidate lockset
        lockset = None
        writes = 0
        for s in at:
            lockset = s.held if lockset is None else (lockset & s.held)
            writes += int(s.is_write)
        if not at:
            continue
        if writes == 0:
            result.audit.append(AuditRow(
                cls=owner, attr=attr, status="read-only",
                detail="only read outside __init__ on reachable "
                       "paths", sites=n))
            continue
        if lockset:
            suggestion = sorted(lockset,
                                key=lambda nm: RANK_BY_NAME.get(nm, 99))[0]
            result.audit.append(AuditRow(
                cls=owner, attr=attr, status="candidate",
                detail="consistent lockset "
                       "{" + ",".join(sorted(lockset)) + "}; annotate "
                       f"guarded-by({suggestion})", sites=n))
            continue
        anchor = min(at, key=lambda s: (len(s.held), s.path, s.line))
        key = ("RACE001", anchor.path, anchor.line)
        if key not in seen:
            seen.add(key)
            result.races.append(RaceFinding(
                rule="RACE001", path=anchor.path, line=anchor.line,
                message=f"{owner}.{attr} is engine-shared, written on "
                        f"reachable paths ({writes} write(s), {n} "
                        "site(s)) and its candidate lockset is empty: "
                        "no latch protects it consistently",
                hint="guard every access with one latch and declare "
                     "it with '# repro: guarded-by(LATCH)', or mark "
                     "the field '# repro: confined(<why>)' if one "
                     "thread owns it",
                trace=tuple(reach.trace(anchor.state))))
        result.audit.append(AuditRow(
            cls=owner, attr=attr, status="racy",
            detail=f"empty candidate lockset over {n} site(s)",
            sites=n))
    return result
