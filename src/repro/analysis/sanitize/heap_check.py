"""Heap/MVCC state sanitizer.

Invariants checked on each sweep, per relation:

* ``xmin-unstamped`` -- every stored tuple has a real creating xid;
* ``chain-without-deleter`` -- a tuple with a forward ctid chain
  (``next_tid``) was replaced, so its xmax must be stamped with a real
  deleter (not invalid, not lock-only);
* ``hint-clog-disagreement`` -- a set hint bit always agrees with the
  commit log (hint bits cache *final* verdicts; disagreement means a
  bit was set early or survived an xmax restamp);
* ``hint-contradiction`` -- committed and aborted hints for the same
  xid are mutually exclusive;
* ``chain-cycle`` -- following ``next_tid`` never revisits a tuple
  (update chains are append-only; a cycle would loop EvalPlanQual-
  style chain walks forever);
* ``vismap-not-all-visible`` -- a page whose all-visible bit is set
  contains only tuples with a committed creator and no live or
  committed deleter (the timeless part of VACUUM's test);
* ``fsm-missing-page`` -- free-space completeness: every non-tail page
  with room is discoverable by the insert path -- present in the FSM's
  free set, or at/above the non-FSM probe hint. (The soundness
  direction is deliberately unchecked: lazy deletion means FSM entries
  may point at pages that refilled.)
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.analysis.sanitize.violations import SanitizerViolation
from repro.mvcc.clog import XidStatus
from repro.mvcc.visibility import page_all_visible
from repro.mvcc.xid import INVALID_XID

Issue = Tuple[str, str, dict]


class HeapSanitizer:
    """Checks every relation's heap; stateless between runs."""

    name = "heap"

    def __init__(self, db) -> None:
        self._db = db

    # ------------------------------------------------------------------
    def check(self) -> None:
        for invariant, detail, subject in self._issues():
            raise SanitizerViolation(self.name, invariant, detail, subject,
                                     dump=self._dump())

    def _dump(self) -> str:
        from repro.obs.postmortem import dump_state
        return dump_state(self._db)

    # ------------------------------------------------------------------
    def _issues(self) -> Iterator[Issue]:
        clog = self._db.clog
        for name, rel in self._db.relations().items():
            heap = rel.heap
            for page in heap.scan_pages():
                for tup in page.tuples():
                    yield from self._check_tuple(name, clog, tup)
                if heap.vismap.is_all_visible(page.page_no):
                    if not page_all_visible(page.tuples(), clog):
                        yield ("vismap-not-all-visible",
                               f"page {page.page_no} of {name} is marked "
                               f"all-visible but holds a tuple with an "
                               f"uncommitted creator or a live/committed "
                               f"deleter",
                               {"relation": name, "page": page.page_no})
            yield from self._check_chains(name, heap)
            yield from self._check_fsm(name, heap)

    # -- per-tuple stamps and hint bits ---------------------------------
    def _check_tuple(self, rel_name: str, clog, tup) -> Iterator[Issue]:
        subject = {"relation": rel_name, "tid": tuple(tup.tid)}
        if tup.xmin == INVALID_XID:
            yield ("xmin-unstamped",
                   f"tuple {tuple(tup.tid)} of {rel_name} stored with an "
                   f"invalid xmin", subject)
        if (tup.next_tid is not None
                and (tup.xmax == INVALID_XID or tup.xmax_lock_only)):
            yield ("chain-without-deleter",
                   f"tuple {tuple(tup.tid)} of {rel_name} has a ctid chain "
                   f"to {tuple(tup.next_tid)} but no stamped deleter",
                   {**subject, "next_tid": tuple(tup.next_tid)})
        if tup.xmin_committed and tup.xmin_aborted:
            yield ("hint-contradiction",
                   f"tuple {tuple(tup.tid)} of {rel_name} hints xmin as "
                   f"both committed and aborted", subject)
        if tup.xmax_committed and tup.xmax_aborted:
            yield ("hint-contradiction",
                   f"tuple {tuple(tup.tid)} of {rel_name} hints xmax as "
                   f"both committed and aborted", subject)
        for bit_name, xid, expected in (
                ("xmin_committed", tup.xmin, XidStatus.COMMITTED),
                ("xmin_aborted", tup.xmin, XidStatus.ABORTED),
                ("xmax_committed", tup.xmax, XidStatus.COMMITTED),
                ("xmax_aborted", tup.xmax, XidStatus.ABORTED)):
            if getattr(tup, bit_name) and clog.status(xid) is not expected:
                yield ("hint-clog-disagreement",
                       f"tuple {tuple(tup.tid)} of {rel_name} hints "
                       f"{bit_name} but the commit log says xid {xid} is "
                       f"{clog.status(xid).value}",
                       {**subject, "hint": bit_name, "xid": xid,
                        "clog_status": clog.status(xid).value})

    # -- ctid chain acyclicity ------------------------------------------
    def _check_chains(self, rel_name: str, heap) -> Iterator[Issue]:
        #: TIDs proven cycle-free (their chains were fully walked).
        cleared = set()
        for start in heap.scan():
            path = []
            seen_on_path = set()
            tid = start.tid
            while tid is not None and tid not in cleared:
                if tid in seen_on_path:
                    yield ("chain-cycle",
                           f"ctid chain from {tuple(start.tid)} of "
                           f"{rel_name} revisits {tuple(tid)}",
                           {"relation": rel_name,
                            "start_tid": tuple(start.tid),
                            "cycle_tid": tuple(tid)})
                    break
                seen_on_path.add(tid)
                path.append(tid)
                nxt = heap.fetch(tid)
                tid = nxt.next_tid if nxt is not None else None
            else:
                cleared.update(path)

    # -- free-space completeness ----------------------------------------
    def _check_fsm(self, rel_name: str, heap) -> Iterator[Issue]:
        last = heap.page_count - 1
        entries = heap.fsm_entries()
        for page in heap.scan_pages():
            if (page.page_no != last and page.has_room()
                    and page.page_no not in entries):
                yield ("fsm-missing-page",
                       f"page {page.page_no} of {rel_name} has room but "
                       f"is absent from the free-space map: inserts "
                       f"can never reuse it",
                       {"relation": rel_name, "page": page.page_no})
