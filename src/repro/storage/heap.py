"""Heap: the page collection backing one relation."""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterator, List, Optional

from repro.mvcc.clog import CommitLog
from repro.mvcc.visibility import page_all_visible, tuple_is_dead
from repro.storage.page import HeapPage
from repro.storage.tuple import TID, HeapTuple
from repro.storage.vismap import VisibilityMap


class Heap:
    """Append-mostly tuple storage with slot reuse after VACUUM.

    Free space is tracked by a free-space map (FSM): a min-heap of page
    numbers that have had a slot vacuumed, popped lazily as pages
    refill. ``insert`` takes the tail page if it has room, else the
    lowest-numbered page with a vacuumed slot, without rescanning the
    heap.
    """

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._pages: List[HeapPage] = []
        #: All-visible page bits (see repro.storage.vismap).
        self.vismap = VisibilityMap()
        #: FSM: min-heap + membership set of pages with vacuumed slots.
        self._free_pages: List[int] = []
        self._free_set: set = set()

    # -- basic access ----------------------------------------------------
    @property
    def page_count(self) -> int:
        return len(self._pages)

    def page(self, page_no: int) -> Optional[HeapPage]:
        if 0 <= page_no < len(self._pages):
            return self._pages[page_no]
        return None

    def fetch(self, tid: TID) -> Optional[HeapTuple]:
        page = self.page(tid.page)
        return page.get(tid.slot) if page is not None else None

    def insert(self, data: Dict[str, Any], xid: int, cid: int) -> HeapTuple:
        """Store a new tuple version; returns it with its TID set."""
        page = self._page_with_room()
        tup = HeapTuple(tid=TID(page.page_no, 0), data=dict(data),
                        xmin=xid, cmin=cid)
        slot = page.add(tup)
        tup.tid = TID(page.page_no, slot)
        self.vismap.clear(page.page_no)
        return tup

    def _note_free(self, page_no: int) -> None:
        """Record that ``page_no`` regained room (a slot was vacuumed)."""
        if page_no not in self._free_set:
            self._free_set.add(page_no)
            heapq.heappush(self._free_pages, page_no)

    def _page_with_room(self) -> HeapPage:
        # The last page first (the common append case), then the lowest
        # page with a vacuumed slot, then extend.
        if self._pages and self._pages[-1].has_room():
            return self._pages[-1]
        while self._free_pages:
            page = self._pages[self._free_pages[0]]
            if page.has_room():
                return page
            self._free_set.discard(heapq.heappop(self._free_pages))
        page = HeapPage(len(self._pages), self.page_size)
        self._pages.append(page)
        return page

    def attach_pages(self, pages: List[HeapPage]) -> None:
        """Install recovered pages (crash recovery only; the heap must
        be empty). Rebuilds free-space tracking from the pages' own
        room; the visibility map starts empty -- all-visible bits are a
        VACUUM byproduct and are conservatively dropped, so scans fall
        back to per-tuple checks until the next VACUUM."""
        assert not self._pages, "attach_pages on a non-empty heap"
        self._pages = list(pages)
        self.vismap = VisibilityMap()
        self._free_pages = []
        self._free_set = set()
        for page in self._pages[:-1] if self._pages else []:
            # Interior pages advertise room only via vacuumed slots
            # (matching _note_free semantics); the tail page is always
            # probed directly.
            if page.has_room():
                self._note_free(page.page_no)

    # -- scans -------------------------------------------------------------
    def scan(self) -> Iterator[HeapTuple]:
        """All tuple versions, in physical order (sequential scan)."""
        for page in self._pages:
            yield from page.tuples()

    def scan_pages(self) -> Iterator[HeapPage]:
        yield from self._pages

    # -- maintenance ---------------------------------------------------------
    def vacuum(self, horizon_xmin: int, clog: CommitLog, *,
               hint_counter=None) -> List[HeapTuple]:
        """Remove tuple versions no snapshot can see.

        Returns the removed tuples (they carry their TID and data) so
        the caller can clean index entries. Tuples are not moved (plain
        VACUUM, not VACUUM FULL), so physical SIREAD lock targets stay
        valid (paper section 5.2.1).

        Also refreshes the visibility map: a page whose every surviving
        tuple is visible to all current and future snapshots gets its
        all-visible bit set; any other page has it cleared.
        """
        removed: List[HeapTuple] = []
        for page in self._pages:
            for slot in range(page.capacity):
                tup = page.get(slot)
                if tup is not None and tuple_is_dead(
                        tup, horizon_xmin, clog, hint_counter=hint_counter):
                    page.remove(slot)
                    removed.append(tup)
                    self._note_free(page.page_no)
            if page_all_visible(page.tuples(), clog,
                                horizon_xmin=horizon_xmin):
                self.vismap.set_all_visible(page.page_no)
            else:
                self.vismap.clear(page.page_no)
        return removed

    # -- introspection (free-space tracking; used by repro.analysis) ------
    def fsm_entries(self) -> set:
        """Page numbers currently in the free-space map (lazy-deleted:
        entries may point at pages that refilled since)."""
        return set(self._free_set)

    def rewrite(self, keep) -> "Heap":
        """Physically rewrite the heap (CLUSTER / rewriting ALTER TABLE).

        ``keep`` is a predicate over tuples selecting versions to copy.
        Tuples move to new TIDs, which is why the engine must promote
        page- and tuple-granularity SIREAD locks on this relation to
        relation granularity (paper section 5.2.1). The new heap starts
        with an empty visibility map (VACUUM rebuilds it).
        """
        new = Heap(self.page_size)
        for tup in self.scan():
            if keep(tup):
                page = new._page_with_room()
                moved = HeapTuple(tid=TID(page.page_no, 0), data=tup.data,
                                  xmin=tup.xmin, cmin=tup.cmin,
                                  xmax=tup.xmax, cmax=tup.cmax,
                                  xmax_lock_only=tup.xmax_lock_only,
                                  xmin_committed=tup.xmin_committed,
                                  xmin_aborted=tup.xmin_aborted,
                                  xmax_committed=tup.xmax_committed,
                                  xmax_aborted=tup.xmax_aborted,
                                  text=tup.text)
                slot = page.add(moved)
                moved.tid = TID(page.page_no, slot)
        return new
