"""Unit tests for heap pages, heaps, the buffer manager, and relations."""

import pytest

from repro.mvcc import CommitLog
from repro.storage import BufferManager, Heap, HeapPage, Relation, TID
from repro.storage.tuple import HeapTuple


class TestHeapPage:
    def test_add_and_get(self):
        page = HeapPage(0, 4)
        tup = HeapTuple(tid=TID(0, 0), data={}, xmin=3)
        slot = page.add(tup)
        assert page.get(slot) is tup

    def test_fills_up(self):
        page = HeapPage(0, 2)
        page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=3))
        page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=3))
        assert not page.has_room()
        with pytest.raises(ValueError):
            page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=3))

    def test_slot_reuse_after_remove(self):
        page = HeapPage(0, 2)
        s0 = page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=3))
        page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=3))
        page.remove(s0)
        assert page.has_room()
        assert page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=4)) == s0

    def test_len_counts_live(self):
        page = HeapPage(0, 4)
        s0 = page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=3))
        page.add(HeapTuple(tid=TID(0, 0), data={}, xmin=3))
        page.remove(s0)
        assert len(page) == 1


class TestHeap:
    def test_insert_assigns_tids(self):
        heap = Heap(page_size=2)
        tids = [heap.insert({"k": i}, xid=3, cid=0).tid for i in range(5)]
        assert len(set(tids)) == 5
        assert heap.page_count == 3

    def test_fetch_round_trip(self):
        heap = Heap(page_size=4)
        tup = heap.insert({"k": 42}, xid=3, cid=0)
        assert heap.fetch(tup.tid) is tup
        assert heap.fetch(TID(99, 0)) is None

    def test_fetch_does_not_size_the_page(self, monkeypatch):
        heap = Heap(page_size=4)
        tup = heap.insert({"k": 42}, xid=3, cid=0)

        def no_len(page):
            raise AssertionError("fetch must not size the page")

        monkeypatch.setattr(HeapPage, "__len__", no_len)
        assert heap.fetch(tup.tid) is tup

    def test_scan_order_is_physical(self):
        heap = Heap(page_size=2)
        for i in range(5):
            heap.insert({"k": i}, xid=3, cid=0)
        assert [t.data["k"] for t in heap.scan()] == [0, 1, 2, 3, 4]

    def test_insert_copies_data(self):
        heap = Heap(page_size=4)
        src = {"k": 1}
        tup = heap.insert(src, xid=3, cid=0)
        src["k"] = 2
        assert tup.data["k"] == 1

    def test_vacuum_removes_dead_versions(self):
        heap = Heap(page_size=4)
        clog = CommitLog()
        clog.register(3)
        clog.register(4)
        clog.set_committed([3, 4])
        old = heap.insert({"k": 1}, xid=3, cid=0)
        old.set_deleter(4, 0)
        live = heap.insert({"k": 2}, xid=4, cid=0)
        removed = heap.vacuum(horizon_xmin=10, clog=clog)
        assert [t.tid for t in removed] == [old.tid]
        assert heap.fetch(old.tid) is None
        assert heap.fetch(live.tid) is live

    def test_vacuum_respects_horizon(self):
        heap = Heap(page_size=4)
        clog = CommitLog()
        clog.register(3)
        clog.register(4)
        clog.set_committed([3, 4])
        old = heap.insert({"k": 1}, xid=3, cid=0)
        old.set_deleter(4, 0)
        # An active snapshot with xmin=4 can still see the old version.
        assert heap.vacuum(horizon_xmin=4, clog=clog) == []

    def test_rewrite_moves_tuples(self):
        heap = Heap(page_size=2)
        for i in range(6):
            heap.insert({"k": i}, xid=3, cid=0)
        new = heap.rewrite(keep=lambda t: t.data["k"] % 2 == 0)
        assert sorted(t.data["k"] for t in new.scan()) == [0, 2, 4]
        assert new.page_count < heap.page_count


class TestBufferManager:
    def test_unlimited_cache_first_touch_misses(self):
        buf = BufferManager(capacity=None)
        assert buf.touch(1, 0) is True
        assert buf.touch(1, 0) is False
        assert buf.misses == 1 and buf.hits == 1

    def test_lru_eviction(self):
        buf = BufferManager(capacity=2)
        buf.touch(1, 0)
        buf.touch(1, 1)
        buf.touch(1, 2)  # evicts (1,0)
        assert buf.touch(1, 0) is True

    def test_touch_refreshes_lru_position(self):
        buf = BufferManager(capacity=2)
        buf.touch(1, 0)
        buf.touch(1, 1)
        buf.touch(1, 0)  # refresh
        buf.touch(1, 2)  # evicts (1,1), not (1,0)
        assert buf.touch(1, 0) is False
        assert buf.touch(1, 1) is True


class TestRelation:
    def test_index_registry(self):
        rel = Relation(oid=1, name="t", columns=["k", "v"], page_size=8)

        class FakeIndex:
            def __init__(self, name, column):
                self.name, self.column = name, column

        idx = FakeIndex("t_k_idx", "k")
        rel.add_index(idx)
        assert rel.index_on("k") is idx
        assert rel.index_on("v") is None
        rel.drop_index("t_k_idx")
        assert rel.index_on("k") is None
