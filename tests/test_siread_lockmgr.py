"""Direct unit tests for the SIREAD lock manager (paper section 5.2.1),
including property-based consistency checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SSIConfig
from repro.errors import CapacityExceededError
from repro.mvcc.snapshot import Snapshot
from repro.ssi.lockmgr import SIReadLockManager
from repro.ssi.sxact import SerializableXact
from repro.ssi.targets import (heap_write_targets, index_page_target,
                               index_rel_target, page_target, rel_target,
                               tuple_target)
from repro.storage.tuple import TID


def sx(xid=1):
    return SerializableXact(xid, Snapshot(1, 2), snapshot_seq=0)


def mgr(**kw):
    defaults = dict(max_pred_locks_per_page=3,
                    max_pred_locks_per_relation=4,
                    max_predicate_locks=10_000)
    defaults.update(kw)
    return SIReadLockManager(SSIConfig(**defaults))


class TestAcquire:
    def test_tuple_lock_recorded(self):
        m, s = mgr(), sx()
        m.acquire_tuple(s, 1, TID(0, 0))
        assert m.holds(s, tuple_target(1, TID(0, 0)))
        assert m.lock_count == 1

    def test_coarser_lock_short_circuits(self):
        m, s = mgr(), sx()
        m.acquire_relation(s, 1)
        m.acquire_tuple(s, 1, TID(0, 0))
        m.acquire_page(s, 1, 0)
        assert m.targets_held(s) == {rel_target(1)}

    def test_page_lock_subsumes_tuple_locks(self):
        m, s = mgr(), sx()
        m.acquire_tuple(s, 1, TID(0, 0))
        m.acquire_tuple(s, 1, TID(0, 1))
        m.acquire_page(s, 1, 0)
        assert m.targets_held(s) == {page_target(1, 0)}

    def test_tuple_promotion_to_page(self):
        m, s = mgr(max_pred_locks_per_page=2), sx()
        for slot in range(3):
            m.acquire_tuple(s, 1, TID(0, slot))
        assert m.targets_held(s) == {page_target(1, 0)}

    def test_page_promotion_to_relation(self):
        m, s = mgr(max_pred_locks_per_relation=2), sx()
        for page in range(3):
            m.acquire_page(s, 1, page)
        assert m.targets_held(s) == {rel_target(1)}

    def test_relation_promotion_subsumes_stranded_tuples(self):
        # Tuple locks on pages without page locks must also be
        # subsumed by a relation lock.
        m, s = mgr(max_pred_locks_per_relation=2), sx()
        m.acquire_tuple(s, 1, TID(9, 0))
        for page in range(3):
            m.acquire_page(s, 1, page)
        assert m.targets_held(s) == {rel_target(1)}

    def test_index_page_promotion(self):
        m, s = mgr(max_pred_locks_per_relation=2), sx()
        for page in range(3):
            m.acquire_index_page(s, 7, page)
        assert m.targets_held(s) == {index_rel_target(7)}

    def test_different_relations_promote_independently(self):
        m, s = mgr(max_pred_locks_per_page=2), sx()
        m.acquire_tuple(s, 1, TID(0, 0))
        m.acquire_tuple(s, 2, TID(0, 0))
        m.acquire_tuple(s, 2, TID(0, 1))
        m.acquire_tuple(s, 2, TID(0, 2))
        held = m.targets_held(s)
        assert tuple_target(1, TID(0, 0)) in held
        assert page_target(2, 0) in held


class TestHolders:
    def test_holders_across_granularities(self):
        m = mgr()
        a, b, c = sx(1), sx(2), sx(3)
        m.acquire_relation(a, 1)
        m.acquire_page(b, 1, 0)
        m.acquire_tuple(c, 1, TID(0, 5))
        holders, summary = m.holders_of(heap_write_targets(1, TID(0, 5)))
        assert holders == {a, b, c}
        assert summary is None

    def test_unrelated_targets_not_matched(self):
        m = mgr()
        a = sx(1)
        m.acquire_tuple(a, 1, TID(0, 5))
        holders, _ = m.holders_of(heap_write_targets(1, TID(0, 6)))
        assert holders == set()
        holders, _ = m.holders_of(heap_write_targets(2, TID(0, 5)))
        assert holders == set()

    def test_own_write_drop_only_exact_tuple(self):
        m, s = mgr(), sx()
        m.acquire_tuple(s, 1, TID(0, 0))
        m.acquire_page(s, 1, 1)
        m.drop_tuple_lock(s, 1, TID(0, 0))
        m.drop_tuple_lock(s, 1, TID(1, 0))  # covered by page lock: kept
        assert m.targets_held(s) == {page_target(1, 1)}


class TestStructuralMaintenance:
    def test_page_split_copies_locks(self):
        m = mgr()
        a, b = sx(1), sx(2)
        m.acquire_index_page(a, 7, 0)
        m.acquire_index_page(b, 7, 0)
        m.page_split(7, 0, 1)
        holders, _ = m.holders_of([index_page_target(7, 1)])
        assert holders == {a, b}
        # Originals retained too.
        holders, _ = m.holders_of([index_page_target(7, 0)])
        assert holders == {a, b}

    def test_page_split_copies_summary_seq(self):
        m, s = mgr(), sx()
        m.acquire_index_page(s, 7, 0)
        m.transfer_to_summary(s, commit_seq=5)
        m.page_split(7, 0, 1)
        _, summary = m.holders_of([index_page_target(7, 1)])
        assert summary == 5

    def test_rewrite_promotion(self):
        m = mgr()
        a = sx(1)
        m.acquire_tuple(a, 1, TID(0, 0))
        m.acquire_page(a, 1, 3)
        m.acquire_index_page(a, 7, 0)
        m.promote_for_rewrite(heap_oid=1, index_oids=[7])
        assert m.targets_held(a) == {rel_target(1)}

    def test_drop_index_transfer(self):
        m = mgr()
        a = sx(1)
        m.acquire_index_page(a, 7, 0)
        m.acquire_index_relation(a, 7)
        m.transfer_index_to_heap(7, heap_oid=1)
        assert m.targets_held(a) == {rel_target(1)}

    def test_drop_index_transfers_summary(self):
        m, s = mgr(), sx()
        m.acquire_index_page(s, 7, 0)
        m.transfer_to_summary(s, commit_seq=9)
        m.transfer_index_to_heap(7, heap_oid=1)
        _, summary = m.holders_of([rel_target(1)])
        assert summary == 9


class TestSummary:
    def test_transfer_to_summary_consolidates(self):
        m = mgr()
        a, b = sx(1), sx(2)
        m.acquire_tuple(a, 1, TID(0, 0))
        m.acquire_tuple(b, 1, TID(0, 0))
        m.transfer_to_summary(a, commit_seq=3)
        m.transfer_to_summary(b, commit_seq=7)
        _, summary = m.holders_of(heap_write_targets(1, TID(0, 0)))
        assert summary == 7  # newest holder's commit seq
        assert m.lock_count == 1  # one consolidated entry

    def test_cleanup_summary_drops_stale(self):
        m, s = mgr(), sx()
        m.acquire_tuple(s, 1, TID(0, 0))
        m.transfer_to_summary(s, commit_seq=3)
        assert m.cleanup_summary(min_active_snapshot_seq=2) == 0
        assert m.cleanup_summary(min_active_snapshot_seq=3) == 1
        assert m.lock_count == 0


class TestCapacity:
    def test_capacity_error(self):
        m, s = mgr(max_predicate_locks=2, max_pred_locks_per_page=100), sx()
        m.acquire_tuple(s, 1, TID(0, 0))
        m.acquire_tuple(s, 1, TID(0, 1))
        with pytest.raises(CapacityExceededError):
            m.acquire_tuple(s, 1, TID(0, 2))

    def test_peak_tracking(self):
        m, s = mgr(), sx()
        for slot in range(3):
            m.acquire_tuple(s, 1, TID(0, slot))
        m.release_all(s)
        assert m.peak_lock_count == 3
        assert m.lock_count == 0


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3),      # actor
                              st.sampled_from(["t", "p", "r", "ip", "ir",
                                               "rel", "drop", "release"]),
                              st.integers(0, 2),      # rel/index oid
                              st.integers(0, 3),      # page
                              st.integers(0, 3)),     # slot
                    max_size=60))
    def test_internal_consistency(self, operations):
        """Forward (target -> holders) and reverse (holder -> targets)
        indexes always agree, and each holder's targets never include a
        finer target covered by a coarser one it also holds."""
        m = mgr()
        actors = {i: sx(i + 1) for i in range(4)}
        for actor_id, op, oid, page, slot in operations:
            actor = actors[actor_id]
            if op == "t":
                m.acquire_tuple(actor, oid, TID(page, slot))
            elif op == "p":
                m.acquire_page(actor, oid, page)
            elif op == "r" or op == "rel":
                m.acquire_relation(actor, oid)
            elif op == "ip":
                m.acquire_index_page(actor, 100 + oid, page)
            elif op == "ir":
                m.acquire_index_relation(actor, 100 + oid)
            elif op == "drop":
                m.drop_tuple_lock(actor, oid, TID(page, slot))
            elif op == "release":
                m.release_all(actor)
        # forward/reverse agreement
        for actor in actors.values():
            for target in m.targets_held(actor):
                holders, _ = m.holders_of([target])
                assert actor in holders
        for target, holders in list(m._locks.items()):
            for holder in holders:
                assert target in m.targets_held(holder)
        # no redundant finer locks under coarser ones
        for actor in actors.values():
            held = m.targets_held(actor)
            for target in held:
                if target[0] == "t":
                    assert page_target(target[1], target[2]) not in held
                    assert rel_target(target[1]) not in held
                elif target[0] == "p":
                    assert rel_target(target[1]) not in held
                elif target[0] == "ip":
                    assert index_rel_target(target[1]) not in held


class _RecountingManager(SIReadLockManager):
    """Reference: the lock count recomputed from the table each time."""

    @property
    def lock_count(self):
        return (sum(len(h) for h in self._locks.values())
                + len(self.summary_targets()))


class TestLockCount:
    @settings(max_examples=75, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3),      # actor
                              st.sampled_from(["t", "p", "r", "ip", "ik",
                                               "drop", "release", "summarize",
                                               "cleanup", "split", "rewrite",
                                               "transfer"]),
                              st.integers(0, 1),      # rel/index oid
                              st.integers(0, 3),      # page
                              st.integers(0, 3)),     # slot
                    max_size=80))
    def test_kept_count_matches_recount(self, operations):
        """The running holder-entry count equals the recomputed sum after
        every operation, and peak tracking, capacity errors and work
        units match a manager that recounts."""
        config = dict(max_pred_locks_per_page=2,
                      max_pred_locks_per_relation=3,
                      max_predicate_locks=14)
        kept = mgr(**config)
        ref = _RecountingManager(SSIConfig(**config))
        runs = [(kept, {i: sx(i + 1) for i in range(4)}),
                (ref, {i: sx(i + 1) for i in range(4)})]
        for seq, (actor_id, op, oid, page, slot) in enumerate(operations):
            outcomes = []
            for m, actors in runs:
                actor = actors[actor_id]
                try:
                    if op == "t":
                        m.acquire_tuple(actor, oid, TID(page, slot))
                    elif op == "p":
                        m.acquire_page(actor, oid, page)
                    elif op == "r":
                        m.acquire_relation(actor, oid)
                    elif op == "ip":
                        m.acquire_index_page(actor, 100 + oid, page)
                    elif op == "ik":
                        m.acquire_index_key(actor, 100 + oid, slot)
                    elif op == "drop":
                        m.drop_tuple_lock(actor, oid, TID(page, slot))
                    elif op == "release":
                        m.release_all(actor)
                    elif op == "summarize":
                        m.transfer_to_summary(actor, float(seq))
                    elif op == "cleanup":
                        m.cleanup_summary(float(seq - 5))
                    elif op == "split":
                        m.page_split(100 + oid, page, page + 4)
                    elif op == "rewrite":
                        m.promote_for_rewrite(oid, [100 + oid])
                    elif op == "transfer":
                        m.transfer_index_to_heap(100 + oid, oid)
                    outcomes.append(None)
                except CapacityExceededError:
                    outcomes.append("capacity")
            assert outcomes[0] == outcomes[1]
            recount = (sum(len(h) for h in kept._locks.values())
                       + len(kept.summary_targets()))
            assert kept.lock_count == recount == ref.lock_count
            assert kept.peak_lock_count == ref.peak_lock_count
            assert kept.work_units == ref.work_units

