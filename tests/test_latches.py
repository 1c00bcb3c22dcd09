"""Tests for the latching discipline (repro.engine.latches): rank
ordering enforcement, reentrancy, and condition-variable parking."""

import threading
import time

import pytest

from repro.engine.latches import (EngineLatch, Latch, LatchOrderError,
                                  RANK_CONNECTIONS, RANK_ENGINE,
                                  RANK_METRICS)


class TestOrdering:
    def test_ranks_are_strictly_increasing(self):
        assert RANK_ENGINE < RANK_CONNECTIONS < RANK_METRICS

    def test_increasing_rank_acquisition_allowed(self):
        low = Latch("low", RANK_ENGINE)
        high = Latch("high", RANK_CONNECTIONS)
        with low:
            with high:
                assert low.held_by_me() and high.held_by_me()
        assert not low.held_by_me() and not high.held_by_me()

    def test_decreasing_rank_acquisition_raises(self):
        low = Latch("low", RANK_ENGINE)
        high = Latch("high", RANK_CONNECTIONS)
        with high:
            with pytest.raises(LatchOrderError):
                low.acquire()

    def test_equal_rank_different_latch_raises(self):
        a = Latch("a", RANK_CONNECTIONS)
        b = Latch("b", RANK_CONNECTIONS)
        with a:
            with pytest.raises(LatchOrderError):
                b.acquire()

    def test_reentrant_acquisition_allowed(self):
        latch = Latch("latch", RANK_ENGINE)
        with latch:
            with latch:
                assert latch.held_by_me()
            assert latch.held_by_me()
        assert not latch.held_by_me()

    def test_order_tracking_is_per_thread(self):
        high = Latch("high", RANK_METRICS)
        low = Latch("low", RANK_ENGINE)
        acquired = threading.Event()
        release = threading.Event()

        def holder():
            with high:
                acquired.set()
                release.wait(5)

        thread = threading.Thread(target=holder)
        thread.start()
        assert acquired.wait(5)
        # This thread holds nothing; the low-rank acquire is legal even
        # though another thread currently holds a high-rank latch.
        with low:
            pass
        release.set()
        thread.join(5)
        assert not thread.is_alive()


class TestEngineLatchParking:
    def test_park_returns_when_condition_ready(self):
        latch = EngineLatch()
        flag = {"ready": False}

        def wake():
            time.sleep(0.05)
            with latch:
                flag["ready"] = True
                latch.notify_all()

        thread = threading.Thread(target=wake)
        thread.start()
        with latch:
            assert latch.park(lambda: flag["ready"]) is True
        thread.join(5)
        assert latch.parks == 1
        assert latch.park_timeouts == 0

    def test_park_times_out(self):
        latch = EngineLatch()
        with latch:
            deadline = time.monotonic() + 0.05
            assert latch.park(lambda: False, deadline=deadline) is False
        assert latch.park_timeouts == 1

    def test_park_releases_latch_while_waiting(self):
        """The whole point of parking: another thread can take the
        latch (and satisfy the condition) while the parker sleeps."""
        latch = EngineLatch()
        flag = {"ready": False}
        entered = []

        def other():
            with latch:  # would deadlock if park held the latch
                entered.append(True)
                flag["ready"] = True
                latch.notify_all()

        thread = threading.Thread(target=other)
        with latch:
            thread.start()
            assert latch.park(lambda: flag["ready"]) is True
        thread.join(5)
        assert entered == [True]

    def test_bow_yields_the_latch(self):
        latch = EngineLatch()
        taken = []

        def contender():
            with latch:
                taken.append(True)
                latch.notify_all()

        thread = threading.Thread(target=contender)
        with latch:
            thread.start()
            # Bow until the contender got its turn (bounded wait: bow
            # releases the latch, so the contender cannot starve).
            deadline = time.monotonic() + 5
            while not taken and time.monotonic() < deadline:
                latch.bow()
        thread.join(5)
        assert taken == [True]

    def test_immediate_condition_skips_sleep(self):
        latch = EngineLatch()
        with latch:
            assert latch.park(lambda: True) is True
