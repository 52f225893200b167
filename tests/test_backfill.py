"""EASY reservation arithmetic."""

import pytest

from repro.sched.backfill import Reservation, compute_reservation, may_backfill


class TestComputeReservation:
    def test_waits_for_enough_completions(self):
        running = [(100.0, 30), (50.0, 20), (200.0, 50)]
        res = compute_reservation(now=0.0, need=60, free_now=10, running=running)
        # 10 free + 20 at t=50 + 30 at t=100 = 60 -> shadow at t=100
        assert res.shadow_time == 100.0
        assert res.spare_nodes == 0

    def test_spare_nodes(self):
        running = [(50.0, 100)]
        res = compute_reservation(now=0.0, need=60, free_now=10, running=running)
        assert res.shadow_time == 50.0
        assert res.spare_nodes == 50

    def test_fragmentation_blocked_head_uses_next_completion(self):
        # enough nodes free but the allocator said no: shadow is the next
        # completion (the earliest the fragmentation pattern can change)
        running = [(80.0, 5), (40.0, 7)]
        res = compute_reservation(now=0.0, need=10, free_now=20, running=running)
        assert res.shadow_time == 40.0
        assert res.spare_nodes == 20 + 7 - 10
        # an end-time tie releases the smaller job first, as the sorted
        # completion order does
        running = [(80.0, 5), (40.0, 9), (40.0, 7)]
        res = compute_reservation(now=0.0, need=10, free_now=20, running=running)
        assert res.shadow_time == 40.0
        assert res.spare_nodes == 20 + 7 - 10

    def test_nothing_running_and_blocked(self):
        res = compute_reservation(now=5.0, need=10, free_now=20, running=[])
        assert res.shadow_time == 5.0

    def test_never_enough(self):
        res = compute_reservation(now=0.0, need=1000, free_now=0,
                                  running=[(10.0, 5)])
        assert res.shadow_time == float("inf")


class TestMayBackfill:
    def test_fits_before_shadow(self):
        res = Reservation(shadow_time=100.0, spare_nodes=0)
        assert may_backfill(now=0.0, walltime=99.0, free_now=50,
                            effective_size=40, reservation=res)
        assert not may_backfill(now=5.0, walltime=99.0, free_now=50,
                                effective_size=40, reservation=res)

    def test_fits_in_spare(self):
        res = Reservation(shadow_time=10.0, spare_nodes=8)
        assert may_backfill(now=0.0, walltime=1000.0, free_now=50,
                            effective_size=8, reservation=res)
        assert not may_backfill(now=0.0, walltime=1000.0, free_now=50,
                                effective_size=9, reservation=res)

    def test_spare_limited_by_current_free(self):
        res = Reservation(shadow_time=10.0, spare_nodes=100)
        assert not may_backfill(now=0.0, walltime=1000.0, free_now=5,
                                effective_size=8, reservation=res)
