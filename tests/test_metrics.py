"""Metrics: histogram binning and SimResult arithmetic."""

import math

import pytest

from repro.core.allocator import AllocatorStats
from repro.sched.metrics import (
    INSTANT_BINS,
    InstantHistogram,
    JobRecord,
    SimResult,
)


class TestInstantHistogram:
    def test_bins_cover_0_to_100(self):
        h = InstantHistogram()
        for u in (0.0, 37.5, 60.0, 79.9, 80.0, 90.0, 94.9, 95.0, 97.9, 98.0, 100.0):
            h.add(u)
        assert h.total == 11
        assert sum(h.counts.values()) == 11

    def test_bin_boundaries(self):
        h = InstantHistogram()
        h.add(98.0)
        h.add(97.999)
        h.add(60.0)
        h.add(59.999)
        assert h.counts[">=98"] == 1
        assert h.counts["95-97"] == 1
        assert h.counts["60-80"] == 1
        assert h.counts["<=60"] == 1

    def test_out_of_range_rejected(self):
        h = InstantHistogram()
        with pytest.raises(ValueError):
            h.add(101.0)
        with pytest.raises(ValueError):
            h.add(-1.0)

    def test_fraction(self):
        h = InstantHistogram()
        assert h.fraction(">=98") == 0.0
        h.add(99.0)
        h.add(50.0)
        assert h.fraction(">=98") == 0.5

    def test_bin_labels_match_paper(self):
        assert [b[0] for b in INSTANT_BINS] == [
            ">=98", "95-97", "90-95", "80-90", "60-80", "<=60",
        ]


class TestJobRecord:
    def test_derived_times(self):
        r = JobRecord(job_id=1, size=4, arrival=10.0, start=15.0, end=40.0)
        assert r.wait == 5.0
        assert r.turnaround == 30.0


def make_result(records, makespan=100.0, busy=900.0, demand=1000.0):
    return SimResult(
        scheme="jigsaw",
        trace_name="t",
        system_nodes=10,
        jobs=records,
        makespan=makespan,
        busy_area=busy,
        demand_area=demand,
        total_busy_area=busy,
        instant=InstantHistogram(),
        stats=AllocatorStats(attempts=len(records), alloc_seconds=0.5),
    )


class TestSimResult:
    def test_utilization(self):
        r = make_result([JobRecord(1, 2, 0.0, 0.0, 10.0)])
        assert r.steady_state_utilization == pytest.approx(90.0)
        assert r.overall_utilization == pytest.approx(90.0)

    def test_no_demand_means_full_utilization(self):
        r = make_result([JobRecord(1, 2, 0.0, 0.0, 10.0)], busy=0.0, demand=0.0)
        assert r.steady_state_utilization == 100.0

    def test_turnaround_means(self):
        records = [
            JobRecord(1, 2, 0.0, 0.0, 10.0),
            JobRecord(2, 200, 0.0, 5.0, 25.0),
        ]
        r = make_result(records)
        assert r.mean_turnaround == pytest.approx(17.5)
        assert r.mean_turnaround_large == pytest.approx(25.0)
        assert r.mean_wait == pytest.approx(2.5)

    def test_no_large_jobs_gives_nan(self):
        r = make_result([JobRecord(1, 2, 0.0, 0.0, 10.0)])
        assert math.isnan(r.mean_turnaround_large)

    def test_sched_time_per_job(self):
        r = make_result([JobRecord(1, 2, 0.0, 0.0, 10.0)] )
        assert r.mean_sched_time_per_job == pytest.approx(0.5)

    def test_summary_is_one_line(self):
        r = make_result([JobRecord(1, 2, 0.0, 0.0, 10.0)])
        assert "\n" not in r.summary()
        assert "jigsaw" in r.summary()

    def test_bounded_slowdown(self):
        records = [
            JobRecord(1, 2, 0.0, 0.0, 100.0),    # no wait: slowdown 1
            JobRecord(2, 2, 0.0, 100.0, 200.0),  # waited 100, ran 100: 2
        ]
        r = make_result(records)
        assert r.mean_bounded_slowdown() == pytest.approx(1.5)

    def test_bounded_slowdown_tau_floor(self):
        # 1-second job that waited 100 s: raw slowdown 101, bounded by
        # tau=10 to 101/10
        r = make_result([JobRecord(1, 2, 0.0, 100.0, 101.0)])
        assert r.mean_bounded_slowdown(tau=10.0) == pytest.approx(10.1)

    def test_bounded_slowdown_never_below_one(self):
        r = make_result([JobRecord(1, 2, 0.0, 0.0, 5.0)])
        assert r.mean_bounded_slowdown() == pytest.approx(1.0)

    def test_turnaround_by_size_class(self):
        records = [
            JobRecord(1, 1, 0.0, 0.0, 10.0),
            JobRecord(2, 3, 0.0, 0.0, 30.0),
            JobRecord(3, 50, 0.0, 0.0, 100.0),
            JobRecord(4, 500, 0.0, 0.0, 200.0),
        ]
        r = make_result(records)
        classes = r.turnaround_by_size_class(bounds=(1, 4, 64))
        assert classes["1"] == pytest.approx(10.0)
        assert classes["2-4"] == pytest.approx(30.0)
        assert classes["5-64"] == pytest.approx(100.0)
        assert classes[">64"] == pytest.approx(200.0)

    def test_size_classes_omit_empty(self):
        r = make_result([JobRecord(1, 1, 0.0, 0.0, 10.0)])
        classes = r.turnaround_by_size_class(bounds=(1, 4))
        assert set(classes) == {"1"}


class TestUtilizationTimeline:
    def test_constant_load(self):
        from repro.sched.metrics import utilization_timeline

        r = make_result([JobRecord(1, 5, 0.0, 0.0, 100.0)], makespan=100.0)
        series = utilization_timeline(r, buckets=4)
        assert len(series) == 4
        for _t, util in series:
            assert util == pytest.approx(50.0)

    def test_step_load(self):
        from repro.sched.metrics import utilization_timeline

        records = [
            JobRecord(1, 10, 0.0, 0.0, 50.0),
            JobRecord(2, 10, 0.0, 50.0, 100.0),
            JobRecord(3, 10, 0.0, 50.0, 100.0),
        ]
        r = make_result(records, makespan=100.0)
        series = utilization_timeline(r, buckets=2)
        assert series[0][1] == pytest.approx(100.0)
        assert series[1][1] == pytest.approx(200.0)  # two 10-node jobs on 10

    def test_bucket_boundaries_conserve_area(self):
        from repro.sched.metrics import utilization_timeline

        records = [JobRecord(1, 10, 0.0, 13.0, 87.0)]
        r = make_result(records, makespan=100.0)
        series = utilization_timeline(r, buckets=7)
        total = sum(u for _, u in series) / 100.0 * (100.0 / 7) * 10
        assert total == pytest.approx(10 * (87 - 13), rel=1e-6)

    def test_validation(self):
        from repro.sched.metrics import utilization_timeline

        r = make_result([JobRecord(1, 5, 0.0, 0.0, 1.0)])
        with pytest.raises(ValueError):
            utilization_timeline(r, buckets=0)
