"""Trace container and generators (Table 1 conformance)."""

import numpy as np
import pytest

from repro.sched.job import Job
from repro.traces import (
    PAPER_TRACES,
    Trace,
    assign_bandwidth_classes,
    atlas_like,
    cab_like,
    synthetic_trace,
    thunder_like,
)
from repro.traces.synthetic import BANDWIDTH_CLASSES


class TestTraceContainer:
    def test_sorted_by_arrival(self):
        jobs = [
            Job(id=1, size=1, runtime=1.0, arrival=5.0),
            Job(id=2, size=1, runtime=1.0, arrival=1.0),
        ]
        trace = Trace("t", jobs, has_arrivals=True)
        assert [j.id for j in trace] == [2, 1]
        assert len(trace) == 2

    def test_duplicate_ids_rejected(self):
        jobs = [Job(id=1, size=1, runtime=1.0)] * 2
        with pytest.raises(ValueError):
            Trace("t", jobs)

    def test_duplicate_id_is_named(self):
        jobs = [Job(id=i, size=1, runtime=1.0) for i in (1, 2, 3, 2, 1)]
        with pytest.raises(ValueError, match="'t' has duplicate job id 2$"):
            Trace("t", jobs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace("t", [])

    def test_head_preserves_distribution_knobs(self):
        trace = synthetic_trace(16, num_jobs=100, seed=0)
        head = trace.head(10)
        assert len(head) == 10
        assert head.name.startswith("Synth-16")
        assert [j.id for j in head] == [j.id for j in trace][:10]
        # jobs are copies: mutating the head does not touch the original
        head.jobs[0].speedup = 0.9
        assert trace.jobs[0].speedup == 0.0

    def test_head_noop_when_larger(self):
        trace = synthetic_trace(16, num_jobs=10, seed=0)
        assert trace.head(50) is trace

    def test_scale_arrivals(self):
        trace = cab_like("aug", num_jobs=400)
        scaled = trace.scale_arrivals(0.5)
        orig = [j.arrival for j in trace.jobs]
        new = [j.arrival for j in scaled.jobs]
        assert new == [a * 0.5 for a in orig]

    def test_zeroed_arrivals(self):
        trace = cab_like("sep", num_jobs=400).zeroed_arrivals()
        assert all(j.arrival == 0.0 for j in trace.jobs)
        assert not trace.has_arrivals

    def test_stats_row(self):
        trace = synthetic_trace(16, num_jobs=50, seed=0)
        row = trace.stats().as_row()
        assert row["Number of jobs"] == 50
        assert row["Arrival times"] == "N"


class TestSyntheticTrace:
    def test_mean_size_approximate(self):
        trace = synthetic_trace(16, num_jobs=5000, seed=0)
        sizes = np.array([j.size for j in trace.jobs])
        assert 14 < sizes.mean() < 18

    def test_runtimes_uniform_in_range(self):
        trace = synthetic_trace(16, num_jobs=2000, seed=0)
        rts = np.array([j.runtime for j in trace.jobs])
        assert rts.min() >= 20.0 and rts.max() <= 3000.0
        # roughly uniform: the mean sits near the midpoint
        assert 1300 < rts.mean() < 1700

    def test_all_arrive_at_zero(self):
        trace = synthetic_trace(16, num_jobs=100, seed=0)
        assert all(j.arrival == 0.0 for j in trace.jobs)

    def test_contains_single_node_jobs(self):
        trace = synthetic_trace(16, num_jobs=3000, seed=0)
        assert any(j.size == 1 for j in trace.jobs)

    def test_max_size_clamp(self):
        trace = synthetic_trace(16, num_jobs=3000, max_size=64, seed=0)
        assert max(j.size for j in trace.jobs) <= 64

    def test_deterministic_by_seed(self):
        a = synthetic_trace(16, num_jobs=100, seed=5)
        b = synthetic_trace(16, num_jobs=100, seed=5)
        c = synthetic_trace(16, num_jobs=100, seed=6)
        assert [(j.size, j.runtime) for j in a] == [(j.size, j.runtime) for j in b]
        assert [(j.size, j.runtime) for j in a] != [(j.size, j.runtime) for j in c]

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_trace(0)
        with pytest.raises(ValueError):
            synthetic_trace(16, num_jobs=0)
        with pytest.raises(ValueError):
            synthetic_trace(16, min_runtime=-1.0)
        with pytest.raises(ValueError):
            synthetic_trace(16, min_runtime=100.0, max_runtime=10.0)

    def test_bandwidth_classes(self):
        trace = synthetic_trace(16, num_jobs=500, seed=0)
        assert all(j.bw_need in BANDWIDTH_CLASSES for j in trace.jobs)
        # all four classes appear
        assert {j.bw_need for j in trace.jobs} == set(BANDWIDTH_CLASSES)

    def test_assign_bandwidth_stable_under_seed(self):
        jobs1 = [Job(id=i, size=1, runtime=1.0) for i in range(50)]
        jobs2 = [Job(id=i, size=1, runtime=1.0) for i in range(50)]
        assign_bandwidth_classes(jobs1, seed=3)
        assign_bandwidth_classes(jobs2, seed=3)
        assert [j.bw_need for j in jobs1] == [j.bw_need for j in jobs2]


class TestLLNLTraces:
    def test_thunder_characteristics(self):
        trace = thunder_like(num_jobs=3000, seed=0)
        stats = trace.stats()
        assert stats.system_nodes == 1024
        assert stats.max_job_nodes <= 965
        assert stats.min_runtime >= 1.0
        assert stats.max_runtime <= 172_362.0
        assert not trace.has_arrivals
        assert any(j.size == 1 for j in trace.jobs)

    def test_atlas_has_whole_machine_jobs(self):
        trace = atlas_like(num_jobs=2000, seed=0)
        assert max(j.size for j in trace.jobs) == 1024
        assert trace.stats().max_runtime <= 342_754.0

    def test_cab_months(self):
        for month in ("aug", "sep", "oct", "nov"):
            trace = cab_like(month, num_jobs=500, seed=0)
            stats = trace.stats()
            assert stats.system_nodes == 1296
            assert stats.max_job_nodes <= PAPER_TRACES[f"{month.capitalize()}-Cab"]["max_job"]
            assert trace.has_arrivals
            arrivals = [j.arrival for j in trace.jobs]
            assert arrivals == sorted(arrivals)
            assert arrivals[0] == 0.0

    def test_unknown_month_rejected(self):
        with pytest.raises(ValueError):
            cab_like("december")

    def test_power_of_two_mass(self):
        trace = thunder_like(num_jobs=5000, seed=0)
        sizes = [j.size for j in trace.jobs if j.size > 1]
        pow2 = sum(1 for s in sizes if s & (s - 1) == 0)
        assert pow2 / len(sizes) > 0.3  # heavier than exponential alone

    def test_runtimes_skewed_short(self):
        trace = thunder_like(num_jobs=5000, seed=0)
        rts = sorted(j.runtime for j in trace.jobs)
        median = rts[len(rts) // 2]
        mean = sum(rts) / len(rts)
        assert mean > 1.5 * median  # right-skew

    def test_default_job_counts_match_paper(self):
        # we do not generate the full traces here (slow), just check the
        # advertised paper counts
        assert PAPER_TRACES["Thunder"]["num_jobs"] == 105_764
        assert PAPER_TRACES["Oct-Cab"]["num_jobs"] == 125_228
