"""Discrete-event simulator: hand-crafted schedules with known outcomes."""

import pytest

from repro.core.baseline import BaselineAllocator
from repro.core.jigsaw import JigsawAllocator
from repro.sched.job import Job
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree


@pytest.fixture
def tree():
    return FatTree.from_radix(8)  # 128 nodes


def sim(tree, window=50, policy="renew"):
    return Simulator(
        BaselineAllocator(tree),
        backfill_window=window,
        reservation_policy=policy,
    )


def by_id(result):
    return {r.job_id: r for r in result.jobs}


class TestFifoBasics:
    def test_single_job(self, tree):
        result = sim(tree).run([Job(id=1, size=10, runtime=100.0)])
        rec = by_id(result)[1]
        assert rec.start == 0.0
        assert rec.end == 100.0
        assert result.makespan == 100.0
        assert not result.unscheduled

    def test_fifo_order_when_machine_full(self, tree):
        jobs = [
            Job(id=1, size=128, runtime=10.0),
            Job(id=2, size=128, runtime=10.0),
        ]
        result = sim(tree).run(jobs)
        recs = by_id(result)
        assert recs[1].start == 0.0
        assert recs[2].start == 10.0
        assert result.makespan == 20.0

    def test_parallel_when_capacity_allows(self, tree):
        jobs = [
            Job(id=1, size=60, runtime=10.0),
            Job(id=2, size=60, runtime=10.0),
        ]
        result = sim(tree).run(jobs)
        recs = by_id(result)
        assert recs[1].start == recs[2].start == 0.0

    def test_arrivals_respected(self, tree):
        jobs = [
            Job(id=1, size=10, runtime=5.0, arrival=100.0),
            Job(id=2, size=10, runtime=5.0, arrival=0.0),
        ]
        result = sim(tree).run(jobs)
        recs = by_id(result)
        assert recs[2].start == 0.0
        assert recs[1].start == 100.0
        # makespan runs from the first *arrival*
        assert result.makespan == 105.0


class TestBackfilling:
    def test_easy_backfill_jumps_queue(self, tree):
        """Job 3 (small, short) backfills ahead of blocked job 2."""
        jobs = [
            Job(id=1, size=100, runtime=100.0),
            Job(id=2, size=100, runtime=10.0),   # blocked until t=100
            Job(id=3, size=20, runtime=50.0),    # fits now, ends before 100
        ]
        result = sim(tree).run(jobs)
        recs = by_id(result)
        assert recs[1].start == 0.0
        assert recs[3].start == 0.0  # backfilled
        assert recs[2].start == 100.0

    def test_backfill_must_not_delay_reservation(self, tree):
        """A long job that would overlap the shadow and exceed the spare
        may not backfill."""
        jobs = [
            Job(id=1, size=100, runtime=100.0),
            Job(id=2, size=120, runtime=10.0),   # needs 120: shadow t=100
            Job(id=3, size=28, runtime=500.0),   # 28 free now, but spare=8
        ]
        result = sim(tree, window=50).run(jobs)
        recs = by_id(result)
        assert recs[3].start >= 100.0

    def test_spare_rule_allows_long_narrow_jobs(self, tree):
        jobs = [
            Job(id=1, size=100, runtime=100.0),
            Job(id=2, size=120, runtime=10.0),   # shadow t=100, spare=8
            Job(id=3, size=8, runtime=500.0),    # fits in the spare
        ]
        result = sim(tree).run(jobs)
        assert by_id(result)[3].start == 0.0

    def test_fifo_only_when_window_zero(self, tree):
        jobs = [
            Job(id=1, size=100, runtime=100.0),
            Job(id=2, size=100, runtime=10.0),
            Job(id=3, size=20, runtime=50.0),
        ]
        result = sim(tree, window=0).run(jobs)
        recs = by_id(result)
        assert recs[3].start >= 100.0  # no backfilling at all

    def test_window_limits_lookahead(self, tree):
        """With window=1 only the first queued job may backfill."""
        jobs = [
            Job(id=1, size=100, runtime=100.0),
            Job(id=2, size=100, runtime=10.0),
            Job(id=3, size=200, runtime=10.0),  # can't ever fit now (128 max)
            Job(id=4, size=20, runtime=50.0),   # would fit, but outside window
        ]
        # size 200 > machine: invalid; use 120 instead (fits machine, not now)
        jobs[2] = Job(id=3, size=120, runtime=10.0)
        result = sim(tree, window=1).run(jobs)
        recs = by_id(result)
        assert recs[4].start > 0.0
        wide = sim(tree, window=10).run(jobs)
        assert by_id(wide)[4].start == 0.0


class TestSpeedups:
    def test_isolating_scheme_runs_faster(self, tree):
        job = Job(id=1, size=10, runtime=100.0, speedup=0.25)
        result = Simulator(JigsawAllocator(tree)).run([job])
        assert by_id(result)[1].end == pytest.approx(80.0)

    def test_baseline_ignores_speedups(self, tree):
        job = Job(id=1, size=10, runtime=100.0, speedup=0.25)
        result = sim(tree).run([job])
        assert by_id(result)[1].end == pytest.approx(100.0)


class TestMetricsAccounting:
    def test_utilization_over_demand_period(self, tree):
        # two sequential full-machine jobs: always 100% while demand lasts
        jobs = [
            Job(id=1, size=128, runtime=10.0),
            Job(id=2, size=128, runtime=10.0),
        ]
        result = sim(tree).run(jobs)
        assert result.steady_state_utilization == pytest.approx(100.0)

    def test_idle_gaps_without_demand_not_counted(self, tree):
        jobs = [
            Job(id=1, size=64, runtime=10.0, arrival=0.0),
            Job(id=2, size=64, runtime=10.0, arrival=1000.0),
        ]
        result = sim(tree).run(jobs)
        # Neither job ever waits, so the system is never "under demand":
        # steady-state utilization reports no scheduler loss (100 %) even
        # though the machine is mostly idle — that idleness shows up in
        # the overall figure instead.
        assert result.steady_state_utilization == pytest.approx(100.0)
        assert result.overall_utilization < 10.0

    def test_half_loaded_machine(self, tree):
        jobs = [
            Job(id=1, size=64, runtime=10.0),
            Job(id=2, size=64, runtime=20.0),
            # a queued job that cannot start keeps demand active:
            Job(id=3, size=128, runtime=1.0),
        ]
        result = sim(tree).run(jobs)
        recs = by_id(result)
        assert recs[3].start == 20.0
        # [0,10): 100%, [10,20): 50%; then job 3 runs alone (queue empty)
        assert result.busy_area == pytest.approx(64 * 10 * 2 + 64 * 10)

    def test_results_are_snapshots(self, tree):
        """Re-running the trace must not mutate earlier results."""
        jobs = [Job(id=1, size=10, runtime=100.0, speedup=1.0)]
        base = sim(tree).run(jobs)
        iso = Simulator(JigsawAllocator(tree)).run(jobs)
        assert by_id(base)[1].end == pytest.approx(100.0)
        assert by_id(iso)[1].end == pytest.approx(50.0)

    def test_sched_seconds_accumulate(self, tree):
        result = sim(tree).run([Job(id=i, size=4, runtime=5.0) for i in range(20)])
        assert result.stats.alloc_seconds > 0
        assert result.stats.attempts >= 20


class TestValidationAndEdgeCases:
    def test_oversized_job_rejected_up_front(self, tree):
        with pytest.raises(ValueError, match="cluster has"):
            sim(tree).run([Job(id=1, size=129, runtime=1.0)])

    @pytest.mark.parametrize("second_arrival", [0.0, 100.0])
    def test_duplicate_job_ids_rejected_up_front(self, tree, second_arrival):
        # Two id-1 jobs used to die mid-run with the allocator's "job 1
        # is already allocated" when their lifetimes overlapped, and to
        # replay into two records sharing id 1 when they did not.
        first = Job(id=1, size=4, runtime=10.0)
        sim(tree).run([first])
        start = first.start
        jobs = [
            first,
            Job(id=2, size=4, runtime=10.0),
            Job(id=1, size=4, runtime=10.0, arrival=second_arrival),
        ]
        with pytest.raises(ValueError, match="duplicate job id 1"):
            sim(tree).run(jobs)
        assert first.start == start  # rejected before any job was reset

    def test_same_job_twice_rejected(self, tree):
        job = Job(id=3, size=4, runtime=10.0)
        with pytest.raises(ValueError, match="duplicate job id 3"):
            sim(tree).run([job, job])

    def test_allocator_must_be_idle(self, tree):
        allocator = BaselineAllocator(tree)
        allocator.allocate(99, 4)
        with pytest.raises(ValueError, match="idle"):
            Simulator(allocator)

    def test_unknown_policy_rejected(self, tree):
        with pytest.raises(ValueError, match="reservation policy"):
            Simulator(BaselineAllocator(tree), reservation_policy="wish")

    # Each knob below used to accept values that lose jobs, crash late
    # in ``run`` or silently change meaning; construction now names the
    # knob and the value.
    @pytest.mark.parametrize("policy", ["easy", "conservative"])
    @pytest.mark.parametrize("window", [-1, 2.5])
    def test_backfill_window_must_be_nonnegative_integer(
        self, tree, policy, window
    ):
        with pytest.raises(ValueError, match=f"backfill_window.*{window}"):
            Simulator(
                JigsawAllocator(tree), backfill_window=window,
                backfill_policy=policy,
            )

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_estimate_factor_must_be_finite(self, tree, factor):
        with pytest.raises(ValueError, match=f"estimate_factor.*{factor}"):
            Simulator(JigsawAllocator(tree), estimate_factor=factor)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_step_interval_must_be_finite(self, tree, step):
        with pytest.raises(ValueError, match=f"step_interval.*{step}"):
            Simulator(JigsawAllocator(tree), step_interval=step)

    def test_boundary_knob_values_accepted(self, tree):
        jobs = [Job(id=i, size=8, runtime=10.0) for i in range(30)]
        result = Simulator(
            JigsawAllocator(tree), backfill_window=0, estimate_factor=1.0,
            step_interval=1e-3, checkpoint_interval=0.0,
        ).run(jobs)
        assert len(result.jobs) == 30

    def test_empty_trace(self, tree):
        result = sim(tree).run([])
        assert result.jobs == []
        assert result.makespan == 0.0

    @pytest.mark.parametrize("policy", ["renew", "sticky", "slip"])
    def test_all_policies_complete_all_jobs(self, tree, policy):
        jobs = [
            Job(id=i, size=(i % 30) + 1, runtime=10.0 + i % 7)
            for i in range(120)
        ]
        result = Simulator(
            JigsawAllocator(tree), reservation_policy=policy
        ).run(jobs)
        assert len(result.jobs) == 120
        assert not result.unscheduled
