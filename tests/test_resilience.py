"""Online fault timeline: job-killing failures inside the simulator."""

import pickle

import pytest

from repro.core.conditions import check_allocation
from repro.core.registry import make_allocator
from repro.sched.job import Job
from repro.sched.log import ScheduleLog
from repro.sched.resilience import FaultSpec, FaultTimeline, ResilienceManager
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree
from repro.traces import synthetic_trace


@pytest.fixture(scope="module")
def tree():
    return FatTree.from_radix(8)


def fresh(scheme, tree, **kwargs):
    return Simulator(make_allocator(scheme, tree), **kwargs)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(0.0, "quantum", (0,))
        with pytest.raises(ValueError):
            FaultSpec(-1.0, "node", (0,))
        with pytest.raises(ValueError):
            FaultSpec(5.0, "node", (0,), end=5.0)

    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_non_finite_start_rejected(self, start):
        with pytest.raises(ValueError, match=f"start={start!r}"):
            FaultSpec(start, "node", (0,))

    def test_nan_end_rejected(self):
        with pytest.raises(ValueError, match="end=nan"):
            FaultSpec(5.0, "node", (0,), end=float("nan"))

    def test_infinite_end_means_never_repaired(self):
        assert FaultSpec(5.0, "node", (0,), end=float("inf")).duration == (
            float("inf")
        )

    def test_target_normalized_to_int_tuple(self):
        spec = FaultSpec(0.0, "node", 7)
        assert spec.target == (7,)
        spec = FaultSpec(0.0, "spine-link", [0, 1, 2])
        assert spec.target == (0, 1, 2)

    def test_duration(self):
        assert FaultSpec(1.0, "node", (0,), 4.0).duration == 3.0
        assert FaultSpec(1.0, "node", (0,)).duration is None


class TestFaultTimeline:
    def test_coerce(self):
        assert not FaultTimeline.coerce(None)
        tl = FaultTimeline((FaultSpec(0.0, "node", (0,)),))
        assert FaultTimeline.coerce(tl) is tl
        assert len(FaultTimeline.coerce([FaultSpec(0.0, "node", (0,))])) == 1

    def test_synthetic_is_deterministic_and_picklable(self):
        a = FaultTimeline.synthetic(64, mttf=500.0, horizon=5000.0, seed=3)
        b = FaultTimeline.synthetic(64, mttf=500.0, horizon=5000.0, seed=3)
        assert a == b
        assert len(a) > 0
        assert pickle.loads(pickle.dumps(a)) == a
        assert a != FaultTimeline.synthetic(
            64, mttf=500.0, horizon=5000.0, seed=4
        )

    def test_synthetic_windows_are_sane(self):
        tl = FaultTimeline.synthetic(32, mttf=300.0, mttr=50.0,
                                     horizon=2000.0, seed=1)
        starts = [s.start for s in tl]
        assert starts == sorted(starts)
        for spec in tl:
            assert spec.kind == "node"
            assert 0 <= spec.target[0] < 32
            assert 0 <= spec.start < 2000.0
            assert spec.end > spec.start

    def test_synthetic_rejects_bad_params(self):
        with pytest.raises(ValueError):
            FaultTimeline.synthetic(0, mttf=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            FaultTimeline.synthetic(4, mttf=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            FaultTimeline.synthetic(4, mttf=1.0, mttr=0.0, horizon=1.0)

    def test_synthetic_rejects_nan_mttf(self):
        with pytest.raises(ValueError, match="mttf=nan"):
            FaultTimeline.synthetic(4, mttf=float("nan"), horizon=1.0)

    def test_synthetic_rejects_nan_mttr(self):
        # It used to inject faults whose repairs never came.
        with pytest.raises(ValueError, match="mttr=nan"):
            FaultTimeline.synthetic(4, mttf=1.0, mttr=float("nan"),
                                    horizon=10.0)

    def test_synthetic_rejects_infinite_mttf(self):
        # It used to return an empty timeline without a word.
        with pytest.raises(ValueError, match="mttf=inf"):
            FaultTimeline.synthetic(4, mttf=float("inf"), horizon=1000.0)

    def test_synthetic_rejects_infinite_mttr(self):
        # It used to return faults whose repairs never came (end=inf).
        with pytest.raises(ValueError, match="mttr=inf"):
            FaultTimeline.synthetic(4, mttf=100.0, mttr=float("inf"),
                                    horizon=1000.0, seed=1)

    @pytest.mark.parametrize("horizon", [float("nan"), -5.0])
    def test_synthetic_rejects_bad_horizon(self, horizon):
        # It used to return an empty timeline without a word.
        with pytest.raises(ValueError, match=f"horizon={horizon!r}"):
            FaultTimeline.synthetic(4, mttf=1.0, horizon=horizon)

    def test_synthetic_rejects_infinite_horizon(self):
        # The per-node renewal loop would append faults forever.
        with pytest.raises(ValueError, match="horizon=inf"):
            FaultTimeline.synthetic(4, mttf=1.0, horizon=float("inf"))

    def test_synthetic_accepts_zero_horizon(self):
        assert len(FaultTimeline.synthetic(4, mttf=1.0, horizon=0.0)) == 0


class TestVictimPolicy:
    """A whole-cluster job killed at t=50 by a node fault repaired at 60."""

    def timeline(self):
        return FaultTimeline((FaultSpec(50.0, "node", (0,), 60.0),))

    def run_one(self, tree, **kwargs):
        job = Job(id=1, size=tree.num_nodes, runtime=100.0, arrival=0.0)
        log = ScheduleLog()
        sim = fresh("baseline", tree, fault_timeline=self.timeline(),
                    event_log=log, **kwargs)
        result = sim.run([job])
        return job, log, result

    def test_requeue_full_redoes_everything(self, tree):
        job, log, result = self.run_one(tree)
        # killed at 50, hardware back at 60, full 100s redone
        assert job.start == 60.0 and job.end == 160.0
        assert result.resubmissions == 1
        assert result.wasted_node_seconds == 50.0 * tree.num_nodes
        kinds = [e.kind for e in log.of_job(1)]
        assert kinds == ["arrive", "start", "kill", "requeue", "start",
                         "complete"]

    def test_requeue_remaining_restarts_from_checkpoint(self, tree):
        job, _, result = self.run_one(
            tree, fault_victim_policy="requeue-remaining",
            checkpoint_interval=30.0,
        )
        # checkpoints at 30 survive: 70s of work remain after the kill
        assert job.start == 60.0 and job.end == pytest.approx(130.0)
        assert result.wasted_node_seconds == pytest.approx(
            20.0 * tree.num_nodes
        )

    def test_continuous_checkpointing_loses_nothing(self, tree):
        job, _, result = self.run_one(
            tree, fault_victim_policy="requeue-remaining",
            checkpoint_interval=0.0,
        )
        assert job.end == pytest.approx(110.0)
        assert result.wasted_node_seconds == pytest.approx(0.0)
        assert result.goodput_fraction == pytest.approx(1.0)

    def test_turnaround_counts_from_original_arrival(self, tree):
        _, _, result = self.run_one(tree)
        (record,) = result.jobs
        assert record.arrival == 0.0
        assert record.turnaround == 160.0

    def test_unknown_policy_rejected(self, tree):
        with pytest.raises(ValueError):
            fresh("baseline", tree, fault_timeline=self.timeline(),
                  fault_victim_policy="exile")

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_checkpoint_interval_must_be_finite(self, tree, interval):
        # A non-finite interval used to behave like 0 (continuous
        # checkpointing) instead of failing.
        match = f"checkpoint_interval.*{interval}"
        with pytest.raises(ValueError, match=match):
            fresh("baseline", tree, fault_timeline=self.timeline(),
                  fault_victim_policy="requeue-remaining",
                  checkpoint_interval=interval)
        with pytest.raises(ValueError, match=match):
            ResilienceManager(
                make_allocator("baseline", tree), self.timeline(),
                "requeue-remaining", interval,
            )


class AuditingSimulator(Simulator):
    """Simulator that audits state and validates every allocation."""

    def __init__(self, allocator, exact_nodes=True, **kwargs):
        super().__init__(allocator, **kwargs)
        self.exact_nodes = exact_nodes
        self.validated = 0
        orig_allocate = allocator.allocate

        def checked_allocate(job_id, size, bw_need=None):
            alloc = orig_allocate(job_id, size, bw_need=bw_need)
            if alloc is not None and allocator.name not in ("baseline", "ta"):
                violations = check_allocation(
                    allocator.tree, alloc, exact_nodes=self.exact_nodes
                )
                assert violations == [], (allocator.name, size, violations)
                self.validated += 1
            allocator.state.audit()
            return alloc

        allocator.allocate = checked_allocate


DEGRADED_TIMELINE = FaultTimeline((
    FaultSpec(100.0, "node", (3,), 2500.0),
    FaultSpec(300.0, "node", (17,), 2000.0),
    FaultSpec(500.0, "leaf-switch", (5,), 3000.0),
    FaultSpec(800.0, "spine-link", (0, 0, 1), 2600.0),
    FaultSpec(1200.0, "l2-switch", (1, 2), 2800.0),
))


@pytest.mark.parametrize("scheme", ["baseline", "jigsaw", "laas", "ta", "lc+s"])
def test_conditions_hold_while_degraded(tree, scheme):
    """All five schemes schedule on the degraded remainder with every
    allocation passing the formal-conditions oracle."""
    trace = synthetic_trace(8, num_jobs=150, seed=4,
                            max_size=tree.num_nodes // 2)
    allocator = make_allocator(scheme, tree)
    sim = AuditingSimulator(allocator, exact_nodes=(scheme != "laas"),
                            fault_timeline=DEGRADED_TIMELINE)
    result = sim.run(trace)
    assert result.faults_injected == len(DEGRADED_TIMELINE)
    assert result.faults_repaired == len(DEGRADED_TIMELINE)
    assert len(result.jobs) == 150  # every job (re)ran to completion
    assert not result.unscheduled
    assert allocator.state.is_idle()  # jobs released, faults repaired
    if scheme not in ("baseline", "ta"):
        assert sim.validated > 0


def test_victim_killed_and_requeued_exactly_once(tree):
    """A fault hitting a running job kills it exactly once; bystanders
    are untouched."""
    trace = synthetic_trace(8, num_jobs=120, seed=7,
                            max_size=tree.num_nodes // 2)
    log = ScheduleLog()
    timeline = FaultTimeline((FaultSpec(50.0, "leaf-switch", (0,), 400.0),))
    sim = fresh("jigsaw", tree, fault_timeline=timeline, event_log=log)
    result = sim.run(trace)
    kills = [e for e in log.events if e.kind == "kill"]
    requeues = [e for e in log.events if e.kind == "requeue"]
    assert len(kills) == result.resubmissions > 0
    assert [e.job_id for e in kills] == [e.job_id for e in requeues]
    for e in kills:
        assert len([k for k in kills if k.job_id == e.job_id]) == 1
        per_job = [ev.kind for ev in log.of_job(e.job_id)]
        assert per_job == ["arrive", "start", "kill", "requeue", "start",
                           "complete"]
    assert result.wasted_node_seconds > 0
    assert 0.0 < result.goodput_fraction < 1.0
    assert len(result.jobs) == 120


def test_empty_timeline_is_event_for_event_identical(tree):
    """The hard guarantee: an empty timeline runs the historical path."""
    trace = synthetic_trace(8, num_jobs=150, seed=9,
                            max_size=tree.num_nodes)
    log_plain = ScheduleLog()
    fresh("jigsaw", tree, event_log=log_plain).run(trace)
    log_empty = ScheduleLog()
    fresh("jigsaw", tree, fault_timeline=FaultTimeline(),
          event_log=log_empty).run(trace)
    assert log_plain.events == log_empty.events


def test_degraded_capacity_integral(tree):
    """An unowned node fault degrades exactly duration x nodes."""
    jobs = [Job(id=1, size=4, runtime=10.0, arrival=0.0)]
    timeline = FaultTimeline((FaultSpec(20.0, "node", (31,), 50.0),))
    result = fresh("baseline", tree, fault_timeline=timeline).run(jobs)
    assert result.degraded_node_seconds == pytest.approx(30.0)
    assert result.resubmissions == 0  # nobody owned node 31


def test_sampler_sees_degraded_nodes(tree):
    from repro.obs.sampler import TimeSeriesSampler

    jobs = [Job(id=1, size=4, runtime=100.0, arrival=0.0)]
    timeline = FaultTimeline((FaultSpec(20.0, "leaf-switch", (7,), 80.0),))
    sampler = TimeSeriesSampler(10.0)
    result = fresh("baseline", tree, fault_timeline=timeline,
                   sampler=sampler).run(jobs)
    degraded = [row["degraded_nodes"] for row in result.samples]
    assert max(degraded) == tree.m1  # one whole leaf out
    assert degraded[0] == 0 and degraded[-1] == 0


def test_link_fault_kills_lcs_bandwidth_claimant(tree):
    """LC+S jobs own links only fractionally; a link fault must still
    find and kill them."""
    job = Job(id=1, size=2 * tree.m1, runtime=100.0, arrival=0.0,
              bw_need=0.25)
    allocator = make_allocator("lc+s", tree)
    probe = allocator.allocate(99, 2 * tree.m1, bw_need=0.25)
    link = probe.leaf_links[0]
    allocator.release(99)
    timeline = FaultTimeline((
        FaultSpec(10.0, "leaf-link", tuple(link), 40.0),
    ))
    result = Simulator(allocator, fault_timeline=timeline).run([job])
    assert result.resubmissions == 1
    assert len(result.jobs) == 1


def test_run_scheme_synthesizes_deterministic_timeline(tree):
    from repro.experiments.runner import paper_setup, run_scheme

    setup = paper_setup("Synth-16", scale=0.005, seed=0)
    a = run_scheme(setup, "jigsaw", mttf=30_000.0, fault_seed=2)
    b = run_scheme(setup, "jigsaw", mttf=30_000.0, fault_seed=2)
    assert a.faults_injected == b.faults_injected > 0
    assert [(r.job_id, r.start, r.end) for r in a.jobs] == [
        (r.job_id, r.start, r.end) for r in b.jobs
    ]
    assert a.wasted_node_seconds == b.wasted_node_seconds
    with pytest.raises(ValueError):
        run_scheme(setup, "jigsaw", mttf=1000.0,
                   fault_timeline=FaultTimeline())


def test_run_scheme_rejects_bad_fault_horizon():
    from repro.experiments.runner import paper_setup, run_scheme

    setup = paper_setup("Synth-16", scale=0.005, seed=0)
    # It used to replay fault-free on an empty timeline.
    with pytest.raises(ValueError, match="horizon=-5.0"):
        run_scheme(setup, "jigsaw", mttf=1000.0, fault_horizon=-5.0)


def test_resilience_metrics_reach_registry(tree):
    from repro.obs.metrics import MetricRegistry

    jobs = [Job(id=1, size=tree.num_nodes, runtime=100.0, arrival=0.0)]
    timeline = FaultTimeline((FaultSpec(50.0, "node", (0,), 60.0),))
    result = fresh("baseline", tree, fault_timeline=timeline).run(jobs)
    registry = result.as_registry()
    text = registry.export_prometheus_text()
    assert "repro_sim_resubmissions_total" in text
    assert "repro_fault_injections_total" in text
    assert "repro_sim_wasted_node_seconds_total" in text
    assert "repro_sim_goodput_fraction" in text


def test_tracer_emits_fault_instants(tree):
    from repro.obs.tracer import Tracer

    jobs = [Job(id=1, size=tree.num_nodes, runtime=100.0, arrival=0.0)]
    timeline = FaultTimeline((FaultSpec(50.0, "node", (0,), 60.0),))
    tracer = Tracer(enabled=True)
    fresh("baseline", tree, fault_timeline=timeline, tracer=tracer).run(jobs)
    names = [e["name"] for e in tracer.events]
    assert "fault.inject" in names
    assert "fault.repair" in names
    assert "sched.kill" in names


def test_permanent_fault_never_repaired(tree):
    """end=None faults stay down; the run still terminates."""
    jobs = [Job(id=1, size=4, runtime=10.0, arrival=0.0)]
    timeline = FaultTimeline((FaultSpec(5.0, "node", (31,)),))
    result = fresh("jigsaw", tree, fault_timeline=timeline).run(jobs)
    assert result.faults_injected == 1
    assert result.faults_repaired == 0
    assert len(result.jobs) == 1
