"""Batch-step scheduling rounds and the event core."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import BaselineAllocator
from repro.obs.sampler import ROW_FIELDS, TimeSeriesSampler
from repro.obs.tracer import Tracer
from repro.sched.eventcore import (
    ARRIVAL,
    COMPLETION,
    FAULT_INJECT,
    FAULT_REPAIR,
    EventStreams,
    round_boundary,
)
from repro.sched.job import Job
from repro.sched.metrics import fidelity_report
from repro.sched.resilience import FaultSpec, FaultTimeline
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree


def _trace(n=200, burst=False):
    return [
        Job(
            id=i + 1,
            size=(i * 7) % 40 + 1,
            runtime=400.0 + (i * 31) % 700,
            arrival=0.0 if burst else i * 5.0,
        )
        for i in range(n)
    ]


def _run(jobs, **kwargs):
    tree = FatTree.from_radix(8)
    return Simulator(BaselineAllocator(tree), **kwargs).run(jobs)


# ----------------------------------------------------------------------
# eventcore units
# ----------------------------------------------------------------------
def _drain(streams, t):
    """One round as ``(time, kind, payload)`` tuples."""
    return list(zip(*streams.take_round(t)))


class TestArrayEventQueue:
    """The pre-known arrival stream on the event heap."""

    def test_stable_order_and_cursor(self):
        streams = EventStreams([(5.0, 0), (1.0, 1), (5.0, 2), (3.0, 3)])
        assert streams.next_time() == 1.0
        times, kinds, payloads = streams.take_round(5.0)
        assert times == [1.0, 3.0, 5.0, 5.0]
        assert kinds == [ARRIVAL] * 4
        # equal-time arrivals keep trace order (by trace index)
        assert payloads == [1, 3, 0, 2]
        assert streams.empty()
        assert streams.next_time() == math.inf

    def test_take_until_partial(self):
        streams = EventStreams([(1.0, 0), (2.0, 1), (3.0, 2)])
        times, _, payloads = streams.take_round(2.0)
        assert times == [1.0, 2.0]
        assert payloads == [0, 1]
        assert streams.next_time() == 3.0


class TestCompletionQueue:
    """Completions pushed onto the event heap as jobs start."""

    def test_round_bucketing_preserves_push_order(self):
        streams = EventStreams([])
        a, b, c = object(), object(), object()
        sa = streams.push_completion(10.0, a)
        sb = streams.push_completion(5.0, b)
        sc = streams.push_completion(10.0, c)
        assert streams.next_time() == 5.0
        times, kinds, slots = streams.take_round(10.0)
        assert times == [5.0, 10.0, 10.0]
        assert kinds == [COMPLETION] * 3
        # equal-time completions keep push order
        assert [streams.completion_jobs[s] for s in slots] == [b, a, c]
        assert (sa, sb, sc) == (0, 1, 2)
        assert streams.empty()

    def test_interleaved_push_and_drain(self):
        streams = EventStreams([])
        streams.push_completion(1.0, "x")
        assert _drain(streams, 1.0) == [(1.0, COMPLETION, 0)]
        streams.push_completion(3.0, "y")
        streams.push_completion(2.0, "z")
        times, _, slots = streams.take_round(5.0)
        assert [streams.completion_jobs[s] for s in slots] == ["z", "y"]
        assert times == [2.0, 3.0]


class TestEventStreamsMerge:
    def test_global_order_repair_completion_arrival_inject(self):
        streams = EventStreams(
            [(10.0, 0)], repairs=[(10.0, 0)], injects=[(10.0, 1)]
        )
        streams.push_completion(10.0, "done")
        _, kinds, _ = streams.take_round(10.0)
        assert kinds == [FAULT_REPAIR, COMPLETION, ARRIVAL, FAULT_INJECT]
        assert streams.empty()

    def test_never_repaired_fault_leaves_streams_empty(self):
        # A fault with ``end=inf`` never fires its repair.  The run loop
        # marks the jobs still waiting unscheduled once ``empty()``
        # holds, so the pending ``inf`` entry must not count.
        streams = EventStreams(
            [(1.0, 0)], repairs=[(math.inf, 0)], injects=[(0.0, 0)]
        )
        assert not streams.empty()
        assert _drain(streams, 0.0) == [(0.0, FAULT_INJECT, 0)]
        assert _drain(streams, 1.0) == [(1.0, ARRIVAL, 0)]
        assert streams.next_time() == math.inf
        assert streams.empty()
        assert streams.heap == [(math.inf, FAULT_REPAIR, 0)]


# Few distinct times, so ties across and within kinds are common.
_event_time = st.integers(min_value=0, max_value=8).map(lambda k: k / 2)


@settings(max_examples=300, deadline=None)
@given(
    arrivals=st.lists(_event_time, max_size=12),
    repairs=st.lists(_event_time, max_size=6),
    injects=st.lists(_event_time, max_size=6),
    rounds=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3).map(lambda k: k / 2),
            st.lists(
                st.integers(min_value=1, max_value=4).map(lambda k: k / 2),
                max_size=4,
            ),
        ),
        max_size=8,
    ),
)
def test_rounds_pop_due_events_in_sorted_order(
    arrivals, repairs, injects, rounds
):
    """Each round holds exactly the pending entries at or below its
    bound, and the rounds joined together are ``sorted()`` of every
    ``(time, kind, payload)`` entry.  Completions are pushed between
    rounds strictly after the last bound, as a started job ends after
    the pass that starts it."""
    streams = EventStreams(
        [(t, row) for row, t in enumerate(arrivals)],
        repairs=[(t, i) for i, t in enumerate(repairs)],
        injects=[(t, i) for i, t in enumerate(injects)],
    )
    pending = (
        [(t, ARRIVAL, row) for row, t in enumerate(arrivals)]
        + [(t, FAULT_REPAIR, i) for i, t in enumerate(repairs)]
        + [(t, FAULT_INJECT, i) for i, t in enumerate(injects)]
    )
    every = list(pending)
    joined = []
    bound = 0.0
    for step, offsets in rounds:
        bound += step
        due = sorted(e for e in pending if e[0] <= bound)
        pending = [e for e in pending if e[0] > bound]
        got = _drain(streams, bound)
        assert got == due
        joined.extend(got)
        for offset in offsets:
            slot = streams.push_completion(bound + offset, object())
            entry = (bound + offset, COMPLETION, slot)
            pending.append(entry)
            every.append(entry)
        assert streams.next_time() == min(
            (e[0] for e in pending), default=math.inf
        )
    last = max((e[0] for e in every), default=0.0)
    joined.extend(_drain(streams, max(last, bound)))
    assert streams.empty()
    assert joined == sorted(every)


class TestEventTimesAreFloats:
    """Every event time is a float, also where the trace or a fault
    spec holds an int: the records' ``arrival``/``start``/``end`` feed
    ``decisions_sha256``, whose JSON writes ``5`` for an int and
    ``5.0`` for a float."""

    @staticmethod
    def _records(as_time, step):
        # Event-driven: job 2 starts on its arrival at 5; node 0 fails
        # at 50 and kills job 1, so job 3 starts in the kill's pass; job
        # 1 restarts when job 3 ends.
        jobs = [
            Job(id=1, size=120, runtime=100.0, arrival=as_time(0)),
            Job(id=2, size=8, runtime=30.0, arrival=as_time(5)),
            Job(id=3, size=16, runtime=20.0, arrival=as_time(10)),
        ]
        faults = FaultTimeline(
            (FaultSpec(as_time(50), "node", (0,), as_time(80)),)
        )
        result = _run(jobs, step_interval=step, fault_timeline=faults)
        assert result.resubmissions == 1
        return [(r.job_id, r.arrival, r.start, r.end) for r in result.jobs]

    @pytest.mark.parametrize("step", [None, 300])
    def test_int_trace_and_fault_times_replay_as_floats(self, step):
        got = self._records(int, step)
        # compare types too: 5 == 5.0
        assert all(
            type(t) is float for _, *times in got for t in times
        ), got
        assert got == self._records(float, step)


class TestRoundBoundary:
    def test_grid_alignment(self):
        assert round_boundary(0.0, 0.0, 300.0) == 0.0
        assert round_boundary(0.0, 1.0, 300.0) == 300.0
        assert round_boundary(0.0, 300.0, 300.0) == 300.0
        assert round_boundary(0.0, 300.1, 300.0) == 600.0
        assert round_boundary(100.0, 150.0, 300.0) == 400.0

    def test_boundary_never_below_event(self):
        t = round_boundary(0.0, 12345.678, 0.1)
        assert t >= 12345.678


# ----------------------------------------------------------------------
# batch-step policy
# ----------------------------------------------------------------------
class TestBatchStepMode:
    def test_rejects_non_positive_interval(self):
        tree = FatTree.from_radix(4)
        with pytest.raises(ValueError, match="step_interval"):
            Simulator(BaselineAllocator(tree), step_interval=0.0)
        with pytest.raises(ValueError, match="step_interval"):
            Simulator(BaselineAllocator(tree), step_interval=-1.0)

    def test_starts_only_on_round_grid(self):
        jobs = _trace()
        result = _run(jobs, step_interval=300.0)
        t0 = min(j.arrival for j in jobs)
        for r in result.jobs:
            k = (r.start - t0) / 300.0
            assert abs(k - round(k)) < 1e-9, r

    def test_all_jobs_complete(self):
        result = _run(_trace(), step_interval=300.0)
        assert len(result.jobs) == 200
        assert not result.unscheduled
        assert result.step_interval == 300.0

    def test_fewer_rounds_than_event_mode_on_burst(self):
        event = _run(_trace(burst=True))
        batch = _run(_trace(burst=True), step_interval=300.0)
        assert batch.scheduling_rounds < event.scheduling_rounds * 0.6
        assert event.step_interval is None

    def test_deterministic(self):
        a = _run(_trace(), step_interval=300.0)
        b = _run(_trace(), step_interval=300.0)
        assert [(r.job_id, r.start, r.end) for r in a.jobs] == [
            (r.job_id, r.start, r.end) for r in b.jobs
        ]

    def test_mid_interval_arrival_waits_for_next_boundary(self):
        # The grid anchors at the first arrival.  A second tiny job
        # arriving mid-interval on an idle cluster must wait for the
        # next boundary — lag bounded by the step.
        jobs = [
            Job(id=1, size=1, runtime=50.0, arrival=0.0),
            Job(id=2, size=1, runtime=50.0, arrival=130.0),
        ]
        result = _run(jobs, step_interval=300.0)
        recs = {r.job_id: r for r in result.jobs}
        assert recs[1].start == pytest.approx(0.0)
        assert recs[2].start == pytest.approx(300.0)
        assert 0.0 <= recs[2].start - recs[2].arrival <= 300.0

    def test_event_mode_unaffected_by_flag_default(self):
        a = _run(_trace())
        b = _run(_trace(), step_interval=None)
        assert [(r.job_id, r.start, r.end) for r in a.jobs] == [
            (r.job_id, r.start, r.end) for r in b.jobs
        ]


class TestBatchTelemetry:
    def test_step_lag_column_and_round_spans(self):
        sampler = TimeSeriesSampler(250.0)
        tracer = Tracer(enabled=True)
        tree = FatTree.from_radix(8)
        result = Simulator(
            BaselineAllocator(tree), step_interval=300.0,
            sampler=sampler, tracer=tracer,
        ).run(_trace())
        assert "step_lag" in ROW_FIELDS
        assert result.samples
        for row in result.samples:
            assert set(ROW_FIELDS) <= set(row)
            # lag since the last pass; it may exceed dt across idle gaps
            assert row["step_lag"] >= 0.0
        assert any(row["step_lag"] > 0.0 for row in result.samples)
        rounds = [e for e in tracer.events if e.get("name") == "sched.round"]
        assert len(rounds) == result.scheduling_rounds
        passes = [e for e in tracer.events if e.get("name") == "sched.pass"]
        assert len(passes) == result.scheduling_rounds

    def test_event_mode_emits_no_round_spans(self):
        tracer = Tracer(enabled=True)
        tree = FatTree.from_radix(8)
        Simulator(BaselineAllocator(tree), tracer=tracer).run(_trace(50))
        assert not [
            e for e in tracer.events if e.get("name") == "sched.round"
        ]


class TestFidelityReport:
    def test_deltas_and_ratios(self):
        event = _run(_trace())
        batch = _run(_trace(), step_interval=300.0)
        report = fidelity_report(event, batch)
        assert set(report) == {
            "util_delta_pp", "turnaround_delta_pct", "wait_delta_s",
            "makespan_delta_pct", "rounds_ratio", "attempts_ratio",
        }
        # batch can only delay starts relative to event-driven replay
        assert report["wait_delta_s"] >= 0.0
        assert 0.0 < report["rounds_ratio"] <= 1.0

    def test_rejects_mismatched_pairs(self):
        event = _run(_trace())
        event.scheme = "other"
        batch = _run(_trace(), step_interval=300.0)
        with pytest.raises(ValueError, match="one \\(trace, scheme\\)"):
            fidelity_report(event, batch)


class TestBatchWithFaults:
    def test_faulted_batch_run_completes(self):
        from repro.sched.resilience import FaultTimeline

        tree = FatTree.from_radix(8)
        timeline = FaultTimeline.synthetic(
            tree.num_nodes, mttf=20_000.0, mttr=1_000.0,
            horizon=30_000.0, seed=3,
        )
        result = Simulator(
            BaselineAllocator(tree), step_interval=300.0,
            fault_timeline=timeline,
            fault_victim_policy="requeue-remaining",
            checkpoint_interval=600.0,
        ).run(_trace())
        assert result.faults_injected > 0
        assert len(result.jobs) == 200
        assert not result.unscheduled
