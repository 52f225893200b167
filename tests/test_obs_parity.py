"""Registry/legacy parity and telemetry invariance.

The bound-instrument bridge promises the metric registry and the legacy
counter attributes are two views of the same storage; the property test
here holds them to it field for field, over randomized synthetic traces
and all five schemes.  Telemetry as a whole promises to be strictly
passive; the invariance tests hold the tracer/sampler/log stack to that.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_allocator
from repro.obs.bridge import (
    RESULT_METRICS,
    STATS_METRICS,
    STATS_ONLY_FIELDS,
    registry_for_stats,
    simulation_registry,
)
from repro.obs.metrics import MetricRegistry, format_labels
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracer import Tracer, trace_allocator
from repro.sched.job import Job
from repro.sched.log import ScheduleLog
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree

SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")


def _series(snapshot, name, labels):
    return snapshot[name + format_labels(tuple(labels), tuple(labels.values()))]


def _random_jobs(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    jobs = []
    arrival = 0.0
    for i in range(n):
        arrival += draw(st.floats(min_value=0.0, max_value=200.0))
        jobs.append(Job(
            id=i,
            size=draw(st.integers(min_value=1, max_value=100)),
            runtime=draw(st.floats(min_value=1.0, max_value=500.0)),
            arrival=arrival,
        ))
    return jobs


@st.composite
def sim_inputs(draw):
    return _random_jobs(draw), draw(st.sampled_from(SCHEMES))


class TestParityProperty:
    @settings(max_examples=20, deadline=None)
    @given(sim_inputs())
    def test_registry_equals_legacy_counters(self, inputs):
        jobs, scheme = inputs
        tree = FatTree.from_radix(8)
        allocator = make_allocator(scheme, tree)
        log = ScheduleLog()
        result = Simulator(allocator, event_log=log).run(jobs, "prop")
        stats = allocator.stats
        registry = simulation_registry(result, stats, log)
        snap = registry.snapshot()
        labels = {"scheme": result.scheme, "trace": "prop"}

        # SimResult fields, field for field.
        for field, (name, _, _) in RESULT_METRICS.items():
            assert _series(snap, name, labels) == pytest.approx(
                getattr(result, field)
            ), field
        # AllocatorStats fields not mirrored on the result.
        for field in STATS_ONLY_FIELDS:
            name = STATS_METRICS[field][0]
            assert _series(snap, name, labels) == pytest.approx(
                getattr(stats, field)
            ), field
        # Mirrored stats fields agree with the allocator too (the result
        # copied them at run end; nothing ran since).
        for field in ("cache_hits", "cache_misses", "pods_pruned",
                      "candidate_hits", "memo_hits", "backtrack_steps",
                      "queue_prefiltered", "size_cut_skips"):
            assert getattr(result, field) == getattr(stats, field), field
        # Derived series.
        assert _series(
            snap, "repro_sim_jobs_completed_total", labels
        ) == len(result.jobs)
        assert _series(
            snap, "repro_sim_steady_state_utilization_pct", labels
        ) == pytest.approx(result.steady_state_utilization)
        for bin_label, count in result.instant.counts.items():
            assert _series(
                snap, "repro_sim_instant_samples_total",
                {**labels, "bin": bin_label},
            ) == count
        # ScheduleLog mix.
        mechanisms = log.start_mechanisms()
        for via in ("fifo", "backfill", "reserved"):
            assert _series(
                snap, "repro_sched_starts_total", {**labels, "via": via}
            ) == mechanisms.get(via, 0)
        assert _series(
            snap, "repro_sched_events_total", {**labels, "kind": "arrive"}
        ) == len(jobs)

    def test_view_is_live_not_a_copy(self):
        tree = FatTree.from_radix(8)
        allocator = make_allocator("jigsaw", tree)
        registry = registry_for_stats(allocator.stats)
        name = STATS_METRICS["attempts"][0]
        before = registry.snapshot()[name]
        allocator.allocate(1, 5)
        assert registry.snapshot()[name] == before + 1

    def test_as_registry_methods_delegate(self):
        tree = FatTree.from_radix(8)
        allocator = make_allocator("baseline", tree)
        log = ScheduleLog()
        result = Simulator(allocator, event_log=log).run(
            [Job(id=0, size=4, runtime=5.0)], "t"
        )
        assert STATS_METRICS["attempts"][0] in allocator.stats.as_registry()
        assert RESULT_METRICS["makespan"][0] in result.as_registry()
        assert "repro_sched_starts_total" in log.as_registry()


class TestTelemetryInvariance:
    def _jobs(self):
        return [
            Job(id=i, size=(i % 13) + 1, runtime=50.0 + 7 * (i % 5),
                arrival=4.0 * i)
            for i in range(60)
        ]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_full_telemetry_changes_nothing(self, scheme):
        tree = FatTree.from_radix(8)
        plain = Simulator(make_allocator(scheme, tree)).run(self._jobs(), "t")

        tracer = Tracer(enabled=True)
        sim = Simulator(
            make_allocator(scheme, tree),
            event_log=ScheduleLog(),
            tracer=tracer,
            sampler=TimeSeriesSampler(25.0),
        )
        traced = sim.run(self._jobs(), "t")

        assert [
            (j.job_id, j.start, j.end) for j in plain.jobs
        ] == [(j.job_id, j.start, j.end) for j in traced.jobs]
        assert plain.makespan == traced.makespan
        assert plain.cache_hits == traced.cache_hits
        assert plain.cache_misses == traced.cache_misses
        assert plain.backtrack_steps == traced.backtrack_steps
        # and the traced run actually observed things
        names = {e["name"] for e in tracer.events}
        assert {"sched.pass", "alloc.search", "sched.start",
                "sched.complete"} <= names
        assert traced.samples

    def test_alloc_span_attrs_present(self):
        tree = FatTree.from_radix(8)
        allocator = make_allocator("jigsaw", tree)
        tracer = Tracer(enabled=True)
        with trace_allocator(tracer, allocator):
            allocator.allocate(1, 5)
            allocator.allocate(2, tree.num_nodes)  # cannot fit: failed
        searches = [
            e for e in tracer.events if e["name"] == "alloc.search"
        ]
        assert len(searches) == 2
        placed, failed = searches
        assert placed["attrs"]["outcome"] == "placed"
        assert placed["attrs"]["scheme"] == "jigsaw"
        assert placed["attrs"]["nodes"] == 5
        assert "strategy" in placed["attrs"]
        assert failed["attrs"]["outcome"] == "failed"
