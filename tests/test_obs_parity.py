"""Registry/field parity and telemetry invariance.

The bridge promises the metric registry and the counter catalog — the
fields of ``AllocatorStats`` and ``SimResult`` that declare a metric —
are two views of the same storage; the property test here walks the
catalog and holds them to it field for field, over randomized synthetic
traces and all five schemes.  Telemetry as a whole promises to be
strictly passive; the invariance tests hold the tracer/sampler/log
stack to that.
"""

import dataclasses
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocatorStats
from repro.core.diagnostics import FragmentationSnapshot
from repro.core.registry import make_allocator
from repro.obs.bridge import registry_for_stats, simulation_registry
from repro.obs.metrics import declared_metrics, format_labels
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracer import Tracer, trace_allocator
from repro.sched.job import Job
from repro.sched.log import ScheduleLog
from repro.sched.metrics import SimResult
from repro.sched.resilience import FaultSpec, FaultTimeline
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
        labels = {"scheme": result.scheme, "trace": "prop"}

        # The result carries a copy of the allocator's counters at run
        # end (nothing ran since), not the live object.
        assert result.stats == allocator.stats
        assert result.stats is not allocator.stats
        # Every AllocatorStats field equals its series in the result's
        # registry, and so does every SimResult field in the catalog.
        snap = result.as_registry().snapshot()
        for carrier in (result.stats, result):
            for field, (name, _, _) in declared_metrics(carrier).items():
                assert _series(snap, name, labels) == pytest.approx(
                    getattr(carrier, field)
                ), field

        # Derived series and the ScheduleLog mix.
        snap = simulation_registry(result, log).snapshot()
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
        mechanisms = log.start_mechanisms()
        for via in ("fifo", "backfill", "reserved"):
            assert _series(
                snap, "repro_sched_starts_total", {**labels, "via": via}
            ) == mechanisms.get(via, 0)
        assert _series(
            snap, "repro_sched_events_total", {**labels, "kind": "arrive"}
        ) == len(jobs)

    def test_catalog_covers_every_counter_once(self):
        stats_fields = {f.name for f in dataclasses.fields(AllocatorStats)}
        assert set(declared_metrics(AllocatorStats)) == stats_fields
        names = [
            name
            for carrier in (AllocatorStats, SimResult)
            for name, _, _ in declared_metrics(carrier).values()
        ]
        assert len(names) == len(set(names))
        # Neither carrier of a stats copy copies a single stats field.
        for carrier in (SimResult, FragmentationSnapshot):
            fields = {f.name for f in dataclasses.fields(carrier)}
            assert not fields & stats_fields, carrier

    def test_view_is_live_not_a_copy(self):
        tree = FatTree.from_radix(8)
        allocator = make_allocator("jigsaw", tree)
        registry = registry_for_stats(allocator.stats)
        name = declared_metrics(AllocatorStats)["attempts"][0]
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
        attempts = declared_metrics(AllocatorStats)["attempts"][0]
        makespan = declared_metrics(SimResult)["makespan"][0]
        assert attempts in allocator.stats.as_registry()
        assert attempts in result.as_registry()
        assert makespan in result.as_registry()
        assert "repro_sched_starts_total" in log.as_registry()


class TestDocCatalog:
    def test_doc_table_matches_exported_families(self):
        """``docs/observability.md``'s metric table lists exactly the
        families a faulted, logged run exports, with their kinds."""
        doc = (
            pathlib.Path(__file__).parent.parent / "docs" / "observability.md"
        ).read_text(encoding="utf-8")
        documented = re.findall(
            r"^\| `(repro_\w+)(?:\{[^`]*\})?` \| (\w+) \|", doc, re.M
        )
        assert len(documented) == len(set(documented))

        tree = FatTree.from_radix(4)
        timeline = FaultTimeline((FaultSpec(5.0, "node", (0,), 60.0),))
        log = ScheduleLog()
        jobs = [
            Job(id=i, size=(i % 5) + 1, runtime=40.0, arrival=3.0 * i)
            for i in range(12)
        ]
        result = Simulator(
            make_allocator("jigsaw", tree), event_log=log,
            fault_timeline=timeline,
        ).run(jobs, "doc")
        assert result.faults_injected == result.faults_repaired == 1
        text = simulation_registry(result, log).export_prometheus_text()
        exported = re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M)
        assert set(documented) == set(exported)


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
        assert plain.stats.cache_hits == traced.stats.cache_hits
        assert plain.stats.cache_misses == traced.stats.cache_misses
        assert plain.stats.backtrack_steps == traced.stats.backtrack_steps
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
