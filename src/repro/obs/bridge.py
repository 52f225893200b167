"""Bind the repo's counter carriers into a metric registry.

Three carriers hold the counters a simulation produces:

* :class:`repro.core.allocator.AllocatorStats` — allocator attempt /
  cache / search-effort counters;
* :class:`repro.sched.metrics.SimResult` — per-run aggregates, plus a
  copy of the allocator's stats taken at run end (``result.stats``);
* :class:`repro.sched.log.ScheduleLog` — the start-mechanism mix.

Every counter field of the first two declares its metric name, kind
and help once, on the field itself (:func:`repro.obs.metrics.metric`),
and this module binds each declared field as a **bound** series: the
registry reads the carriers' live storage at snapshot/export time, so
the attributes and the registry are two views of the same numbers by
construction — nothing is double-counted, nothing can drift, and the
simulation hot path pays nothing.  The series derived from a result
(job counts, utilization, goodput, the instantaneous histogram, wait
quantiles) and the log's mix are bound here by hand.  The catalog is
listed in ``docs/observability.md`` (a test holds the table to the
exported families) and ``tests/test_obs_parity.py`` holds the series
to the fields.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.obs.metrics import MetricRegistry


def registry_for_stats(
    stats,
    registry: Optional[MetricRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> MetricRegistry:
    """Bind every :class:`AllocatorStats` field into ``registry``."""
    registry = registry or MetricRegistry()
    registry.bind_fields(stats, labels)
    return registry


def registry_for_result(
    result,
    registry: Optional[MetricRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> MetricRegistry:
    """Bind a :class:`SimResult`'s fields, its allocator stats and the
    series derived from it.

    ``labels`` defaults to ``{scheme, trace}`` taken from the result,
    so multi-run registries stay collision-free.
    """
    registry = registry or MetricRegistry()
    if labels is None:
        labels = {"scheme": result.scheme, "trace": result.trace_name}
    labels = dict(labels)
    registry.bind_fields(result, labels)
    registry.bind_fields(result.stats, labels)
    registry.bind(
        "repro_sim_jobs_completed_total", "jobs that ran to completion",
        lambda r=result: len(r.jobs), labels=labels,
    )
    registry.bind(
        "repro_sim_jobs_unscheduled_total",
        "jobs that provably could never start",
        lambda r=result: len(r.unscheduled), labels=labels,
    )
    registry.bind(
        "repro_sim_steady_state_utilization_pct",
        "average utilization over the under-demand portion",
        lambda r=result: r.steady_state_utilization, kind="gauge",
        labels=labels,
    )
    registry.bind(
        "repro_sim_goodput_fraction",
        "share of executed node-seconds that survived to completion",
        lambda r=result: r.goodput_fraction, kind="gauge",
        labels=labels,
    )
    for bin_label in result.instant.counts:
        registry.bind(
            "repro_sim_instant_samples_total",
            "instantaneous-utilization samples per Table 2 bin",
            _bin_getter(result, bin_label),
            labels={**labels, "bin": bin_label},
        )
    for q in (0.5, 0.95, 0.99):
        registry.bind(
            "repro_sched_wait_seconds",
            "per-job scheduling latency (wait) quantiles, nearest-rank",
            _wait_quantile_getter(result, q), kind="gauge",
            labels={**labels, "quantile": f"{q:g}"},
        )
    return registry


def registry_for_log(
    log,
    registry: Optional[MetricRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> MetricRegistry:
    """Bind a :class:`ScheduleLog`'s event and start-mechanism mix."""
    from repro.sched.log import KINDS, VIAS

    registry = registry or MetricRegistry()
    labels = dict(labels or {})
    for event_kind in KINDS:
        registry.bind(
            "repro_sched_events_total", "schedule-log events by kind",
            _kind_getter(log, event_kind),
            labels={**labels, "kind": event_kind},
        )
    for via in VIAS:
        registry.bind(
            "repro_sched_starts_total", "job starts by mechanism",
            _via_getter(log, via), labels={**labels, "via": via},
        )
    return registry


def simulation_registry(
    result,
    log=None,
    registry: Optional[MetricRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> MetricRegistry:
    """One registry over a run's result (with its allocator stats) and,
    when given, its schedule log.

    ``labels`` defaults to ``{scheme, trace}`` taken from ``result``
    (so the same helper serves single runs and multi-run sweeps).
    """
    registry = registry or MetricRegistry()
    if labels is None:
        labels = {"scheme": result.scheme, "trace": result.trace_name}
    registry_for_result(result, registry, labels)
    if log is not None:
        registry_for_log(log, registry, labels)
    return registry


# -- late-binding helpers (default-arg capture, not closures in a loop) --
def _bin_getter(result, bin_label):
    return lambda r=result, b=bin_label: r.instant.counts[b]


def _wait_quantile_getter(result, q):
    return lambda r=result, q=q: r.wait_quantiles((q,))[q]


def _kind_getter(log, event_kind):
    return lambda lg=log, k=event_kind: sum(
        1 for e in lg.events if e.kind == k
    )


def _via_getter(log, via):
    return lambda lg=log, v=via: sum(
        1 for e in lg.events if e.kind == "start" and e.via == v
    )
