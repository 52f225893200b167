"""Bind the repo's legacy counter carriers into a metric registry.

Three generations of ad-hoc counters predate :mod:`repro.obs`:

* :class:`repro.core.allocator.AllocatorStats` — allocator attempt /
  cache / search-effort counters (three perf PRs each added their own);
* :class:`repro.sched.metrics.SimResult` — per-run aggregates plus a
  mirror of the allocator counters;
* :class:`repro.sched.log.ScheduleLog` — the start-mechanism mix.

This module absorbs all of them into one :class:`MetricRegistry` as
**bound** instruments: the registry reads the live legacy storage at
snapshot/export time, so the legacy attributes and the registry are two
views of the same numbers by construction — nothing is double-counted,
nothing can drift, and the simulation hot path pays nothing.  The
field-for-field correspondence is pinned by the metric name catalog in
``docs/observability.md`` and enforced by ``tests/test_obs_parity.py``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.obs.metrics import MetricRegistry

#: AllocatorStats field -> (metric name, kind, help)
STATS_METRICS = {
    "attempts": ("repro_alloc_attempts_total", "counter",
                 "allocation attempts (successes + failures)"),
    "successes": ("repro_alloc_successes_total", "counter",
                  "allocation attempts that placed the job"),
    "failures": ("repro_alloc_failures_total", "counter",
                 "allocation attempts that found no placement"),
    "releases": ("repro_alloc_releases_total", "counter",
                 "completed jobs whose resources were released"),
    "alloc_seconds": ("repro_alloc_seconds_total", "counter",
                      "wall-clock seconds inside allocate()/release()"),
    "two_level": ("repro_alloc_two_level_total", "counter",
                  "successful two-level (single-pod) placements"),
    "three_level": ("repro_alloc_three_level_total", "counter",
                    "successful three-level (cross-pod) placements"),
    "cache_hits": ("repro_feasibility_cache_hits_total", "counter",
                   "feasibility-cache lookups answered without a search"),
    "cache_misses": ("repro_feasibility_cache_misses_total", "counter",
                     "feasibility-cache lookups that ran the search"),
    "cache_invalidations": (
        "repro_feasibility_cache_invalidations_total", "counter",
        "feasibility-cache flushes because free capacity grew"),
    "pods_pruned": ("repro_search_pods_pruned_total", "counter",
                    "pods rejected by the occupancy prefilter"),
    "candidate_hits": ("repro_search_candidate_hits_total", "counter",
                       "candidate lists served from the maintained order"),
    "memo_hits": ("repro_search_memo_hits_total", "counter",
                  "per-search memo hits that skipped a pod sub-search"),
    "xpass_memo_hits": (
        "repro_search_xpass_memo_hits_total", "counter",
        "cross-pass negative-memo hits that skipped a pod sub-search"),
    "xpass_memo_epoch_flushes": (
        "repro_search_xpass_memo_epoch_flushes_total", "counter",
        "cross-pass memo entries dropped because the pod epoch moved"),
    "xpass_memo_replayed_steps": (
        "repro_search_xpass_memo_replayed_steps_total", "counter",
        "backtracking steps replayed from cross-pass memo hits"),
    "backtrack_steps": ("repro_search_backtrack_steps_total", "counter",
                        "backtracking steps executed by searches"),
    "queue_prefiltered": (
        "repro_queue_prefiltered_total", "counter",
        "queued candidates skipped by the vector pass's prefilter"),
    "size_cut_skips": (
        "repro_size_cut_skips_total", "counter",
        "prefilter skips proven by the monotone size cut"),
}

#: SimResult field -> (metric name, kind, help); counter mirrors of the
#: allocator stats reuse the STATS_METRICS names so one catalog covers
#: both carriers.
RESULT_METRICS = {
    "makespan": ("repro_sim_makespan_seconds", "gauge",
                 "first arrival to last completion, simulated seconds"),
    "busy_area": ("repro_sim_busy_node_seconds", "counter",
                  "requested node-seconds done while the queue was non-empty"),
    "demand_area": ("repro_sim_demand_node_seconds", "counter",
                    "node-seconds available while the queue was non-empty"),
    "total_busy_area": ("repro_sim_total_busy_node_seconds", "counter",
                        "requested node-seconds over the whole run"),
    "sched_seconds": ("repro_sched_seconds_total", "counter",
                      "wall-clock seconds inside the allocator"),
    "alloc_attempts": ("repro_alloc_attempts_total", "counter",
                       STATS_METRICS["attempts"][2]),
    "cache_hits": STATS_METRICS["cache_hits"],
    "cache_misses": STATS_METRICS["cache_misses"],
    "pods_pruned": STATS_METRICS["pods_pruned"],
    "candidate_hits": STATS_METRICS["candidate_hits"],
    "memo_hits": STATS_METRICS["memo_hits"],
    "xpass_memo_hits": STATS_METRICS["xpass_memo_hits"],
    "xpass_memo_epoch_flushes": STATS_METRICS["xpass_memo_epoch_flushes"],
    "xpass_memo_replayed_steps": STATS_METRICS["xpass_memo_replayed_steps"],
    "backtrack_steps": STATS_METRICS["backtrack_steps"],
    "queue_prefiltered": STATS_METRICS["queue_prefiltered"],
    "size_cut_skips": STATS_METRICS["size_cut_skips"],
    "faults_injected": ("repro_fault_injections_total", "counter",
                        "fault-timeline fail events applied"),
    "faults_repaired": ("repro_fault_repairs_total", "counter",
                        "fault-timeline repair events applied"),
    "resubmissions": ("repro_sim_resubmissions_total", "counter",
                      "jobs killed by a fault and resubmitted"),
    "wasted_node_seconds": (
        "repro_sim_wasted_node_seconds_total", "counter",
        "node-seconds of execution destroyed by fault kills"),
    "degraded_node_seconds": (
        "repro_sim_degraded_node_seconds_total", "counter",
        "integral of out-of-service nodes over simulated time"),
    "scheduling_rounds": ("repro_sched_rounds_total", "counter",
                          "scheduling passes run (batch-step rounds)"),
}

#: AllocatorStats fields that have no SimResult mirror (bound separately
#: when a registry holds both carriers)
STATS_ONLY_FIELDS = (
    "successes", "failures", "releases", "alloc_seconds",
    "two_level", "three_level", "cache_invalidations",
)


def registry_for_stats(
    stats,
    registry: Optional[MetricRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> MetricRegistry:
    """Bind every :class:`AllocatorStats` field into ``registry``."""
    registry = registry or MetricRegistry()
    labels = dict(labels or {})
    for field, (name, kind, help) in STATS_METRICS.items():
        registry.bind(name, help, _getter(stats, field), kind=kind,
                      labels=labels)
    return registry


def registry_for_result(
    result,
    registry: Optional[MetricRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> MetricRegistry:
    """Bind a :class:`SimResult`'s aggregates and counter mirrors.

    ``labels`` defaults to ``{scheme, trace}`` taken from the result,
    so multi-run registries stay collision-free.
    """
    registry = registry or MetricRegistry()
    if labels is None:
        labels = {"scheme": result.scheme, "trace": result.trace_name}
    labels = dict(labels)
    for field, (name, kind, help) in RESULT_METRICS.items():
        registry.bind(name, help, _getter(result, field), kind=kind,
                      labels=labels)
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


def registry_for_stats_only(
    stats,
    registry: MetricRegistry,
    labels: Mapping[str, str],
) -> MetricRegistry:
    """Bind just the stats fields that :func:`registry_for_result` does
    not already cover (for registries holding both carriers)."""
    for field in STATS_ONLY_FIELDS:
        name, kind, help = STATS_METRICS[field]
        registry.bind(name, help, _getter(stats, field), kind=kind,
                      labels=dict(labels))
    return registry


def simulation_registry(
    result=None,
    stats=None,
    log=None,
    registry: Optional[MetricRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> MetricRegistry:
    """One registry over every counter carrier a simulation produced.

    ``labels`` defaults to ``{scheme, trace}`` taken from ``result``
    when one is given (so the same helper serves single runs and
    multi-run sweeps).
    """
    registry = registry or MetricRegistry()
    if labels is None and result is not None:
        labels = {"scheme": result.scheme, "trace": result.trace_name}
    if result is not None:
        registry_for_result(result, registry, labels)
        if stats is not None:
            registry_for_stats_only(stats, registry, dict(labels or {}))
    elif stats is not None:
        registry_for_stats(stats, registry, labels)
    if log is not None:
        registry_for_log(log, registry, labels)
    return registry


# -- late-binding helpers (default-arg capture, not closures in a loop) --
def _getter(obj, field):
    return lambda o=obj, f=field: getattr(o, f)


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
