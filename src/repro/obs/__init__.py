"""Unified telemetry: span tracing, metrics, and time-series sampling.

The observability layer has three pillars, all strictly passive — with
telemetry fully enabled every scheduling decision is byte-identical to a
telemetry-free run (``benchmarks/_fingerprint.py --obs`` enforces it):

* :mod:`repro.obs.tracer` — context-manager **spans** (``sched.pass``,
  ``alloc.search``, ``backfill.window``, ``grid.cell``,
  ``netsim.converge``) recording wall time, simulated time and custom
  attributes, exported as Chrome ``trace_event`` JSON (loadable in
  Perfetto / ``chrome://tracing``) or raw JSONL.  A disabled tracer
  costs one attribute check per simulator-level site; the allocator's
  ``alloc.search`` spans come from :func:`~repro.obs.tracer.trace_allocator`,
  which wraps the allocator from outside for one traced run.
* :mod:`repro.obs.metrics` — a **metric registry** of bound reads
  over the counter catalog: each counter field of
  :class:`~repro.core.allocator.AllocatorStats` and
  :class:`~repro.sched.metrics.SimResult` declares its metric name and
  help once (:func:`~repro.obs.metrics.metric`), and
  :mod:`repro.obs.bridge` binds every declared field, plus the
  :class:`~repro.sched.log.ScheduleLog` mix, behind one
  ``snapshot()`` / ``export_prometheus_text()`` API.  The registry
  reads the fields' own storage, so the two can never disagree.
* :mod:`repro.obs.sampler` — a **time-series sampler** hooked into
  :meth:`repro.sched.simulator.Simulator.run` that emits per-interval
  utilization / queue-depth / fragmentation rows to JSONL, merged
  deterministically in cell order by the experiment-grid engine.

Two further pillars ride the same passivity contract:

* :mod:`repro.obs.prof` — a **hierarchical stage profiler** for the
  allocator hot path, attached from outside for one run
  (``StageProfiler.attach``; ``repro prof`` renders the attribution
  table, ``--prof-stacks`` exports collapsed stacks for flamegraphs).
* :mod:`repro.obs.bench` — the **machine-readable benchmark schema**
  (``BENCH_<name>.json``) and comparator behind the CI perf gate
  (``benchmarks/_perf_gate.py``).

See ``docs/observability.md`` for the span taxonomy, the profiler stage
catalog, the provenance column catalog and the metric name catalog.
"""

from repro.obs.bench import (
    GATE_SCALE,
    compare_bench,
    load_bench_json,
    make_bench_result,
    write_bench_json,
)
from repro.obs.bridge import (
    registry_for_log,
    registry_for_result,
    registry_for_stats,
    simulation_registry,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.prof import (
    StageProfiler,
    merge_snapshots,
    render_attribution,
    top_level_seconds,
)
from repro.obs.sampler import TimeSeriesSampler, merge_streams, write_jsonl
from repro.obs.tracer import (
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    summarize_trace,
    trace_allocator,
)

__all__ = [
    "GATE_SCALE",
    "MetricRegistry",
    "Span",
    "StageProfiler",
    "TimeSeriesSampler",
    "Tracer",
    "compare_bench",
    "get_tracer",
    "load_bench_json",
    "make_bench_result",
    "merge_snapshots",
    "merge_streams",
    "registry_for_log",
    "registry_for_result",
    "registry_for_stats",
    "render_attribution",
    "set_tracer",
    "simulation_registry",
    "summarize_trace",
    "top_level_seconds",
    "trace_allocator",
    "write_bench_json",
    "write_jsonl",
]
