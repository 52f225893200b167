"""Metrics of the paper's evaluation (section 5).

* **Average system utilization** — requested node-seconds divided by
  available node-seconds, restricted to the *steady-state* portion of the
  simulation: the periods where the queue is non-empty, i.e. the system
  is actually under demand.  Idle nodes while jobs wait are scheduler
  loss (fragmentation); idle nodes with an empty queue are not.
* **Instantaneous utilization** — sampled at every schedule/completion
  event, binned into the ranges of Table 2.
* **Turnaround time** — arrival to completion, averaged over all jobs
  and over large jobs (> 100 nodes), per Figure 7.
* **Makespan** — first arrival to last completion (Figure 8).
* **Scheduling time** — wall-clock seconds inside the allocator per job
  (Table 3).

Utilization counts only *requested* nodes: a LaaS job padded from 11 to
12 nodes contributes 11 — its padding is internal fragmentation, which
is exactly why LaaS cannot reach 98 % instantaneous utilization in
Table 2.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.allocator import AllocatorStats
from repro.obs.metrics import metric

#: Table 2's instantaneous-utilization ranges, as (label, lo, hi) with
#: samples classified by lo <= u < hi (the top bin includes 100).
INSTANT_BINS = (
    (">=98", 98.0, 100.0001),
    ("95-97", 95.0, 98.0),
    ("90-95", 90.0, 95.0),
    ("80-90", 80.0, 90.0),
    ("60-80", 60.0, 80.0),
    ("<=60", -0.0001, 60.0),
)

#: Figure 7's "large job" threshold, in nodes.
LARGE_JOB_NODES = 100


@dataclass
class InstantHistogram:
    """Counts of instantaneous-utilization samples per Table 2 bin."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {label: 0 for label, _, _ in INSTANT_BINS}
    )
    total: int = 0

    def add(self, utilization_pct: float) -> None:
        """Classify one instantaneous-utilization sample into its bin."""
        for label, lo, hi in INSTANT_BINS:
            if lo <= utilization_pct < hi:
                self.counts[label] += 1
                self.total += 1
                return
        raise ValueError(f"utilization {utilization_pct} outside [0, 100]")

    def fraction(self, label: str) -> float:
        """Share of samples in the named bin (0 when no samples)."""
        return self.counts[label] / self.total if self.total else 0.0

    def as_row(self) -> Dict[str, int]:
        """The bin counts as a plain dict (one Table 2 row)."""
        return dict(self.counts)


@dataclass(frozen=True)
class JobRecord:
    """Immutable snapshot of one job's outcome in one simulation run.

    Jobs themselves are shared, mutable objects reused across runs; the
    result of a run must not change when the same trace is replayed
    against another scheme, so every run snapshots its outcomes.
    """

    job_id: int
    size: int
    arrival: float
    start: float
    end: float

    @property
    def turnaround(self) -> float:
        return self.end - self.arrival

    @property
    def wait(self) -> float:
        return self.start - self.arrival


@dataclass
class SimResult:
    """Everything one simulation run produced.

    Run-level counters declare their metric names once, on their fields
    (:func:`repro.obs.metrics.metric`); the allocator's counters ride
    along as one :class:`AllocatorStats` copy in ``stats``.
    """

    scheme: str
    trace_name: str
    system_nodes: int
    jobs: List[JobRecord]
    makespan: float = metric(
        "repro_sim_makespan_seconds",
        "first arrival to last completion, simulated seconds",
        kind="gauge", default=MISSING)
    busy_area: float = metric(
        "repro_sim_busy_node_seconds",
        "requested node-seconds done while the queue was non-empty",
        default=MISSING)
    demand_area: float = metric(
        "repro_sim_demand_node_seconds",
        "node-seconds available while the queue was non-empty",
        default=MISSING)
    total_busy_area: float = metric(
        "repro_sim_total_busy_node_seconds",
        "requested node-seconds over the whole run", default=MISSING)
    instant: InstantHistogram
    #: the allocator's counters, copied when the run ended
    stats: AllocatorStats
    #: ids of jobs that could never be started (should be empty)
    unscheduled: List[int] = field(default_factory=list)
    #: per-interval time-series rows, when the run was sampled
    #: (see :mod:`repro.obs.sampler`); empty otherwise.  Plain dicts so
    #: the result stays picklable across the grid engine's process pool.
    samples: List[Dict[str, Any]] = field(default_factory=list)
    #: fault-timeline counters (zero without a timeline — see
    #: :mod:`repro.sched.resilience`); wasted node-seconds exclude work
    #: saved by the checkpoint model and are already in the busy areas
    faults_injected: int = metric(
        "repro_fault_injections_total",
        "fault-timeline fail events applied")
    faults_repaired: int = metric(
        "repro_fault_repairs_total",
        "fault-timeline repair events applied")
    resubmissions: int = metric(
        "repro_sim_resubmissions_total",
        "jobs killed by a fault and resubmitted")
    wasted_node_seconds: float = metric(
        "repro_sim_wasted_node_seconds_total",
        "node-seconds of execution destroyed by fault kills", default=0.0)
    degraded_node_seconds: float = metric(
        "repro_sim_degraded_node_seconds_total",
        "integral of out-of-service nodes over simulated time",
        default=0.0)
    #: under batch-step mode this is the round count (far below the
    #: event count on bursty traces), under event-driven replay one per
    #: event batch
    scheduling_rounds: int = metric(
        "repro_sched_rounds_total",
        "scheduling passes run (batch-step rounds)")
    #: the batch-step Δt the run used (None = event-driven)
    step_interval: Optional[float] = None
    #: per-job scheduling-provenance rows (plain dicts, picklable);
    #: populated only when the simulator ran with ``provenance=True`` —
    #: see :func:`write_provenance_jsonl` for the column catalog
    provenance: List[Dict[str, Any]] = field(default_factory=list)
    #: stage-profiler snapshot (see :mod:`repro.obs.prof`); attached by
    #: the runner when profiling was requested, None otherwise
    prof: Optional[Dict[str, Any]] = None

    # ``COUNT_FIELDS`` in ``bench/replay.py`` reads these five counters
    # by name off the result; every other reader uses ``stats``.
    @property
    def alloc_attempts(self) -> int:
        return self.stats.attempts

    @property
    def cache_hits(self) -> int:
        return self.stats.cache_hits

    @property
    def backtrack_steps(self) -> int:
        return self.stats.backtrack_steps

    @property
    def queue_prefiltered(self) -> int:
        return self.stats.queue_prefiltered

    @property
    def xpass_memo_hits(self) -> int:
        # The cross-pass search memo is gone; this constant stays only
        # because bench/replay.py's COUNT_FIELDS reads the name.
        return 0

    # ------------------------------------------------------------------
    @property
    def steady_state_utilization(self) -> float:
        """Average utilization (%) over the under-demand portion."""
        if self.demand_area <= 0:
            return 100.0
        return 100.0 * self.busy_area / self.demand_area

    @property
    def overall_utilization(self) -> float:
        """Average utilization (%) over the entire makespan."""
        area = self.system_nodes * self.makespan
        return 100.0 * self.total_busy_area / area if area else 0.0

    @property
    def mean_turnaround(self) -> float:
        return _mean([j.turnaround for j in self.jobs])

    @property
    def mean_turnaround_large(self) -> float:
        """Mean turnaround of jobs larger than 100 nodes (NaN if none)."""
        return _mean(
            [j.turnaround for j in self.jobs if j.size > LARGE_JOB_NODES]
        )

    @property
    def mean_wait(self) -> float:
        return _mean([j.wait for j in self.jobs])

    def wait_quantiles(
        self, qs: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[float, float]:
        """Nearest-rank quantiles of per-job wait (queueing latency).

        Returns ``{q: seconds}``; ``0.0`` when the run started no jobs —
        a degenerate run has no latency to report, and a NaN here would
        leak into the exported ``repro_sched_wait_seconds`` gauges
        (NaN poisons downstream aggregation silently).  Nearest-rank
        (ceil(q*n)-th order statistic) so the reported latency is always
        one a job actually experienced.
        """
        waits = sorted(j.wait for j in self.jobs)
        n = len(waits)
        out: Dict[float, float] = {}
        for q in qs:
            if not n:
                out[q] = 0.0
            else:
                rank = min(n - 1, max(0, int(math.ceil(q * n)) - 1))
                out[q] = waits[rank]
        return out

    @property
    def mean_sched_time_per_job(self) -> float:
        """Table 3's metric: allocator wall-clock seconds per job."""
        return self.stats.alloc_seconds / len(self.jobs) if self.jobs else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Share of executed node-seconds that survived to completion.

        ``1.0`` means no work was lost to fault kills; fault-free runs
        (or runs that did no work at all) report 1.0.
        """
        if self.total_busy_area <= 0:
            return 1.0
        frac = 1.0 - self.wasted_node_seconds / self.total_busy_area
        return min(1.0, max(0.0, frac))

    def mean_bounded_slowdown(self, tau: float = 10.0) -> float:
        """Mean bounded slowdown (Feitelson's standard fairness metric):
        ``max(1, turnaround / max(run_time, tau))`` per job, with the
        ``tau`` floor keeping very short jobs from dominating."""
        if not self.jobs:
            return float("nan")
        total = 0.0
        for r in self.jobs:
            run_time = max(r.end - r.start, tau)
            total += max(1.0, r.turnaround / run_time)
        return total / len(self.jobs)

    def turnaround_by_size_class(
        self, bounds: Sequence[int] = (1, 4, 16, 64, 256)
    ) -> Dict[str, float]:
        """Mean turnaround per job-size class.

        ``bounds`` are inclusive upper edges; a final open class collects
        everything larger.  Classes with no jobs are omitted.
        """
        edges = sorted(bounds)
        labels: List[str] = []
        lo = 1
        for hi in edges:
            labels.append(f"{lo}-{hi}" if lo != hi else str(hi))
            lo = hi + 1
        labels.append(f">{edges[-1]}")
        classes: Dict[str, List[float]] = {label: [] for label in labels}
        for r in self.jobs:
            label = labels[-1]
            lo = 1
            for idx, hi in enumerate(edges):
                if r.size <= hi:
                    label = labels[idx]
                    break
            classes[label].append(r.turnaround)
        # insertion order is size order; empty classes are omitted
        return {
            label: _mean(vals) for label, vals in classes.items() if vals
        }

    def as_registry(self, registry=None, labels: Optional[Dict[str, str]] = None):
        """This result's counters, ``stats`` included, as a live
        metric-registry view.

        The registry's series read these fields on demand (the
        collector pattern — see :mod:`repro.obs.bridge`), so the two
        representations cannot disagree.
        """
        from repro.obs.bridge import registry_for_result

        return registry_for_result(self, registry=registry, labels=labels)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.scheme:>9} on {self.trace_name}: "
            f"util={self.steady_state_utilization:5.1f}%  "
            f"makespan={self.makespan:12.0f}s  "
            f"turnaround={self.mean_turnaround:10.0f}s  "
            f"sched={self.mean_sched_time_per_job * 1e3:7.3f}ms/job"
        )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


#: Column order of the provenance export, fixed so CSV headers and the
#: schema validator (``benchmarks/_check_obs_schema.py --provenance``)
#: agree.  Catalog with semantics: ``docs/observability.md``.
PROVENANCE_COLUMNS = (
    "job_id", "size", "arrival", "first_eligible", "attempts",
    "skip_cache", "skip_screen", "skip_search", "skip_budget",
    "start", "end", "wait", "state",
)


def _finite_or_none(value: Any) -> Any:
    """Map non-finite floats to ``None`` (JSON has no NaN/Infinity —
    ``json.dumps`` would happily emit them and produce lines no strict
    parser accepts; CSV readers choke on ``nan`` cells the same way)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_provenance_jsonl(rows: Sequence[Dict[str, Any]], path) -> None:
    """Write provenance rows as JSON Lines, one job per line.

    Keys are emitted in :data:`PROVENANCE_COLUMNS` order; unknown keys
    in a row are an error (the export format is a contract).  Non-finite
    floats are emitted as ``null`` so every line parses under strict
    JSON even for degenerate rows (a job that never became eligible)."""
    with open(path, "w") as fh:
        for row in rows:
            extra = set(row) - set(PROVENANCE_COLUMNS)
            if extra:
                raise ValueError(f"unknown provenance columns: {sorted(extra)}")
            fh.write(json.dumps(
                {k: _finite_or_none(row.get(k)) for k in PROVENANCE_COLUMNS}
            ) + "\n")


def write_provenance_csv(rows: Sequence[Dict[str, Any]], path) -> None:
    """Write provenance rows as CSV (``None`` and non-finite floats
    become empty cells)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROVENANCE_COLUMNS)
        for row in rows:
            writer.writerow(
                "" if _finite_or_none(row.get(k)) is None else row.get(k)
                for k in PROVENANCE_COLUMNS
            )


def fidelity_report(event: SimResult, batch: SimResult) -> Dict[str, float]:
    """Deltas of a batch-step run against its event-driven ground truth.

    Both results must come from the same trace and scheme; the report
    quantifies what the coarser scheduling grid cost (or saved):
    utilization in percentage points, turnaround/makespan/wait
    relatively, plus the round and allocator-attempt ratios that explain
    *why* batch mode is cheaper.  ``benchmarks/bench_batch_fidelity.py``
    tabulates this per scheme.
    """
    if (event.trace_name, event.scheme) != (batch.trace_name, batch.scheme):
        raise ValueError(
            "fidelity_report compares one (trace, scheme) pair: "
            f"{(event.trace_name, event.scheme)} vs "
            f"{(batch.trace_name, batch.scheme)}"
        )

    def _rel(a: float, b: float) -> float:
        return 100.0 * (b - a) / a if a else float("nan")

    return {
        "util_delta_pp": (
            batch.steady_state_utilization - event.steady_state_utilization
        ),
        "turnaround_delta_pct": _rel(
            event.mean_turnaround, batch.mean_turnaround
        ),
        "wait_delta_s": batch.mean_wait - event.mean_wait,
        "makespan_delta_pct": _rel(event.makespan, batch.makespan),
        "rounds_ratio": (
            batch.scheduling_rounds / event.scheduling_rounds
            if event.scheduling_rounds else float("nan")
        ),
        "attempts_ratio": (
            batch.stats.attempts / event.stats.attempts
            if event.stats.attempts else float("nan")
        ),
    }


def utilization_timeline(
    result: SimResult, buckets: int = 20
) -> List[Tuple[float, float]]:
    """Time-bucketed utilization series reconstructed from job records.

    Returns ``buckets`` points ``(bucket start time, utilization %)``
    over the makespan — the "utilization over time" view that makes
    drain dips and steady-state plateaus visible.  Counts requested
    nodes, like every other utilization figure here.
    """
    if buckets < 1:
        raise ValueError("buckets must be positive")
    if not result.jobs or result.makespan <= 0:
        return [(0.0, 0.0)] * buckets
    t0 = min(r.arrival for r in result.jobs)
    width = result.makespan / buckets
    area = [0.0] * buckets
    for r in result.jobs:
        start, end = r.start - t0, r.end - t0
        first = max(0, min(buckets - 1, int(start // width)))
        last = max(0, min(buckets - 1, int((end - 1e-12) // width)))
        for b in range(first, last + 1):
            lo = max(start, b * width)
            hi = min(end, (b + 1) * width)
            if hi > lo:
                area[b] += r.size * (hi - lo)
    cap = result.system_nodes * width
    return [
        (t0 + b * width, 100.0 * area[b] / cap) for b in range(buckets)
    ]
