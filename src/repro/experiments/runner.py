"""Shared experiment setup: the paper's cluster/trace assignments.

Section 5.4.3: the three synthetic traces run on the 1024-, 2662- and
5488-node clusters; Thunder, Atlas and the Cab months run on the
1458-node cluster (chosen over the 1024-node one so the leaf size does
not accidentally divide the power-of-two job sizes, which would flatter
LaaS).  Aug-Cab and Nov-Cab arrivals are scaled by 0.5.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.core.registry import make_allocator
from repro.obs.prof import StageProfiler
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracer import Tracer
from repro.sched.metrics import SimResult
from repro.sched.simulator import Simulator
from repro.sched.speedup import apply_scenario
from repro.topology.fattree import FatTree
from repro.traces import atlas_like, cab_like, synthetic_trace, thunder_like
from repro.traces.trace import Trace

#: paper job counts per trace name
PAPER_JOB_COUNTS = {
    "Synth-16": 10_000,
    "Synth-22": 10_000,
    "Synth-28": 10_000,
    "Synth-32": 10_000,
    "Synth-36": 10_000,
    "Thunder": 105_764,
    "Atlas": 29_700,
    "Aug-Cab": 30_691,
    "Sep-Cab": 87_564,
    "Oct-Cab": 125_228,
    "Nov-Cab": 50_353,
}

#: default scaled-down job counts used by the benchmarks
DEFAULT_JOB_COUNTS = {
    "Synth-16": 2_500,
    "Synth-22": 1_500,
    "Synth-28": 1_200,
    "Synth-32": 1_000,
    "Synth-36": 1_000,
    "Thunder": 4_000,
    "Atlas": 3_000,
    "Aug-Cab": 3_500,
    "Sep-Cab": 3_500,
    "Oct-Cab": 3_500,
    "Nov-Cab": 3_500,
}

#: switch radix of the cluster each trace is simulated on (section
#: 5.4.3; Synth-32 and Synth-36 are the beyond-paper scale-up presets)
TRACE_CLUSTER_RADIX = {
    "Synth-16": 16,
    "Synth-22": 22,
    "Synth-28": 28,
    "Synth-32": 32,
    "Synth-36": 36,
    "Thunder": 18,
    "Atlas": 18,
    "Aug-Cab": 18,
    "Sep-Cab": 18,
    "Oct-Cab": 18,
    "Nov-Cab": 18,
}

#: arrival-time scaling (section 5.1: Aug and Nov ran at low native load)
ARRIVAL_SCALE = {"Aug-Cab": 0.5, "Nov-Cab": 0.5}

ALL_TRACE_NAMES = tuple(PAPER_JOB_COUNTS)

_MIN_JOBS = 300


def default_scale() -> Optional[float]:
    """The job-count scale from ``REPRO_SCALE`` (None = bench defaults).

    ``REPRO_FULL_SCALE=1`` is shorthand for ``REPRO_SCALE=1``.
    """
    if os.environ.get("REPRO_FULL_SCALE"):
        return 1.0
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return None
    return check_scale(float(raw), "REPRO_SCALE")


def check_scale(scale: float, source: str = "scale") -> float:
    """``scale`` itself if it lies in ``(0, 1]`` (NaN does not); else a
    ``ValueError`` naming ``source`` and the value."""
    if not 0 < scale <= 1:
        raise ValueError(f"{source} must be in (0, 1], got {scale}")
    return scale


def _num_jobs(name: str, scale: Optional[float]) -> int:
    if scale is None:
        return DEFAULT_JOB_COUNTS[name]
    return max(_MIN_JOBS, int(PAPER_JOB_COUNTS[name] * scale))


@dataclass(frozen=True)
class ExperimentSetup:
    """One trace bound to its experiment cluster, ready to simulate."""

    trace: Trace
    tree: FatTree

    @property
    def name(self) -> str:
        return self.trace.name


def paper_setup(
    name: str,
    scale: Optional[float] = None,
    seed: int = 0,
    topology: Optional[int] = None,
) -> ExperimentSetup:
    """Build the named trace on its section-5.4.3 cluster.

    ``scale`` multiplies the paper's job count (None = the benchmark
    default counts); arrival scaling for Aug/Nov-Cab is applied here.
    ``topology`` overrides the trace's default switch radix (e.g. 32
    replays any trace on the 8192-node scale-up cluster).
    """
    if name not in PAPER_JOB_COUNTS:
        raise ValueError(f"unknown trace {name!r}; expected one of {ALL_TRACE_NAMES}")
    if scale is not None:
        check_scale(scale)
    n = _num_jobs(name, scale)
    radix = topology if topology is not None else TRACE_CLUSTER_RADIX[name]
    if name.startswith("Synth-"):
        mean = int(name.split("-")[1])
        tree = FatTree.from_radix(radix)
        trace = synthetic_trace(mean, num_jobs=n, seed=seed, max_size=tree.num_nodes)
        return ExperimentSetup(trace, tree)
    tree = FatTree.from_radix(radix)
    if name == "Thunder":
        trace = thunder_like(num_jobs=n, seed=seed)
    elif name == "Atlas":
        trace = atlas_like(num_jobs=n, seed=seed)
    else:
        month = name.split("-")[0].lower()
        trace = cab_like(month, num_jobs=n, seed=seed)
        if name in ARRIVAL_SCALE:
            trace = trace.scale_arrivals(ARRIVAL_SCALE[name])
    return ExperimentSetup(trace, tree)


def run_scheme(
    setup: ExperimentSetup,
    scheme: str,
    scenario: Optional[str] = None,
    seed: int = 0,
    backfill_window: int = 50,
    reservation_policy: str = "renew",
    backfill_policy: str = "easy",
    estimate_factor: float = 1.0,
    queue_order: str = "fifo",
    event_log=None,
    tracer=None,
    traced: bool = False,
    sampler=None,
    sample_interval: Optional[float] = None,
    metrics=None,
    fault_timeline=None,
    mttf: Optional[float] = None,
    mttr: Optional[float] = None,
    fault_seed: int = 0,
    fault_horizon: Optional[float] = None,
    fault_victim_policy: str = "requeue-full",
    checkpoint_interval: float = 0.0,
    step_interval: Optional[float] = None,
    use_columnar_events: bool = True,
    profiler=None,
    profiled: bool = False,
    provenance: bool = False,
    **allocator_kwargs,
) -> SimResult:
    """Simulate ``setup``'s trace under one scheme (and speed-up scenario).

    ``scenario=None`` is equivalent to ``"none"``: the jobs' speed-ups
    are always (re)assigned, so a setup reused across runs — the worker
    setup cache in :mod:`repro.experiments.grid` does this — cannot leak
    a previous scenario's speed-ups into a scenario-free run.

    Faults (see :mod:`repro.sched.resilience`):

    * ``fault_timeline`` — an explicit :class:`FaultTimeline` (or spec
      sequence; plain picklable data, so it threads through the grid
      engine's process pool unchanged).
    * ``mttf``/``mttr``/``fault_seed``/``fault_horizon`` — synthesize a
      per-node timeline instead (mutually exclusive with an explicit
      one).  The horizon defaults to the trace's last arrival plus the
      trace's total work divided by the cluster size (a lower bound on
      the makespan, so bursty traces whose jobs all arrive at t=0 still
      see faults); the MTTR defaults to one tenth of the MTTF.
    * ``fault_victim_policy``/``checkpoint_interval`` — what happens to
      jobs running on failed hardware.

    ``step_interval`` selects batch-step scheduling rounds every Δt
    simulated seconds instead of a pass per event batch (see
    :class:`repro.sched.simulator.Simulator`); a plain float, so it
    pickles through the grid engine's process pool unchanged.

    ``use_columnar_events=False`` selects the one-event-at-a-time drain
    twin (identical decisions; see the columnar-event notes there).

    Telemetry (all strictly passive; see :mod:`repro.obs`):

    * ``tracer`` — a :class:`~repro.obs.tracer.Tracer` to record spans
      into; ``traced=True`` creates an enabled one when none is given
      (the picklable spelling grid workers use).
    * ``sampler``/``sample_interval`` — a
      :class:`~repro.obs.sampler.TimeSeriesSampler` (or the interval to
      build one from); rows land in ``SimResult.samples``.
    * ``event_log`` — a :class:`~repro.sched.log.ScheduleLog`.
    * ``metrics`` — a :class:`~repro.obs.metrics.MetricRegistry` to
      populate with live views of the run's counters.
    * ``profiler``/``profiled`` — a :class:`~repro.obs.prof.StageProfiler`
      attached to the allocator for the run (``profiled=True`` creates
      a fresh one, the picklable spelling); its snapshot lands in
      ``SimResult.prof``.
    * ``provenance=True`` — record per-job scheduling provenance into
      ``SimResult.provenance`` (see :mod:`repro.sched.metrics`).
    """
    apply_scenario(setup.trace.jobs, scenario or "none", seed=seed)
    allocator = make_allocator(scheme, setup.tree, **allocator_kwargs)
    if profiler is None and profiled:
        profiler = StageProfiler()
    if tracer is None and traced:
        tracer = Tracer(enabled=True)
    if sampler is None and sample_interval is not None:
        sampler = TimeSeriesSampler(sample_interval)
    if mttf is not None:
        if fault_timeline is not None:
            raise ValueError("pass either fault_timeline or mttf, not both")
        from repro.sched.resilience import FaultTimeline

        horizon = fault_horizon
        if horizon is None:
            jobs = setup.trace.jobs
            work = sum(j.runtime * j.size for j in jobs)
            horizon = max((j.arrival for j in jobs), default=0.0) + (
                work / setup.tree.num_nodes
            )
        fault_timeline = FaultTimeline.synthetic(
            setup.tree.num_nodes, mttf, mttr, horizon, seed=fault_seed
        )
    sim = Simulator(
        allocator,
        backfill_window=backfill_window,
        reservation_policy=reservation_policy,
        backfill_policy=backfill_policy,
        estimate_factor=estimate_factor,
        queue_order=queue_order,
        event_log=event_log,
        tracer=tracer,
        sampler=sampler,
        fault_timeline=fault_timeline,
        fault_victim_policy=fault_victim_policy,
        checkpoint_interval=checkpoint_interval,
        step_interval=step_interval,
        use_columnar_events=use_columnar_events,
        provenance=provenance,
    )
    if profiler is None:
        result = sim.run(setup.trace)
    else:
        with profiler.attach(allocator):
            result = sim.run(setup.trace)
        result.prof = profiler.snapshot()
    if metrics is not None:
        from repro.obs.bridge import simulation_registry

        simulation_registry(result, event_log, registry=metrics)
    return result
