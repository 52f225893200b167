"""Trace-driven discrete-event scheduling simulation.

This is the evaluation vehicle of the paper (section 5): jobs arrive in
a queue, a scheduling policy (FIFO + EASY backfilling, window 50) asks an
allocator for placements, and the simulator measures steady-state
utilization, turnaround times, makespan, instantaneous utilization and
scheduling time.
"""

from repro.sched.eventcore import EventStreams, round_boundary
from repro.sched.interference import ContentionRuntimeModel
from repro.sched.job import Job
from repro.sched.metrics import (
    INSTANT_BINS,
    InstantHistogram,
    JobRecord,
    SimResult,
    fidelity_report,
)
from repro.sched.resilience import (
    VICTIM_POLICIES,
    FaultSpec,
    FaultTimeline,
    ResilienceManager,
)
from repro.sched.simulator import Simulator
from repro.sched.speedup import SCENARIOS, apply_scenario

__all__ = [
    "ContentionRuntimeModel",
    "EventStreams",
    "Job",
    "Simulator",
    "SimResult",
    "fidelity_report",
    "round_boundary",
    "JobRecord",
    "InstantHistogram",
    "INSTANT_BINS",
    "SCENARIOS",
    "apply_scenario",
    "FaultSpec",
    "FaultTimeline",
    "ResilienceManager",
    "VICTIM_POLICIES",
]
