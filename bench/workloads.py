"""The benchmark's pinned trace-replay workloads.

Every input is built here from the package's public constructors with
explicit job counts and seeds, so no default size (``DEFAULT_JOB_COUNTS``,
``REPRO_SCALE``) can silently resize a workload; the simulator only ever
sees the generated traces.

A workload at seed ``s`` replays ``traces`` independent traces drawn
from sub-seeds ``s * 1000 + k``.  Averaging over several traces keeps
the run-to-run spread across seeds small: on a single trace, which jobs
block the queue head, and so how many searches fail, moves throughput
by 5-15% from seed to seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.registry import make_allocator
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree
from repro.traces.llnl import cab_like, thunder_like
from repro.traces.synthetic import synthetic_trace
from repro.traces.trace import Trace

#: the schemes of the paper's evaluation, in the order the mixed
#: workload replays them
MIX_SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")

#: ``--smoke`` divides every job count by this
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class Workload:
    """Input size of one workload (``BENCHMARK.json`` says why it is in
    the set)."""

    #: jobs per trace
    jobs: int
    #: independent traces per round
    traces: int


WORKLOADS: Dict[str, Workload] = {
    "synth28-event": Workload(jobs=300, traces=10),
    "synth28-batch300": Workload(jobs=1000, traces=8),
    "thunder-event": Workload(jobs=1000, traces=4),
    "sepcab-mix-faulted": Workload(jobs=400, traces=8),
}


@dataclass
class Cell:
    """One simulator run of a round: a trace on one scheme."""

    label: str
    scheme: str
    trace: Trace
    tree: FatTree
    sim_kwargs: Dict = field(default_factory=dict)
    sim: Optional[Simulator] = None

    def make_sim(self) -> None:
        self.sim = Simulator(
            make_allocator(self.scheme, self.tree), **self.sim_kwargs
        )


def _fault_timeline(trace: Trace, tree: FatTree, seed: int) -> FaultTimeline:
    """Per-node faults (MTTF 2e5 s, MTTR 2e4 s) over the trace's
    horizon: last arrival plus total work over cluster size, the same
    lower bound on the makespan the experiment runner uses."""
    work = sum(j.runtime * j.size for j in trace.jobs)
    horizon = max(j.arrival for j in trace.jobs) + work / tree.num_nodes
    return FaultTimeline.synthetic(
        tree.num_nodes, mttf=2e5, mttr=2e4, horizon=horizon, seed=seed
    )


def _cells_for_trace(name: str, n: int, seed: int) -> List[Cell]:
    if name == "sepcab-mix-faulted":
        tree = FatTree.from_radix(18)
        trace = cab_like("sep", num_jobs=n, seed=seed)
        kwargs = {
            "fault_timeline": _fault_timeline(trace, tree, seed),
            "fault_victim_policy": "requeue-remaining",
            "checkpoint_interval": 600.0,
        }
        # One trace object serves all five cells: Simulator.run resets
        # every job before replaying it.
        return [
            Cell(f"{scheme}/{seed}", scheme, trace, tree, kwargs)
            for scheme in MIX_SCHEMES
        ]
    if name == "thunder-event":
        tree = FatTree.from_radix(18)
        trace = thunder_like(num_jobs=n, seed=seed)
        kwargs = {}
    else:  # the two Synth-28 workloads
        tree = FatTree.from_radix(28)
        trace = synthetic_trace(
            28, num_jobs=n, seed=seed, max_size=tree.num_nodes
        )
        kwargs = {"step_interval": 300.0} if name == "synth28-batch300" else {}
    return [Cell(f"jigsaw/{seed}", "jigsaw", trace, tree, kwargs)]


def setup_round(
    name: str, seed: int, smoke: bool = False
) -> Tuple[List[Cell], float, float]:
    """Build one round's cells from scratch.

    Returns ``(cells, trace_seconds, alloc_seconds)``: the time spent
    building traces, trees and fault timelines, and the time spent in
    ``make_allocator`` plus ``Simulator(...)`` — together everything
    that precedes ``Simulator.run``.
    """
    w = WORKLOADS[name]
    n = max(20, w.jobs // SMOKE_DIVISOR) if smoke else w.jobs
    t0 = time.perf_counter()
    cells = [
        cell
        for k in range(w.traces)
        for cell in _cells_for_trace(name, n, seed * 1000 + k)
    ]
    t1 = time.perf_counter()
    for cell in cells:
        cell.make_sim()
    t2 = time.perf_counter()
    return cells, t1 - t0, t2 - t1
