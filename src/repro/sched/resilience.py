"""Online fault timeline: job-killing failures inside the simulator.

:mod:`repro.topology.faults` can degrade a *static* cluster, but its
docstring punts the hard part: failing a resource owned by a running
job kills the job, and deciding what happens next is scheduler policy.
This module supplies that policy for the discrete-event simulator:

* :class:`FaultSpec` / :class:`FaultTimeline` — timestamped fail/repair
  windows, either listed explicitly or drawn from a per-node MTTF/MTTR
  renewal process seeded through :mod:`repro.util.rng` (so a synthetic
  timeline is reproducible and identical across worker processes);
* :class:`ResilienceManager` — consumed by
  :class:`repro.sched.simulator.Simulator`, which interleaves the
  timeline's events with job arrivals and completions.  When a fault
  hits resources owned by a running job the simulator drains the victim
  through the ordinary release path (the *victim policy* decides how
  much work survives), then the manager claims the hardware via
  :class:`~repro.topology.faults.FaultInjector`;
* resilience accounting — wasted node-seconds, resubmission counts and
  the degraded-capacity integral, surfaced on
  :class:`repro.sched.metrics.SimResult`.

Victim policies
---------------
``requeue-full``
    The killed job is resubmitted with its full work: everything it
    computed is lost (no checkpointing).
``requeue-remaining``
    A simple checkpoint-interval model: with interval ``C`` the job has
    durable checkpoints every ``C`` seconds of execution, so a kill
    after ``e`` seconds preserves ``floor(e / C) * C`` seconds of work
    and only the remainder is redone.  ``C == 0`` means continuous
    checkpointing (only in-flight work at the instant of the kill is
    lost — the optimistic bound).

Either way the resubmitted job re-enters the waiting queue through the
simulator's ordinary ``enqueue`` path, i.e. per the active queue order
(FIFO arrival order, SJF priority, ...), and its turnaround keeps
counting from the *original* arrival — time lost to failures is
scheduler-visible loss.

Everything here is plain picklable data (tuples of frozen dataclasses),
so timelines thread through the experiment grid's process pool
unchanged; a given ``(timeline, trace, scheme)`` cell is byte-identical
serially or in any pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.topology.faults import FAULT_KINDS, FaultInjector, FaultTicket
from repro.util.rng import rng_for

#: accepted victim policies (see module docstring)
VICTIM_POLICIES = ("requeue-full", "requeue-remaining")

#: default MTTR as a fraction of MTTF when only an MTTF is given
DEFAULT_MTTR_FRACTION = 0.1


@dataclass(frozen=True)
class FaultSpec:
    """One fault window: ``target`` fails at ``start``, is repaired at
    ``end`` (``None`` = never repaired).

    ``target`` is the plain-data address
    :meth:`repro.topology.faults.FaultInjector.resolve` understands —
    ints and tuples of ints only, so specs pickle as data.
    """

    start: float
    kind: str
    target: Tuple[int, ...]
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if not 0 <= self.start < math.inf:
            raise ValueError(
                "fault start must be finite and non-negative, "
                f"got start={self.start!r}"
            )
        if self.end is not None and not self.end > self.start:
            raise ValueError(
                f"fault end must be after its start, got end={self.end!r} "
                f"for start={self.start!r}"
            )
        target = self.target
        if isinstance(target, int):
            target = (target,)
        object.__setattr__(self, "target", tuple(int(x) for x in target))

    @property
    def duration(self) -> Optional[float]:
        """Seconds out of service (None for a permanent fault)."""
        return None if self.end is None else self.end - self.start


@dataclass(frozen=True)
class FaultTimeline:
    """An ordered collection of :class:`FaultSpec` windows."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    @classmethod
    def coerce(
        cls, value: Union[None, "FaultTimeline", Sequence[FaultSpec]]
    ) -> "FaultTimeline":
        """Normalize ``None`` / a timeline / a spec sequence."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(tuple(value))

    @classmethod
    def synthetic(
        cls,
        num_nodes: int,
        mttf: float,
        mttr: Optional[float] = None,
        horizon: float = 0.0,
        seed: int = 0,
        stream: str = "fault.timeline",
    ) -> "FaultTimeline":
        """Per-node fail/repair renewal process over ``[0, horizon)``.

        Each node independently alternates exponential up-times (mean
        ``mttf``) and exponential down-times (mean ``mttr``, default
        ``mttf * 0.1``); failures past ``horizon`` are dropped.  Drawn
        from the named :func:`repro.util.rng.rng_for` stream, so the
        same ``(num_nodes, mttf, mttr, horizon, seed)`` always yields
        the same timeline — in any process.
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        # An infinite mean would silently mean "never fails" or "never
        # repaired"; a permanent fault is an explicit FaultSpec(end=None).
        if not 0 < mttf < math.inf:
            raise ValueError(
                f"mttf must be finite and positive, got mttf={mttf!r}"
            )
        if mttr is None:
            mttr = mttf * DEFAULT_MTTR_FRACTION
        if not 0 < mttr < math.inf:
            raise ValueError(
                f"mttr must be finite and positive, got mttr={mttr!r}"
            )
        # An infinite horizon would append faults forever.
        if not 0 <= horizon < math.inf:
            raise ValueError(
                f"horizon must be finite and >= 0, got horizon={horizon!r}"
            )
        rng = rng_for(stream, seed)
        faults: List[FaultSpec] = []
        for node in range(num_nodes):
            t = float(rng.exponential(mttf))
            while t < horizon:
                down = float(rng.exponential(mttr))
                faults.append(FaultSpec(t, "node", (node,), t + down))
                t += down + float(rng.exponential(mttf))
        faults.sort(key=lambda s: (s.start, s.target))
        return cls(tuple(faults))


@dataclass
class ResilienceStats:
    """What the fault timeline did to one simulation run."""

    #: fault windows whose fail event was applied
    injected: int = 0
    #: fault windows whose repair event was applied
    repaired: int = 0
    #: jobs killed by a fault and resubmitted
    resubmissions: int = 0
    #: node-seconds of execution destroyed by kills (checkpoint-saved
    #: work excluded)
    wasted_node_seconds: float = 0.0
    #: integral of out-of-service nodes over simulated time
    degraded_node_seconds: float = 0.0


class ResilienceManager:
    """Applies one :class:`FaultTimeline` to a live allocator.

    The simulator drives it with :meth:`victims` (who must die before
    this fault lands), :meth:`inject` and :meth:`repair`; the manager
    owns the :class:`~repro.topology.faults.FaultInjector` tickets, the
    degraded-node count and the resilience counters.  Overlapping fault
    windows are tolerated: resources already held by an earlier active
    fault are absorbed (not claimed twice), and return to service with
    the fault that actually claimed them.
    """

    def __init__(
        self,
        allocator,
        timeline: FaultTimeline,
        victim_policy: str = "requeue-full",
        checkpoint_interval: float = 0.0,
        tracer=None,
        event_log=None,
    ):
        if victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown victim policy {victim_policy!r}; "
                f"expected one of {VICTIM_POLICIES}"
            )
        if not (
            math.isfinite(checkpoint_interval) and checkpoint_interval >= 0
        ):
            raise ValueError(
                f"checkpoint_interval must be finite and >= 0, "
                f"got {checkpoint_interval!r}"
            )
        self.timeline = timeline
        self.victim_policy = victim_policy
        self.checkpoint_interval = checkpoint_interval
        self.injector = FaultInjector(allocator)
        self.tracer = tracer
        self.event_log = event_log
        self.stats = ResilienceStats()
        #: nodes currently out of service (fault-claimed)
        self.degraded_nodes = 0
        #: spec index -> ticket (None = fully absorbed by earlier faults)
        self._tickets: Dict[int, Optional[FaultTicket]] = {}
        #: spec index -> nodes its ticket took down
        self._nodes_down: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def saved_work(self, elapsed: float) -> float:
        """Executed seconds that survive a kill after ``elapsed`` seconds
        of execution, under the active victim policy."""
        if self.victim_policy == "requeue-full" or elapsed <= 0:
            return 0.0
        c = self.checkpoint_interval
        if c <= 0:
            return elapsed  # continuous checkpointing
        return min(elapsed, (elapsed // c) * c)

    def victims(self, index: int) -> List[int]:
        """Ids of resident jobs owning any resource of fault ``index``,
        in ascending id order (the deterministic kill order).

        Covers exclusive ownership (nodes and links in the
        :class:`~repro.topology.state.ClusterState`) and, for the
        link-sharing scheme, fractional bandwidth on a target link.
        """
        spec = self.timeline.faults[index]
        nodes, leaf_links, spine_links = self.injector.resolve(
            spec.kind, spec.target
        )
        state = self.injector.state
        owners = set()
        for n in nodes:
            owner = int(state.node_owner[n])
            if owner >= 0:
                owners.add(owner)
        if leaf_links or spine_links:
            targets_leaf = set(leaf_links)
            targets_spine = set(spine_links)
            for job_id in state.resident_jobs():
                if job_id < 0 or job_id in owners:
                    continue
                rec = state.claim_record(job_id)
                if targets_leaf.intersection(rec.leaf_links) or (
                    targets_spine.intersection(rec.spine_links)
                ):
                    owners.add(job_id)
            links_cap = self.injector._links_cap
            if links_cap is not None:
                owners.update(
                    j
                    for j in links_cap.claimants(leaf_links, spine_links)
                    if j >= 0
                )
        return sorted(owners)

    def inject(self, index: int, now: float) -> Optional[FaultTicket]:
        """Apply fault ``index``'s fail event (victims already drained)."""
        spec = self.timeline.faults[index]
        resources = self._unclaimed_resources(spec)
        nodes, leaf_links, spine_links = resources
        if nodes or leaf_links or spine_links:
            ticket = self.injector.inject(spec.kind, spec.target, resources)
            self._nodes_down[index] = len(nodes)
            self.degraded_nodes += len(nodes)
        else:
            ticket = None  # fully absorbed by earlier active faults
        self._tickets[index] = ticket
        self.stats.injected += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("fault.inject", {
                "kind": spec.kind, "target": list(spec.target),
                "nodes_down": len(nodes),
                "links_down": len(leaf_links) + len(spine_links),
                "degraded_nodes": self.degraded_nodes,
            })
        return ticket

    def repair(self, index: int, now: float) -> None:
        """Apply fault ``index``'s repair event."""
        ticket = self._tickets.pop(index, None)
        if ticket is not None:
            self.injector.repair(ticket)
            self.degraded_nodes -= self._nodes_down.pop(index, 0)
        self.stats.repaired += 1
        if self.tracer is not None and self.tracer.enabled:
            spec = self.timeline.faults[index]
            self.tracer.instant("fault.repair", {
                "kind": spec.kind, "target": list(spec.target),
                "degraded_nodes": self.degraded_nodes,
            })

    def _unclaimed_resources(self, spec: FaultSpec):
        """The spec's resources minus anything an *active fault* already
        holds (a resident job holding one is a bug: victims are drained
        before injection)."""
        nodes, leaf_links, spine_links = self.injector.resolve(
            spec.kind, spec.target
        )
        state = self.injector.state
        fault_leaf = set()
        fault_spine = set()
        if leaf_links or spine_links:
            for job_id in state.resident_jobs():
                if job_id >= 0:
                    continue
                rec = state.claim_record(job_id)
                fault_leaf.update(rec.leaf_links)
                fault_spine.update(rec.spine_links)
        return (
            [n for n in nodes if int(state.node_owner[n]) == -1],
            [l for l in leaf_links if l not in fault_leaf],
            [s for s in spine_links if s not in fault_spine],
        )
