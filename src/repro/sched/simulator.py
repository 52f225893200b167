"""Discrete-event scheduler simulator (the evaluation vehicle, section 5).

The simulator replays a job-queue trace against one allocator:

* job arrivals and completions are the events;
* scheduling is FIFO + EASY backfilling with a lookahead window
  (:mod:`repro.sched.backfill`), run after every event batch;
* jobs run for their base run time under Baseline and for their
  isolated (sped-up) run time under the low-interference schemes;
* walltime estimates are perfect (actual run times), as is conventional
  for trace replay;
* metrics are accumulated exactly as section 5 defines them
  (:mod:`repro.sched.metrics`).

The implementation is split into two layers:

* the **event core** (:mod:`repro.sched.eventcore`) holds every
  pending event (arrivals, completions, fault repairs, fault
  injections) on one heap, popped one *round* at a time;
* the **policy layer** (:class:`_RunState`, below) holds one run's
  state in plain Python — the trace in order, the waiting queue, the
  head's reservation, the running set, the areas and each job's
  remaining work and provenance tallies — and applies the drained
  events and scheduling passes.  Each job's arrival, start and end live
  on its :class:`~repro.sched.job.Job` alone.

Two drive modes share that machinery:

* **event-driven** (``step_interval=None``, the default): every round
  covers exactly one event timestamp and a scheduling pass follows
  every event batch — the classic discrete-event replay, held
  bit-identical across refactors by ``benchmarks/_fingerprint.py``;
* **batch-step** (``step_interval=Δt``): scheduling runs on the fixed
  grid ``t0 + k·Δt`` (Firmament's ``batch_step_seconds`` shape).
  Arrivals, completions and fault events accumulate between rounds;
  each round first drains everything up to its boundary in event order,
  then runs one scheduling pass.  Jobs start only at round boundaries,
  trading a bounded start lag (≤ Δt, surfaced as the ``step_lag``
  sampler column) for far fewer scheduling passes on bursty traces —
  the fidelity/throughput trade is quantified by
  ``benchmarks/bench_batch_fidelity.py``.

Within one scheduling pass, allocation failures are memoized by
(effective size, bandwidth need): state only shrinks during a pass, so a
failed size stays failed — this makes wide backfill windows cheap
without changing any scheduling decision.  The allocator extends the
same argument *across* passes with its feasibility cache (see
:mod:`repro.core.allocator`): a failure stays proven until the next
release, so pure-arrival event batches never repeat a lost search.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import numbers
import os
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.allocator import Allocator
from repro.obs.sampler import simulator_row
from repro.obs.tracer import get_tracer, trace_allocator
from repro.sched.backfill import (
    Reservation,
    compute_reservation,
    may_backfill,
)
from repro.sched.eventcore import (
    ARRIVAL,
    COMPLETION,
    FAULT_INJECT,
    FAULT_REPAIR,
    EventStreams,
    round_boundary,
)
from repro.sched.job import Job
from repro.sched.metrics import InstantHistogram, JobRecord, SimResult
from repro.sched.profile import FOREVER, FreeProfile
from repro.sched.resilience import (
    VICTIM_POLICIES,
    FaultTimeline,
    ResilienceManager,
)


class Simulator:
    """Replay a trace against one allocator and measure the outcome.

    Parameters
    ----------
    allocator:
        A fresh allocator (its cluster must be idle).
    backfill_window:
        How many queued jobs past the head EASY may consider, an integer
        ``>= 0`` (the paper uses 50; 0 disables backfilling, i.e. pure
        FIFO).
    step_interval:
        ``None`` (default) replays event-driven: one scheduling pass per
        event batch.  A finite positive Δt selects batch-step mode:
        scheduling rounds on the grid ``first_event + k·Δt``, with
        events accumulating between rounds (see the module docstring).
    use_columnar_events:
        ``True`` (default) drains events between scheduling passes in
        columnar batches: completions release their allocations through
        one :meth:`~repro.core.allocator.Allocator.release_many` call
        (a single occupancy-index update and one grouped
        feasibility-cache invalidation), arrivals enqueue as a bulk
        state transition, and fault kills drain victims through the
        same bulk release path.  ``False`` — or ``REPRO_NAIVE_EVENTS=1``
        in the environment — selects the historical one-event-at-a-time
        twin; both produce identical decisions
        (``benchmarks/_fingerprint.py --vs-scalar-events``).  Runs that
        attach per-event telemetry (a sampler, an enabled tracer, or an
        event log) always take the scalar drain, which keeps the
        telemetry stream per-event without changing any decision.
    provenance:
        ``True`` keeps a per-job ledger on the run state — first-eligible
        time, attempt count, and every skipped or failed attempt broken
        down by reason — exported as ``SimResult.provenance`` with each
        job's final state, ``completed`` or ``unscheduled`` (see
        ``docs/observability.md``).  Strictly passive; off by default.
    """

    #: how the head's reservation evolves while it waits:
    #: ``renew`` (default) — honored until its shadow time passes, then
    #: recomputed; ``sticky`` — computed once, honored until the head
    #: starts (forces drains); ``slip`` — recomputed at every event (the
    #: shadow can slip forever under constrained allocators).
    RESERVATION_POLICIES = ("renew", "sticky", "slip")

    #: how out-of-order starts are planned: ``easy`` (single head
    #: reservation, the paper's setup) or ``conservative`` (every queued
    #: job in the window holds a reservation; nothing delays an earlier
    #: one — a classic alternative, provided as an extension)
    BACKFILL_POLICIES = ("easy", "conservative")

    #: how the waiting queue is ordered: ``fifo`` (arrival order, the
    #: paper's setup) or one of the classic priority orders, provided as
    #: extensions: ``sjf`` (shortest estimated walltime first),
    #: ``smallest``/``largest`` (by node count).  Ties fall back to
    #: arrival order.
    QUEUE_ORDERS = ("fifo", "sjf", "smallest", "largest")

    def __init__(
        self,
        allocator: Allocator,
        backfill_window: int = 50,
        reservation_policy: str = "renew",
        backfill_policy: str = "easy",
        estimate_factor: float = 1.0,
        runtime_model=None,
        queue_order: str = "fifo",
        event_log=None,
        tracer=None,
        sampler=None,
        fault_timeline=None,
        fault_victim_policy: str = "requeue-full",
        checkpoint_interval: float = 0.0,
        step_interval: Optional[float] = None,
        use_columnar_events: bool = True,
        provenance: bool = False,
    ):
        if not allocator.state.is_idle():
            raise ValueError("allocator must start idle")
        if reservation_policy not in self.RESERVATION_POLICIES:
            raise ValueError(
                f"unknown reservation policy {reservation_policy!r}; "
                f"expected one of {self.RESERVATION_POLICIES}"
            )
        if backfill_policy not in self.BACKFILL_POLICIES:
            raise ValueError(
                f"unknown backfill policy {backfill_policy!r}; "
                f"expected one of {self.BACKFILL_POLICIES}"
            )
        if (
            not isinstance(backfill_window, numbers.Integral)
            or backfill_window < 0
        ):
            raise ValueError(
                f"backfill_window must be an integer >= 0, "
                f"got {backfill_window!r}"
            )
        if not (math.isfinite(estimate_factor) and estimate_factor >= 1.0):
            raise ValueError(
                f"estimate_factor must be finite and >= 1 (users "
                f"overestimate), got {estimate_factor!r}"
            )
        if queue_order not in self.QUEUE_ORDERS:
            raise ValueError(
                f"unknown queue order {queue_order!r}; "
                f"expected one of {self.QUEUE_ORDERS}"
            )
        if queue_order != "fifo" and backfill_policy != "easy":
            raise ValueError(
                "priority queue orders are only supported with EASY backfilling"
            )
        if fault_victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown victim policy {fault_victim_policy!r}; "
                f"expected one of {VICTIM_POLICIES}"
            )
        if not (
            math.isfinite(checkpoint_interval) and checkpoint_interval >= 0
        ):
            raise ValueError(
                f"checkpoint_interval must be finite and >= 0, "
                f"got {checkpoint_interval!r}"
            )
        if step_interval is not None and not (
            math.isfinite(step_interval) and step_interval > 0
        ):
            raise ValueError(
                f"step_interval must be None or finite and > 0, "
                f"got {step_interval!r}"
            )
        self.allocator = allocator
        self.backfill_window = backfill_window
        self.reservation_policy = reservation_policy
        self.backfill_policy = backfill_policy
        #: walltime estimates are actual runtimes scaled by this factor
        #: (1.0 = the paper's perfect estimates)
        self.estimate_factor = estimate_factor
        #: optional contention-aware runtime model (see
        #: :mod:`repro.sched.interference`); when set, it replaces the
        #: scenario-based speed-ups entirely: runtimes are the jobs' base
        #: runtimes extended by the measured contention factor
        self.runtime_model = runtime_model
        self.queue_order = queue_order
        #: optional :class:`repro.sched.log.ScheduleLog` audit trail
        self.event_log = event_log
        #: optional :class:`repro.obs.tracer.Tracer`; ``None`` falls
        #: back to the process-global one, read when ``run`` starts.  An
        #: enabled tracer also records the allocator's ``alloc.search``
        #: spans, wrapped from outside for the length of the run only.
        self.tracer = tracer
        #: optional :class:`repro.obs.sampler.TimeSeriesSampler`; when
        #: set, ``run`` fills it and the rows land in ``SimResult.samples``
        self.sampler = sampler
        #: optional fail/repair timeline consumed by the event loop (see
        #: :mod:`repro.sched.resilience`); empty = fault-free, with the
        #: guarantee that the run is event-for-event identical to one
        #: without any resilience machinery at all
        self.fault_timeline = FaultTimeline.coerce(fault_timeline)
        self.fault_victim_policy = fault_victim_policy
        self.checkpoint_interval = checkpoint_interval
        #: batch-step round length (None = event-driven)
        self.step_interval = step_interval
        #: columnar event drain between passes (the scalar twin stays
        #: available for invariance checks; ``REPRO_NAIVE_EVENTS=1``
        #: selects it)
        if os.environ.get("REPRO_NAIVE_EVENTS", "") not in ("", "0"):
            use_columnar_events = False
        self.use_columnar_events = bool(use_columnar_events)
        #: per-job provenance recording (first-eligible times and skip
        #: tallies on the run state; see
        #: :meth:`_RunState._provenance_rows`).  Strictly passive — the
        #: tallies are write-only during the run and the recording sites
        #: never read scheduling state (``_fingerprint.py --prof``).
        self.provenance = bool(provenance)
        self.low_interference = allocator.low_interference
        #: high-water mark of the waiting queue (jobs waiting to start)
        self.peak_queue_len = 0

    # ------------------------------------------------------------------
    def run(self, trace, trace_name: Optional[str] = None) -> SimResult:
        """Simulate ``trace`` (a ``Trace`` or a sequence of jobs).

        A trace with a duplicate job id or a job larger than the cluster
        is rejected before any job is reset, so a rejected run leaves
        every job's earlier results untouched."""
        jobs: List[Job] = list(getattr(trace, "jobs", trace))
        name = trace_name or getattr(trace, "name", "trace")
        by_id: Dict[int, Job] = {}
        for job in jobs:
            if job.id in by_id:
                raise ValueError(
                    f"trace {name!r} has duplicate job id {job.id}"
                )
            by_id[job.id] = job
        # One allocator call per distinct size; the first offending job
        # in trace order is the one named.
        effective_size = self.allocator.effective_size
        capacity = self.allocator.tree.num_nodes
        oversized = {
            size for size in {job.size for job in jobs}
            if effective_size(size) > capacity
        }
        if oversized:
            bad = next(job for job in jobs if job.size in oversized)
            raise ValueError(
                f"job {bad.id} needs {bad.size} nodes "
                f"(effective {effective_size(bad.size)}) "
                f"but the cluster has {capacity}"
            )
        self.peak_queue_len = 0
        for job in jobs:
            job.reset()
        state = _RunState(self, jobs, by_id)
        if state.tracer.enabled:
            with trace_allocator(state.tracer, self.allocator):
                state.drive()
        else:
            state.drive()
        return state.result(name)


class _RunState:
    """Mutable scheduling state of one ``Simulator.run``.

    The policy layer over :mod:`repro.sched.eventcore`: it owns the
    waiting queue, the running set, the area accumulators and the
    resilience bookkeeping, and exposes the event handlers
    (:meth:`try_start`, :meth:`kill_job`, …) as methods so tests can
    observe or wrap individual transitions.
    """

    def __init__(
        self, sim: Simulator, jobs: List[Job], by_id: Dict[int, Job]
    ):
        self.sim = sim
        #: the trace in order; an arrival's payload is its index here
        self.jobs = jobs
        #: job id -> job, for fault victims (which arrive as ids)
        self.by_id = by_id
        self.allocator = sim.allocator
        self.tracer = sim.tracer if sim.tracer is not None else get_tracer()
        self.sampler = sim.sampler
        self.event_log = sim.event_log

        # Event streams: arrivals and fault events are pre-known;
        # completions are pushed as jobs start.  Every event time is a
        # float, also where a job or fault spec holds an int.
        arrivals = [float(job.arrival) for job in jobs]
        faults = sim.fault_timeline.faults
        self.streams = EventStreams(
            zip(arrivals, range(len(jobs))),
            repairs=[
                (float(spec.end), i)
                for i, spec in enumerate(faults)
                if spec.end is not None
            ],
            injects=[(float(spec.start), i) for i, spec in enumerate(faults)],
        )

        #: the waiting jobs, in queue order: arrival order under FIFO,
        #: else ascending ``priority_key`` with ties in enqueue order.  A
        #: job leaves it in the pass that starts it, so the head is
        #: ``queue[0]`` and a backfill window is a slice.
        self.queue: List[Job] = []
        #: the head job's current reservation, (job id, Reservation),
        #: honored per the simulator's reservation policy
        self.head_reservation: Optional[Tuple[int, Reservation]] = None
        #: the running set: job id -> (estimated end, effective size),
        #: the pairs the head's reservation and the conservative
        #: profile are built from (both sort or sum them, so the dict's
        #: order never reaches a decision)
        self.running: Dict[int, Tuple[float, int]] = {}
        self.cur_busy = 0  # requested nodes currently computing
        #: columnar event drain between passes; per-event telemetry
        #: sinks force the scalar twin (identical decisions either way)
        self.columnar_drain = (
            sim.use_columnar_events
            and sim.sampler is None
            and sim.event_log is None
            and not self.tracer.enabled
        )
        #: per-job provenance recording (pass-level: the recording
        #: sites are ``try_start``/``dispatch_start``, which both
        #: drains share, so the columnar gate above is unaffected)
        self.provenance = sim.provenance
        #: provenance tallies keyed by (job id, column): ``attempts``
        #: and the four ``skip_*`` reasons
        self.prov_counts: Counter = Counter()
        #: job id -> the first time the scheduler considered the job
        self.first_eligible: Dict[int, float] = {}

        self.instant = InstantHistogram()
        self.busy_area = 0.0
        self.demand_area = 0.0
        self.total_busy_area = 0.0
        self.last_t = min(arrivals, default=0.0)
        self.n_system = sim.allocator.tree.num_nodes
        self.unscheduled: List[int] = []
        self.makespan_start = self.last_t
        self.last_completion = self.last_t
        #: scheduling passes run (rounds, in batch-step terms)
        self.rounds = 0
        #: simulation time of the most recent scheduling pass (feeds the
        #: ``step_lag`` sampler column)
        self.last_sched_t = self.last_t

        # Resilience machinery, engaged only for a non-empty timeline.
        # Every touch point below is gated on ``resilience is not None``
        # so a fault-free run takes exactly the historical code path —
        # the empty-timeline fingerprint check holds the gate to that.
        self.resilience: Optional[ResilienceManager] = None
        #: job id -> slot of its live completion event; a kill orphans
        #: the queued entry, which is dropped on drain by this check
        self.live_comp: Dict[int, int] = {}
        #: job id -> remaining-work fraction of a checkpoint-restarted
        #: job (absent = 1.0, the full work; see
        #: :mod:`repro.sched.resilience`)
        self.work_frac: Dict[int, float] = {}
        if sim.fault_timeline:
            self.resilience = ResilienceManager(
                sim.allocator,
                sim.fault_timeline,
                sim.fault_victim_policy,
                sim.checkpoint_interval,
                tracer=self.tracer,
                event_log=sim.event_log,
            )

        if self.tracer.enabled:
            self.tracer.sim_time = self.last_t
        if self.sampler is not None:
            self.sampler.reset(self.last_t)

        self.priority_key = None
        if sim.queue_order == "sjf":
            self.priority_key = self.walltime_est
        elif sim.queue_order == "smallest":
            self.priority_key = lambda job: job.size
        elif sim.queue_order == "largest":
            self.priority_key = lambda job: -job.size

    # -- telemetry -----------------------------------------------------
    def sample_row(self, boundary: float) -> dict:
        resilience = self.resilience
        return simulator_row(
            boundary, self.allocator, len(self.queue), len(self.running),
            self.cur_busy,
            resilience.degraded_nodes if resilience is not None else 0,
            step_lag=max(0.0, boundary - self.last_sched_t),
        )

    # -- accounting ----------------------------------------------------
    def advance(self, t: float) -> None:
        dt = t - self.last_t
        if dt > 0:
            self.total_busy_area += self.cur_busy * dt
            if self.queue:
                self.busy_area += self.cur_busy * dt
                # The under-demand capacity excludes fault-claimed
                # nodes: work that cannot be placed anywhere is not
                # scheduler loss.
                self.demand_area += self.capacity() * dt
            if self.resilience is not None:
                self.resilience.stats.degraded_node_seconds += (
                    self.resilience.degraded_nodes * dt
                )
            self.last_t = t

    def capacity(self) -> int:
        """Nodes currently in service (system size minus fault-claimed)."""
        if self.resilience is not None:
            return self.n_system - self.resilience.degraded_nodes
        return self.n_system

    def sample(self) -> None:
        if self.queue:
            cap = self.capacity()
            if cap > 0:
                self.instant.add(100.0 * self.cur_busy / cap)

    # -- planning estimates --------------------------------------------
    def eff(self, job: Job) -> int:
        return self.allocator.effective_size(job.size)

    def plan_runtime(self, job: Job) -> float:
        """The base runtime every planning estimate starts from.

        Under a contention runtime model the slowdown factor is unknown
        until placement, so planning uses the unscaled base runtime;
        otherwise the scheme's scenario runtime.  ``walltime_est`` and
        the running-job completion estimates both build on this — one
        source, so the head's shadow time and ``may_backfill`` can never
        disagree about the same job.
        """
        if self.sim.runtime_model is not None:
            return job.runtime
        return job.runtime_under(self.sim.low_interference)

    def walltime_est(self, job: Job) -> float:
        """The (possibly overestimated) walltime planning uses."""
        est = self.plan_runtime(job) * self.sim.estimate_factor
        if self.resilience is not None:
            # A checkpoint-restarted job only redoes its lost work.
            est *= self.work_frac.get(job.id, 1.0)
        return est

    # -- provenance ----------------------------------------------------
    def prov_attempt(self, job: Job, now: float) -> None:
        """Record one charged allocation attempt (real or skipped) for
        ``job`` and stamp the first time the scheduler considered it."""
        self.prov_counts[job.id, "attempts"] += 1
        self.first_eligible.setdefault(job.id, now)

    def _provenance_rows(self) -> List[dict]:
        """One plain dict per trace job: timeline plus the per-reason
        skip accounting (the ``SimResult.provenance`` export; column
        catalog in ``docs/observability.md``).

        A run ends with every job completed or unscheduled: ``drive``
        stops only after every live completion has fired, and it
        strands whatever still waits.  So a job's state is ``completed``
        exactly when it holds a start."""
        counts = self.prov_counts
        rows = []
        for job in self.jobs:
            jid = job.id
            started = job.start >= 0
            rows.append({
                "job_id": int(jid),
                "size": int(job.size),
                "arrival": float(job.arrival),
                "first_eligible": self.first_eligible.get(jid),
                "attempts": counts[jid, "attempts"],
                "skip_cache": counts[jid, "skip_cache"],
                "skip_screen": counts[jid, "skip_screen"],
                "skip_search": counts[jid, "skip_search"],
                "skip_budget": counts[jid, "skip_budget"],
                "start": job.start if started else None,
                "end": job.end if started else None,
                "wait": (job.start - job.arrival) if started else None,
                "state": "completed" if started else "unscheduled",
            })
        return rows

    # -- transitions ---------------------------------------------------
    def try_start(self, job: Job, now: float, via: str = "fifo") -> bool:
        sim = self.sim
        if self.provenance:
            self.prov_attempt(job, now)
            aborts = self.allocator.stats.budget_aborts
        alloc = self.allocator.allocate(job.id, job.size, bw_need=job.bw_need)
        if alloc is None:
            if self.provenance:
                reason = (
                    "skip_budget"
                    if self.allocator.stats.budget_aborts != aborts
                    else "skip_search"
                )
                self.prov_counts[job.id, reason] += 1
            return False
        self.emit(now, "start", job, via, wait=now - job.arrival)
        job.start = now
        if sim.runtime_model is not None:
            factor = sim.runtime_model.on_start(
                alloc, self.allocator.isolating
            )
            actual = job.runtime * factor
        else:
            actual = job.runtime_under(sim.low_interference)
        if self.resilience is not None:
            actual *= self.work_frac.get(job.id, 1.0)
        job.end = now + actual
        slot = self.streams.push_completion(job.end, job)
        if self.resilience is not None:
            self.live_comp[job.id] = slot
        # Planning sees the *estimated* completion time — the same
        # estimate ``walltime_est`` hands the backfill rules, so the
        # shadow computed from the running set and the window checks
        # agree.
        running = self.running
        if job.id in running:
            raise ValueError(f"job {job.id} is already running")
        running[job.id] = (now + self.walltime_est(job), self.eff(job))
        self.cur_busy += job.size
        return True

    def emit(
        self, now: float, kind: str, job: Job,
        via: Optional[str] = None, **attrs: float,
    ) -> None:
        """Write one job transition to the telemetry sinks.

        A traced run records a ``sched.<kind>`` instant and hands the
        same attrs dict (``attrs``, then ``via``, ``job``, ``size``) to
        the schedule log, so trace and log stay joinable; an untraced
        run writes only the plain log row.
        """
        log = self.event_log
        if self.tracer.enabled:
            if via is not None:
                attrs["via"] = via
            attrs["job"] = job.id
            attrs["size"] = job.size
            self.tracer.instant("sched." + kind, attrs)
            if log is not None:
                log.record(now, kind, job.id, job.size, via, attrs=attrs)
        elif log is not None:
            log.record(now, kind, job.id, job.size, via)

    def enqueue(self, job: Job) -> None:
        queue = self.queue
        if self.priority_key is None:
            queue.append(job)
        else:
            bisect.insort(queue, job, key=self.priority_key)
        sim = self.sim
        sim.peak_queue_len = max(sim.peak_queue_len, len(queue))

    def kill_job(self, job: Job, now: float, released: bool = False) -> None:
        """Drain one fault victim through the ordinary release path
        and resubmit it per the active queue order.  ``released=True``
        means the caller already returned the allocation (the bulk
        path in :meth:`kill_jobs`)."""
        resilience = self.resilience
        elapsed = now - job.start
        planned = job.end - job.start
        saved = min(resilience.saved_work(elapsed), planned)
        if not released:
            self.allocator.release(job.id)
        if self.sim.runtime_model is not None:
            self.sim.runtime_model.on_release(job.id)
        self.running.pop(job.id)
        self.live_comp.pop(job.id, None)
        self.cur_busy -= job.size
        resilience.stats.wasted_node_seconds += (elapsed - saved) * job.size
        resilience.stats.resubmissions += 1
        if planned > 0 and saved > 0:
            wf = self.work_frac
            wf[job.id] = wf.get(job.id, 1.0) * (1.0 - saved / planned)
        job.start = -1.0
        job.end = -1.0
        self.emit(now, "kill", job, elapsed=elapsed, saved=saved)
        self.enqueue(job)
        if self.event_log is not None:
            self.event_log.record(now, "requeue", job.id, job.size)
        self.sample()

    def kill_jobs(self, jobs: List[Job], now: float) -> None:
        """Drain a fault's victims through the bulk release path.

        One grouped :meth:`~repro.core.allocator.Allocator.release_many`
        returns every victim's allocation, then each victim runs the
        ordinary :meth:`kill_job` bookkeeping (in the same sorted-id
        order the scalar twin uses, so requeue order is identical).
        """
        self.allocator.release_many([job.id for job in jobs])
        for job in jobs:
            self.kill_job(job, now, released=True)

    # -- scheduling passes ---------------------------------------------
    #
    # Both passes walk their window once, in queue order, with the rules
    # of :mod:`repro.sched.backfill` (EASY) or
    # :meth:`~repro.sched.profile.FreeProfile.earliest_fit`
    # (conservative).  Their speed comes from never *running* a search
    # whose failure is already proven: the feasibility cache's floors
    # and the allocator's batch screen are both durable-infeasibility
    # proofs, so a candidate they condemn is skipped via
    # ``charge_skip`` — which moves the attempt/failure/cache counters
    # exactly as the failed ``allocate`` would have.
    # Decisions are held to the golden digests in
    # ``tests/data/decision_digests.json``.

    def schedule(self, now: float) -> None:
        """One scheduling pass under the simulator's backfill policy."""
        if self.sim.backfill_policy == "conservative":
            self.conservative_schedule(now)
        else:
            self.easy_schedule(now)

    def dispatch_start(
        self, job: Job, now: float, via: str, key, screened: bool = False
    ) -> bool:
        """``try_start`` with proven-failure short-circuits.

        Checks, in order: the allocator's feasibility cache
        (:meth:`~repro.core.allocator.Allocator.cut_infeasible`), then
        the caller's precomputed batch-screen verdict (one batch call
        covers a whole window; head dispatches skip the screen — a head
        fails at most once per pass and that failure is durably
        cached).  Each is a durable proof that the search would fail,
        so the skip is charged like the failed ``allocate`` and the
        verdict is identical — only the lost search is saved.
        """
        alloc = self.allocator
        if alloc.cut_infeasible(key[0], key[1]):
            reason = "cache"
        elif screened:
            reason = "screen"
        else:
            return self.try_start(job, now, via=via)
        if self.provenance:
            self.prov_attempt(job, now)
            self.prov_counts[job.id, "skip_" + reason] += 1
        alloc.charge_skip(job.id, job.size, job.bw_need, reason)
        return False

    def easy_schedule(self, now: float) -> None:
        """EASY pass: FIFO from the head, then backfill the window.

        The FIFO phase starts jobs from the head until one blocks, with
        proven failures short-circuited.  The blocked head holds a
        :func:`~repro.sched.backfill.compute_reservation` over the
        running set, and the window behind it is tried in queue order
        under :func:`~repro.sched.backfill.may_backfill`
        (:meth:`_backfill_window`).
        """
        sim = self.sim
        queue = self.queue
        failed: set = set()
        while queue:
            job = queue[0]
            key = (self.eff(job), job.bw_need)
            if not self.dispatch_start(job, now, "fifo", key):
                failed.add(key)
                break
            del queue[0]
            self.sample()
        if not queue or sim.backfill_window <= 0:
            self.head_reservation = None
            return
        head_job = queue[0]
        # The head's reservation is computed when it first blocks and
        # honored according to the reservation policy.  Recomputing
        # every event ("slip") lets the shadow slip forever under
        # constrained allocators — the node-count shadow
        # underestimates when fragmentation, not node count, blocks
        # the head — which starves large jobs; never recomputing
        # ("sticky") forces full drains.  The default renews the
        # reservation only once its shadow time has passed.
        held = self.head_reservation
        expired = (
            held is not None
            and sim.reservation_policy == "renew"
            and now >= held[1].shadow_time
        )
        if (
            held is None
            or held[0] != head_job.id
            or sim.reservation_policy == "slip"
            or expired
        ):
            held = self.head_reservation = (
                head_job.id,
                compute_reservation(
                    now, self.eff(head_job), self.allocator.free_nodes,
                    self.running.values(),
                ),
            )
        reservation = held[1]
        tracer = self.tracer
        bspan = tracer.begin("backfill.window") if tracer.enabled else None
        cands = queue[1:sim.backfill_window + 1]
        started = 0
        if cands:
            started = self._backfill_window(now, cands, reservation, failed)
        if bspan is not None:
            bspan.set(
                window=sim.backfill_window, scanned=len(cands),
                started=started, head=head_job.id,
                shadow_time=reservation.shadow_time,
            )
            tracer.end(bspan)

    def _backfill_window(
        self, now: float, cands: List[Job], reservation: Reservation,
        failed: set,
    ) -> int:
        """Try the backfill window ``queue[1:window + 1]`` in queue
        order; returns how many candidates started.

        A candidate is skipped when its ``(effective size, bw_need)``
        key already failed this pass, when it needs more nodes than are
        free, or when :func:`~repro.sched.backfill.may_backfill` says
        starting it could delay the head's reservation; every other
        candidate is dispatched.
        """
        alloc = self.allocator
        queue = self.queue
        effs = [self.eff(job) for job in cands]
        # One batch screen for the whole window: sound because free
        # capacity only shrinks during a pass, so infeasible-now stays
        # infeasible at any later dispatch within the pass.
        screen = alloc.batch_screen(effs)
        started = 0
        for i, cand in enumerate(cands):
            eff = effs[i]
            key = (eff, cand.bw_need)
            free = alloc.free_nodes
            if key in failed or eff > free:
                continue
            if not may_backfill(
                now, self.walltime_est(cand), free, eff, reservation
            ):
                continue
            if self.dispatch_start(
                cand, now, "backfill", key, screen is not None and screen[i]
            ):
                # cands[i] sits at queue[1 + i], less one place for
                # every candidate already started and removed
                del queue[1 + i - started]
                started += 1
                self.sample()
            else:
                failed.add(key)
        return started

    def conservative_schedule(self, now: float) -> None:
        """Every job in the window gets a reservation; a job starts
        only if its reservation is 'now' (so no earlier job is ever
        delayed by a later one).  Each candidate's reservation is the
        profile's :meth:`~repro.sched.profile.FreeProfile.earliest_fit`,
        and proven-lost searches are charged skips."""
        alloc = self.allocator
        queue = self.queue
        cands = queue[:self.sim.backfill_window + 1]
        if not cands:
            return
        failed: set = set()
        profile = FreeProfile(now, alloc.free_nodes)
        for est_end, eff_size in self.running.values():
            profile.release_at(est_end, eff_size)
        effs = [self.eff(job) for job in cands]
        screen = alloc.batch_screen(effs)
        started = 0
        for i, job in enumerate(cands):
            size = effs[i]
            wall = self.walltime_est(job)
            start = profile.earliest_fit(size, wall)
            key = (size, job.bw_need)
            if start <= now:
                if key not in failed and self.dispatch_start(
                    job, now, "reserved", key,
                    screen is not None and screen[i],
                ):
                    del queue[i - started]
                    started += 1
                    profile.reserve(now, now + wall, size)
                    self.sample()
                    continue
                # The profile says the job fits now but the allocator
                # has already proven (this pass) that it cannot place
                # the shape — fragmentation-blocked.  Reserving at
                # ``now`` anyway would book capacity the job provably
                # cannot use and push every later reservation behind
                # phantom load, so the reservation defers to the next
                # expected release, where the free pattern can change.
                failed.add(key)
                later = [t for t in profile._times if t > now]
                start = later[0] if later else FOREVER
            if start != FOREVER:
                profile.reserve(start, start + wall, size)

    # -- event drains --------------------------------------------------
    def drain_scalar(
        self, times: List[float], kinds: List[int], payloads: List[int]
    ) -> Tuple[int, int]:
        """Apply one round's events one at a time (the historical loop;
        the ``REPRO_NAIVE_EVENTS=1`` twin, and the only drain that
        feeds per-event telemetry sinks).  Returns (arrivals,
        completions)."""
        sim = self.sim
        completion_jobs = self.streams.completion_jobs
        tracer = self.tracer
        sampler = self.sampler
        resilience = self.resilience
        arrivals = 0
        completions = 0
        for t, kind, payload in zip(times, kinds, payloads):
            if sampler is not None:
                # Boundaries before t see the state as of entering
                # them: sample *before* applying the event.
                sampler.advance_to(t, self.sample_row)
            if tracer.enabled:
                tracer.sim_time = t
            self.advance(t)
            if kind == FAULT_REPAIR:
                resilience.repair(payload, t)
            elif kind == FAULT_INJECT:
                # Victims drain through the ordinary release path
                # before the injector claims the hardware.
                for victim_id in resilience.victims(payload):
                    self.kill_job(self.by_id[victim_id], t)
                resilience.inject(payload, t)
            elif kind == COMPLETION:
                job = completion_jobs[payload]
                if resilience is not None:
                    if self.live_comp.get(job.id) != payload:
                        continue  # orphaned by a kill
                    self.live_comp.pop(job.id)
                self.allocator.release(job.id)
                if sim.runtime_model is not None:
                    sim.runtime_model.on_release(job.id)
                self.running.pop(job.id)
                self.cur_busy -= job.size
                self.last_completion = t
                completions += 1
                self.emit(t, "complete", job)
                self.sample()
            else:  # ARRIVAL — payload is the job's trace index
                job = self.jobs[payload]
                arrivals += 1
                if self.event_log is not None:
                    self.event_log.record(t, "arrive", job.id, job.size)
                self.enqueue(job)
        return arrivals, completions

    def drain_columnar(
        self, times: List[float], kinds: List[int], payloads: List[int]
    ) -> Tuple[int, int]:
        """Apply one round's events as bulk state transitions.

        ``take_round`` yields the events in global ``(time, kind,
        payload)`` order; one walk over ``kinds`` splits the batch into
        maximal same-kind segments (preserving that order) and hands
        completion/arrival segments to the columnar handlers.  Fault
        events stay per-event — they are rare — but their victims
        drain through the bulk release path (:meth:`kill_jobs`).
        Decisions, areas and histogram counts are identical to
        :meth:`drain_scalar`.

        Tiny rounds (event-driven mode drains one timestamp at a time)
        fall back to the scalar loop: segmenting a two-event batch
        costs more than it saves, and the two drains are
        interchangeable mid-run precisely because they are decision-
        identical.
        """
        n = len(times)
        if n < 16:
            return self.drain_scalar(times, kinds, payloads)
        resilience = self.resilience
        arrivals = 0
        completions = 0
        e = 0
        while e < n:
            s = e
            kind = kinds[s]
            e += 1
            while e < n and kinds[e] == kind:
                e += 1
            if kind == COMPLETION:
                completions += self.complete_batch(
                    times[s:e], payloads[s:e]
                )
            elif kind == ARRIVAL:
                self.enqueue_batch(times[s:e], payloads[s:e])
                arrivals += e - s
            else:
                for t, payload in zip(times[s:e], payloads[s:e]):
                    self.advance(t)
                    if kind == FAULT_REPAIR:
                        resilience.repair(payload, t)
                    else:  # FAULT_INJECT
                        victims = resilience.victims(payload)
                        if victims:
                            self.kill_jobs(
                                [self.by_id[vid] for vid in victims], t
                            )
                        resilience.inject(payload, t)
        return arrivals, completions

    def complete_batch(self, times: List[float], slots: List[int]) -> int:
        """Retire a time-sorted run of completions in one transition.

        The area accumulators advance event by event in the exact
        float-operation order of the scalar twin (the utilization
        metrics are sums of per-interval products, so association
        order matters down to the bit); everything O(1)-per-event
        beyond that — allocation release, the occupancy-index update,
        the feasibility-cache invalidation — is grouped into one
        ``release_many``.
        """
        completion_jobs = self.streams.completion_jobs
        resilience = self.resilience
        running = self.running
        # Constant across the run: no arrivals, kills or fault events
        # occur inside a same-kind segment.
        pending = len(self.queue)
        cap = self.capacity()
        degraded = resilience.degraded_nodes if resilience is not None else 0
        stats = resilience.stats if resilience is not None else None
        last_t = self.last_t
        tba = self.total_busy_area
        ba = self.busy_area
        da = self.demand_area
        busy = self.cur_busy
        live: List[Job] = []
        want_util = pending > 0 and cap > 0
        for t, slot in zip(times, slots):
            dt = t - last_t
            if dt > 0:
                tba += busy * dt
                if pending > 0:
                    ba += busy * dt
                    da += cap * dt
                if stats is not None:
                    stats.degraded_node_seconds += degraded * dt
                last_t = t
            job = completion_jobs[slot]
            if resilience is not None:
                # Orphaned by a kill: the clock still advanced above,
                # exactly like the scalar twin.
                if self.live_comp.get(job.id) != slot:
                    continue
                self.live_comp.pop(job.id)
            busy -= job.size
            live.append(job)
            self.last_completion = t
            if want_util:
                self.instant.add(100.0 * busy / cap)
        self.last_t = last_t
        self.total_busy_area = tba
        self.busy_area = ba
        self.demand_area = da
        self.cur_busy = busy
        if live:
            self.allocator.release_many([job.id for job in live])
            rm = self.sim.runtime_model
            for job in live:
                if rm is not None:
                    rm.on_release(job.id)
                running.pop(job.id)
        return len(live)

    def enqueue_batch(self, times: List[float], indexes: List[int]) -> None:
        """Enqueue a time-sorted run of arrivals (by trace index) in one
        transition."""
        resilience = self.resilience
        stats = resilience.stats if resilience is not None else None
        degraded = resilience.degraded_nodes if resilience is not None else 0
        cap = self.capacity()
        last_t = self.last_t
        tba = self.total_busy_area
        ba = self.busy_area
        da = self.demand_area
        busy = self.cur_busy
        pending = len(self.queue)
        for t in times:
            dt = t - last_t
            if dt > 0:
                tba += busy * dt
                if pending > 0:
                    ba += busy * dt
                    da += cap * dt
                if stats is not None:
                    stats.degraded_node_seconds += degraded * dt
                last_t = t
            pending += 1
        self.last_t = last_t
        self.total_busy_area = tba
        self.busy_area = ba
        self.demand_area = da
        jobs = [self.jobs[i] for i in indexes]
        queue = self.queue
        if self.priority_key is None:
            queue.extend(jobs)
        else:
            for job in jobs:
                bisect.insort(queue, job, key=self.priority_key)
        sim = self.sim
        sim.peak_queue_len = max(sim.peak_queue_len, len(queue))

    # -- drive loop ----------------------------------------------------
    def drive(self) -> None:
        """Run rounds until every stream is drained.

        Each round covers ``(previous boundary, round_t]``: drain the
        round's events in global ``(time, kind, payload)`` order (advancing
        the clock and areas event by event), then run one scheduling
        pass at the boundary.  Event-driven mode is the degenerate case
        ``round_t = next event time`` — one timestamp per round, a pass
        after every event batch, bit-identical to the historical loop.
        """
        sim = self.sim
        step = sim.step_interval
        streams = self.streams
        tracer = self.tracer
        sampler = self.sampler
        t0 = self.last_t
        round_idx = 0
        while True:
            first = streams.next_time()
            if first == float("inf"):
                break
            if step is None:
                round_t = first
            else:
                round_t = round_boundary(t0, first, step)
            rspan = (
                tracer.begin("sched.round")
                if step is not None and tracer.enabled
                else None
            )
            times, kinds, payloads = streams.take_round(round_t)
            if self.columnar_drain:
                arrivals, completions = self.drain_columnar(
                    times, kinds, payloads
                )
            else:
                arrivals, completions = self.drain_scalar(
                    times, kinds, payloads
                )
            # The scheduling pass runs at the round boundary (in event
            # mode the boundary *is* the batch timestamp, so these
            # advances are no-ops).
            if sampler is not None:
                sampler.advance_to(round_t, self.sample_row)
            if tracer.enabled:
                tracer.sim_time = round_t
            self.advance(round_t)
            span = tracer.begin("sched.pass") if tracer.enabled else None
            queue_before = len(self.queue)
            self.schedule(round_t)
            self.rounds += 1
            self.last_sched_t = round_t
            if span is not None:
                span.set(
                    arrivals=arrivals, completions=completions,
                    queue_before=queue_before, queue_after=len(self.queue),
                    started=queue_before - len(self.queue),
                    running=len(self.running),
                    free_nodes=self.allocator.free_nodes,
                )
                tracer.end(span)
            if rspan is not None:
                rspan.set(
                    round=round_idx, step=step, drained=len(times),
                    arrivals=arrivals, completions=completions,
                    lag=round_t - first,
                    started=queue_before - len(self.queue),
                )
                tracer.end(rspan)
            round_idx += 1
            if self.queue and not self.running and streams.empty():
                # Nothing can ever start these jobs (should not happen
                # for valid traces; recorded for failure-injection tests).
                for job in self.queue:
                    self.unscheduled.append(job.id)
                    if self.event_log is not None:
                        self.event_log.record(
                            round_t, "unscheduled", job.id, job.size
                        )
                self.queue.clear()
                break

        if sampler is not None:
            sampler.finish(self.last_t, self.sample_row)

    # -- result --------------------------------------------------------
    def result(self, name: str) -> SimResult:
        sim = self.sim
        resilience = self.resilience
        completed = [
            JobRecord(j.id, j.size, float(j.arrival), j.start, j.end)
            for j in self.jobs
            if j.end >= 0
        ]
        return SimResult(
            scheme=self.allocator.name,
            trace_name=name,
            system_nodes=self.n_system,
            jobs=completed,
            makespan=self.last_completion - self.makespan_start,
            busy_area=self.busy_area,
            demand_area=self.demand_area,
            total_busy_area=self.total_busy_area,
            instant=self.instant,
            stats=dataclasses.replace(self.allocator.stats),
            unscheduled=self.unscheduled,
            samples=(
                list(self.sampler.rows) if self.sampler is not None else []
            ),
            faults_injected=(
                resilience.stats.injected if resilience is not None else 0
            ),
            faults_repaired=(
                resilience.stats.repaired if resilience is not None else 0
            ),
            resubmissions=(
                resilience.stats.resubmissions
                if resilience is not None else 0
            ),
            wasted_node_seconds=(
                resilience.stats.wasted_node_seconds
                if resilience is not None else 0.0
            ),
            degraded_node_seconds=(
                resilience.stats.degraded_node_seconds
                if resilience is not None else 0.0
            ),
            scheduling_rounds=self.rounds,
            step_interval=sim.step_interval,
            provenance=(
                self._provenance_rows() if self.provenance else []
            ),
        )
