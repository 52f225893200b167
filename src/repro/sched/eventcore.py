"""Event core: the simulator's job table and its one event heap.

* :class:`JobTable` — the trace as column arrays (id / size / arrival
  / state), the "job table" the batch-step policy reasons over.  The
  per-job ``Job`` objects stay authoritative for scheduling decisions;
  the table gives the run vectorized queries (first arrival,
  unique-size validation) without touching them.  The per-run
  ``work_frac`` column carries each job's remaining-work fraction, and
  the provenance columns its skip accounting.
* :class:`EventStreams` — every pending event of one run on a single
  ``heapq`` of ``(time, kind, payload)`` tuples.  Arrivals, fault
  repairs and fault injections are known up front; completions are
  pushed as jobs start.  :meth:`EventStreams.take_round` pops every
  event up to a time bound, so a round is exactly the due events in
  ``(time, kind, payload)`` order (``benchmarks/_fingerprint.py
  --compare`` holds the replay to that).

Event kinds, in sort order at equal times: repairs free hardware first,
then completions free jobs, then arrivals join the queue, and only then
do fault injections land — so a job finishing exactly when its node
dies completes rather than being killed.  Within a kind the payload
breaks ties: a job-table row for arrivals (trace order), a timeline
index for repairs and injections, and a push-order slot for
completions.  A payload is unique within its kind, so the tuple order
is total.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: event kinds, in their equal-time processing order
FAULT_REPAIR = -1
COMPLETION = 0
ARRIVAL = 1
FAULT_INJECT = 2

_INF = math.inf


class JobTable:
    """Column-array view of a trace: one numpy array per job field.

    ``state`` tracks each job's lifecycle (``PENDING`` → ``QUEUED`` →
    ``RUNNING`` → ``DONE``, or ``UNSCHEDULED``); the event loop updates
    it as a side channel for vectorized accounting — the ``Job``
    objects remain the source of truth for scheduling decisions.
    """

    PENDING, QUEUED, RUNNING, DONE, UNSCHEDULED = range(5)

    __slots__ = ("jobs", "ids", "sizes", "arrivals", "state", "row_of",
                 "work_frac", "first_eligible", "attempt_count",
                 "skip_cache", "skip_cut", "skip_screen", "skip_search",
                 "skip_budget")

    def __init__(self, jobs: Sequence):
        self.jobs = list(jobs)
        n = len(self.jobs)
        self.row_of = {j.id: i for i, j in enumerate(self.jobs)}
        # Cache each job's row on the Job object: the hot paths address
        # the columns by ``job.row`` instead of a dict lookup.  A job
        # reused across runs is re-stamped by the next table build.
        for i, j in enumerate(self.jobs):
            j.row = i
        self.ids = np.fromiter((j.id for j in self.jobs), np.int64, n)
        self.sizes = np.fromiter((j.size for j in self.jobs), np.int64, n)
        self.arrivals = np.fromiter(
            (j.arrival for j in self.jobs), np.float64, n
        )
        self.state = np.full(n, self.PENDING, np.int8)
        # Remaining-work fraction of a checkpoint-restarted job (1.0 =
        # full work; see :mod:`repro.sched.resilience`).
        self.work_frac = np.ones(n, np.float64)
        # Provenance columns (``Simulator(provenance=True)``): the first
        # time the scheduler *considered* the job, how many allocation
        # attempts were charged for it, and that attempt count broken
        # down by rejection reason (feasibility-cache negative, monotone
        # size cut, batch-screen reject, failed ``_search``, step-budget
        # timeout).  Written only when provenance recording is on;
        # always allocated so the columns are cheap to reason about.
        self.first_eligible = np.full(n, math.nan, np.float64)
        self.attempt_count = np.zeros(n, np.int64)
        self.skip_cache = np.zeros(n, np.int64)
        self.skip_cut = np.zeros(n, np.int64)
        self.skip_screen = np.zeros(n, np.int64)
        self.skip_search = np.zeros(n, np.int64)
        self.skip_budget = np.zeros(n, np.int64)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def first_arrival(self) -> float:
        """Earliest arrival (0.0 for an empty table) — the simulation
        clock's start."""
        if not len(self.jobs):
            return 0.0
        return float(self.arrivals.min())

    def unique_sizes(self) -> np.ndarray:
        """Distinct requested sizes, ascending (for per-size validation:
        O(distinct sizes) allocator calls instead of O(jobs))."""
        return np.unique(self.sizes)

    def first_oversized(self, effective_size, capacity: int):
        """The first job (trace order) whose *effective* size exceeds
        ``capacity``, or ``None`` — one allocator call per distinct size
        instead of one per job."""
        bad = [
            int(s)
            for s in self.unique_sizes()
            if effective_size(int(s)) > capacity
        ]
        if not bad:
            return None
        rows = np.flatnonzero(np.isin(self.sizes, bad))
        return self.jobs[int(rows[0])]


class EventStreams:
    """Every pending event of one run on one heap.

    Entries are ``(time, kind, payload)`` tuples.  The constructor takes
    the pre-known streams as ``(time, payload)`` pairs — arrivals keyed
    by job-table row, repairs and injections by fault-timeline index;
    :meth:`push_completion` adds a completion as its job starts.
    """

    __slots__ = ("heap", "completion_jobs")

    def __init__(
        self,
        arrivals: Iterable[Tuple[float, int]],
        repairs: Iterable[Tuple[float, int]] = (),
        injects: Iterable[Tuple[float, int]] = (),
    ):
        heap = [(t, ARRIVAL, row) for t, row in arrivals]
        heap.extend((t, FAULT_REPAIR, i) for t, i in repairs)
        heap.extend((t, FAULT_INJECT, i) for t, i in injects)
        heapq.heapify(heap)
        self.heap: List[Tuple[float, int, int]] = heap
        #: slot -> job, one entry per :meth:`push_completion`
        self.completion_jobs: List = []

    def push_completion(self, t: float, job) -> int:
        """Queue ``job``'s completion at ``t``; returns its slot, which
        orders equal-time completions by push and is the live-completion
        token the kill path uses to orphan a stale entry."""
        slot = len(self.completion_jobs)
        self.completion_jobs.append(job)
        heapq.heappush(self.heap, (t, COMPLETION, slot))
        return slot

    def next_time(self) -> float:
        """Earliest pending event time (``inf`` when none is pending)."""
        heap = self.heap
        return heap[0][0] if heap else _INF

    def empty(self) -> bool:
        """No event can still fire.  A repair at ``inf`` (a fault that
        is never repaired) stays on the heap but does not count."""
        return self.next_time() == _INF

    def take_round(
        self, t: float
    ) -> Tuple[List[float], List[int], List[int]]:
        """Pop every pending event with ``time <= t``, as the lists
        ``(times, kinds, payloads)`` in ``(time, kind, payload)``
        order."""
        heap = self.heap
        times: List[float] = []
        kinds: List[int] = []
        payloads: List[int] = []
        pop = heapq.heappop
        while heap and heap[0][0] <= t:
            time, kind, payload = pop(heap)
            times.append(time)
            kinds.append(kind)
            payloads.append(payload)
        return times, kinds, payloads


def round_boundary(t0: float, event_time: float, step: float) -> float:
    """The batch-step grid point at or after ``event_time``.

    Rounds live on the grid ``t0 + k * step`` (``t0`` = the run's first
    event time, the Firmament anchor); the next round is the first grid
    point that covers the earliest pending event, so idle stretches are
    skipped instead of ticking empty rounds.
    """
    if event_time <= t0:
        return t0
    k = math.ceil((event_time - t0) / step)
    boundary = t0 + k * step
    # guard against float slop pushing the boundary below the event
    while boundary < event_time:
        k += 1
        boundary = t0 + k * step
    return boundary
