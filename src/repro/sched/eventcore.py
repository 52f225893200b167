"""Array-native event core: the simulator's hot-path event machinery.

The discrete-event loop used to live on one ``heapq`` of
``(time, kind, seq, payload)`` tuples, paying Python-object tuple
comparisons for every push and pop.  This module rebuilds that substrate
on structured numpy arrays:

* :class:`JobTable` — the trace as column arrays (id / size / arrival
  / state), the "job table" the batch-step policy reasons over.  The
  per-job ``Job`` objects stay authoritative for scheduling decisions;
  the table gives the event loop vectorized queries (stable arrival
  order, unique-size validation) without touching them.  The per-run
  ``work_frac`` column carries each job's remaining-work fraction, and
  the provenance columns its skip accounting.
* :class:`ArrayEventQueue` — a *pre-known* event stream (arrivals,
  fault injections, fault repairs) as a sorted time array plus a
  cursor: ``peek`` is an array read, draining a round is one
  ``searchsorted`` slice instead of O(k log n) heap pops.
* :class:`CompletionQueue` — the *dynamic* stream (completions are
  discovered as jobs start) as growable arrays with an append buffer,
  consolidated by one ``lexsort`` per drain — the "round bucket" of the
  batch-step mode.
* :class:`EventStreams` — the four streams merged per round:
  :meth:`EventStreams.take_round` returns every pending event up to a
  time bound in exactly the global ``(time, kind, seq)`` order the old
  heap produced, so the event-driven policy replays bit-identically on
  this core (``benchmarks/_fingerprint.py --compare`` holds it to
  that).

Event kinds, in sort order at equal times: repairs free hardware first,
then completions free jobs, then arrivals join the queue, and only then
do fault injections land — so a job finishing exactly when its node
dies completes rather than being killed.  The same constants the old
heap used; they are the ``kind`` column of a merged round.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

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

    def first_job_with_size(self, size: int):
        """The first job (trace order) requesting ``size`` nodes."""
        idx = int(np.argmax(self.sizes == size))
        return self.jobs[idx]

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

    def arrival_queue(self) -> "ArrayEventQueue":
        """The arrival stream: stable-sorted by time, so equal-time
        arrivals keep trace order — the old heap's seq tie-break."""
        return ArrayEventQueue(self.arrivals, np.arange(len(self.jobs)))


class ArrayEventQueue:
    """A pre-known event stream: sorted times, payload ids, a cursor.

    ``payloads`` are small ints (job-table rows, timeline indices);
    their original order doubles as the equal-time tie-break, matching
    the push order of the heap this replaces.
    """

    __slots__ = ("times", "payloads", "pos")

    def __init__(self, times, payloads):
        times = np.asarray(times, np.float64)
        payloads = np.asarray(payloads, np.int64)
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.payloads = payloads[order]
        self.pos = 0

    def __len__(self) -> int:
        return len(self.times) - self.pos

    def peek_time(self) -> float:
        """Time of the next pending event (``inf`` when drained)."""
        if self.pos >= len(self.times):
            return _INF
        return float(self.times[self.pos])

    def take_until(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Drain every pending event with ``time <= t``: one
        ``searchsorted`` slice, no per-event work."""
        lo = self.pos
        hi = int(np.searchsorted(self.times, t, side="right"))
        if hi < lo:
            hi = lo
        self.pos = hi
        return self.times[lo:hi], self.payloads[lo:hi]


class CompletionQueue:
    """Round-bucketed completion events on growable numpy arrays.

    Pushes append to a plain-list buffer; a drain consolidates the
    buffer into the sorted arrays with one ``lexsort`` over
    ``(time, slot)`` — slots increase in push order, so equal-time
    completions replay in exactly the order the old heap's global
    sequence numbers produced.  The slot also serves as the live-
    completion token the kill path uses to orphan a stale entry (the
    entry itself stays queued and is skipped on drain).
    """

    __slots__ = ("_times", "_slots", "_pos", "_buf_t", "_buf_s",
                 "_buf_min", "_jobs")

    def __init__(self):
        self._times = np.empty(0, np.float64)
        self._slots = np.empty(0, np.int64)
        self._pos = 0
        self._buf_t: List[float] = []
        self._buf_s: List[int] = []
        self._buf_min = _INF
        self._jobs: List = []  # slot-indexed, one entry per push

    def __len__(self) -> int:
        return (len(self._times) - self._pos) + len(self._buf_t)

    def push(self, t: float, job) -> int:
        """Queue ``job``'s completion at ``t``; returns its slot (the
        live-completion token)."""
        slot = len(self._jobs)
        self._jobs.append(job)
        self._buf_t.append(t)
        self._buf_s.append(slot)
        if t < self._buf_min:
            self._buf_min = t
        return slot

    def job(self, slot: int):
        return self._jobs[slot]

    def peek_time(self) -> float:
        head = (
            float(self._times[self._pos])
            if self._pos < len(self._times)
            else _INF
        )
        return head if head <= self._buf_min else self._buf_min

    def _consolidate(self) -> None:
        if not self._buf_t:
            return
        times = np.concatenate(
            [self._times[self._pos:], np.array(self._buf_t, np.float64)]
        )
        slots = np.concatenate(
            [self._slots[self._pos:], np.array(self._buf_s, np.int64)]
        )
        order = np.lexsort((slots, times))
        self._times = times[order]
        self._slots = slots[order]
        self._pos = 0
        self._buf_t.clear()
        self._buf_s.clear()
        self._buf_min = _INF

    def take_until(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Drain every pending completion with ``time <= t`` as
        ``(times, slots)`` in ``(time, slot)`` order — the round
        bucket."""
        if self._buf_t:
            self._consolidate()
        lo = self._pos
        hi = int(np.searchsorted(self._times, t, side="right"))
        if hi < lo:
            hi = lo
        self._pos = hi
        return self._times[lo:hi], self._slots[lo:hi]


class EventStreams:
    """The four event streams of one run, merged per scheduling round.

    ``arrivals``/``repairs``/``injects`` are :class:`ArrayEventQueue`\\ s
    (pre-known), ``completions`` a :class:`CompletionQueue` (dynamic).
    """

    __slots__ = ("arrivals", "completions", "repairs", "injects")

    def __init__(
        self,
        arrivals: ArrayEventQueue,
        completions: CompletionQueue,
        repairs: Optional[ArrayEventQueue] = None,
        injects: Optional[ArrayEventQueue] = None,
    ):
        empty = None
        if repairs is None or injects is None:
            empty = ArrayEventQueue(
                np.empty(0, np.float64), np.empty(0, np.int64)
            )
        self.arrivals = arrivals
        self.completions = completions
        self.repairs = repairs if repairs is not None else empty
        self.injects = injects if injects is not None else ArrayEventQueue(
            np.empty(0, np.float64), np.empty(0, np.int64)
        ) if empty is None else empty

    def next_time(self) -> float:
        """Earliest pending event time across all streams (``inf`` when
        every stream is drained)."""
        t = self.arrivals.peek_time()
        c = self.completions.peek_time()
        if c < t:
            t = c
        r = self.repairs.peek_time()
        if r < t:
            t = r
        i = self.injects.peek_time()
        if i < t:
            t = i
        return t

    def empty(self) -> bool:
        return self.next_time() == _INF

    def take_round(
        self, t: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pending event with ``time <= t``, merged across streams
        into global ``(time, kind, payload)`` order.

        This is the replacement for popping the old heap: one slice per
        stream plus one ``lexsort`` over the round, with the payload ids
        supplying the within-kind tie-break (push order), so the merged
        order is exactly the heap's ``(time, kind, seq)`` order.
        """
        parts = []
        for kind, stream in (
            (FAULT_REPAIR, self.repairs),
            (COMPLETION, self.completions),
            (ARRIVAL, self.arrivals),
            (FAULT_INJECT, self.injects),
        ):
            times, payloads = stream.take_until(t)
            if len(times):
                parts.append((times, kind, payloads))
        if not parts:
            z = np.empty(0, np.float64)
            zi = np.empty(0, np.int64)
            return z, zi.astype(np.int8), zi
        if len(parts) == 1:
            times, kind, payloads = parts[0]
            kinds = np.full(len(times), kind, np.int8)
            return times, kinds, payloads
        times = np.concatenate([p[0] for p in parts])
        kinds = np.concatenate(
            [np.full(len(p[0]), p[1], np.int8) for p in parts]
        )
        payloads = np.concatenate([p[2] for p in parts])
        order = np.lexsort((payloads, kinds, times))
        return times[order], kinds[order], payloads[order]


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
