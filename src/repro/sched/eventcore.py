"""Event core: the simulator's one event heap.

:class:`EventStreams` holds every pending event of one run on a single
``heapq`` of ``(time, kind, payload)`` tuples.  Arrivals, fault repairs
and fault injections are known up front; completions are pushed as
jobs start.  :meth:`EventStreams.take_round` pops every event up to a
time bound, so a round is exactly the due events in ``(time, kind,
payload)`` order (``benchmarks/_fingerprint.py --compare`` holds the
replay to that).

Event kinds, in sort order at equal times: repairs free hardware first,
then completions free jobs, then arrivals join the queue, and only then
do fault injections land — so a job finishing exactly when its node
dies completes rather than being killed.  Within a kind the payload
breaks ties: the job's trace index for arrivals (trace order), a
timeline index for repairs and injections, and a push-order slot for
completions.  A payload is unique within its kind, so the tuple order
is total.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Tuple

#: event kinds, in their equal-time processing order
FAULT_REPAIR = -1
COMPLETION = 0
ARRIVAL = 1
FAULT_INJECT = 2

_INF = math.inf


class EventStreams:
    """Every pending event of one run on one heap.

    Entries are ``(time, kind, payload)`` tuples.  The constructor takes
    the pre-known streams as ``(time, payload)`` pairs — arrivals keyed
    by trace index, repairs and injections by fault-timeline index;
    :meth:`push_completion` adds a completion as its job starts.
    """

    __slots__ = ("heap", "completion_jobs")

    def __init__(
        self,
        arrivals: Iterable[Tuple[float, int]],
        repairs: Iterable[Tuple[float, int]] = (),
        injects: Iterable[Tuple[float, int]] = (),
    ):
        heap = [(t, ARRIVAL, i) for t, i in arrivals]
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
