"""EASY backfilling (Skovira et al. [29]; section 5.3 of the paper).

Under EASY, jobs start FIFO until the head of the queue cannot be
placed.  The head then receives a *reservation*: the shadow time at
which, judging by the expected completions of running jobs, enough nodes
will be free.  Queued jobs within a lookahead window (50 in the paper)
may then start out of order — *backfill* — provided they do not delay
the reservation: either they finish before the shadow time, or they fit
in the nodes the reservation will not need.

The shadow computation is the standard node-count approximation: with a
constrained allocator, "enough free nodes" does not guarantee a legal
placement at the shadow time (that is re-checked when the time comes),
and a fragmentation-blocked head (enough nodes free, no legal shape) is
given the next completion time as its shadow.  The original LaaS code
base, in which the paper implemented all schemes, uses the same
node-count EASY logic.

These two functions are the simulator's EASY rules: the scheduling pass
computes the head's reservation with :func:`compute_reservation` and
asks :func:`may_backfill` about every window candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple


@dataclass(frozen=True)
class Reservation:
    """The head job's reservation: when it should be able to start, and
    how many nodes will remain free once it does."""

    shadow_time: float
    spare_nodes: int


def compute_reservation(
    now: float,
    need: int,
    free_now: int,
    running: Iterable[Tuple[float, int]],
) -> Reservation:
    """Shadow time and spare nodes for a head job needing ``need`` nodes.

    ``running`` holds ``(expected_end, effective_size)`` pairs of running
    jobs, in any order.  If the head is blocked purely by fragmentation
    (``free_now >= need``), the next completion is used as the shadow —
    the earliest moment the fragmentation pattern can change.
    """
    free = free_now
    if free >= need:
        first = min(running, default=None)
        if first is None:
            # Nothing running yet nothing fits: an oversized job on an
            # empty machine; it can never start (caller filters these).
            return Reservation(now, free - need)
        end, released = first
        return Reservation(end, free + released - need)
    for end, released in sorted(running):
        free += released
        if free >= need:
            return Reservation(end, free - need)
    return Reservation(float("inf"), 0)


def may_backfill(
    now: float,
    walltime: float,
    free_now: int,
    effective_size: int,
    reservation: Reservation,
) -> bool:
    """EASY's two backfill conditions: finish before the shadow time, or
    use only nodes the reservation leaves spare."""
    if now + walltime <= reservation.shadow_time:
        return True
    return effective_size <= min(free_now, reservation.spare_nodes)
