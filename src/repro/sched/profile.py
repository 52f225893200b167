"""Future free-node profile: the planning substrate for conservative
backfilling.

A :class:`FreeProfile` is a step function ``free(t)`` for ``t >= now``,
built from the current free-node count, the expected completions of
running jobs (which *release* nodes), and reservations for queued jobs
(which *consume* nodes over an interval).  ``earliest_fit`` finds the
first time a job of a given size could run for its whole (estimated)
duration — the core query of conservative backfilling, where every
queued job holds a reservation and nothing may delay an earlier one.
The simulator's conservative pass asks it once per window candidate.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List

#: effectively "forever" for reservation intervals
FOREVER = float("inf")


class FreeProfile:
    """Piecewise-constant free-node count over future time."""

    def __init__(self, now: float, free_now: int):
        self.now = now
        self.base = free_now
        #: time -> cumulative delta applied at that instant
        self._deltas: Dict[float, int] = {}
        self._times: List[float] = []

    def _add_delta(self, t: float, delta: int) -> None:
        if t <= self.now or delta == 0 or t == FOREVER:
            if t <= self.now:
                self.base += delta
            return
        if t not in self._deltas:
            insort(self._times, t)
            self._deltas[t] = 0
        self._deltas[t] += delta

    # ------------------------------------------------------------------
    def release_at(self, t: float, nodes: int) -> None:
        """``nodes`` become free at time ``t`` (a running job's expected
        completion)."""
        if nodes < 0:
            raise ValueError("released node count must be non-negative")
        self._add_delta(t, nodes)

    def reserve(self, start: float, end: float, nodes: int) -> None:
        """``nodes`` are consumed over ``[start, end)`` (a reservation)."""
        if nodes < 0:
            raise ValueError("reserved node count must be non-negative")
        if end <= start:
            raise ValueError("reservation interval must be non-empty")
        self._add_delta(start, -nodes)
        if end != FOREVER:
            self._add_delta(end, nodes)

    # ------------------------------------------------------------------
    def free_at(self, t: float) -> int:
        """Free nodes at time ``t`` (``t >= now``)."""
        free = self.base
        for bt in self._times:
            if bt > t:
                break
            free += self._deltas[bt]
        return free

    def earliest_fit(self, nodes: int, duration: float) -> float:
        """Earliest ``t >= now`` with ``free >= nodes`` throughout
        ``[t, t + duration)``.  Returns ``inf`` if no such time exists
        within the profile's horizon (free never recovers).

        One sweep over the breakpoints: only the start of a run of
        levels ``>= nodes`` can be the answer (a later start in the same
        run ends later and meets the same next shortfall), so the sweep
        returns that start at the first level ``< nodes`` at or after
        ``start + duration``, or when the run lasts forever.
        """
        start = self.now if self.base >= nodes else None
        level = self.base
        deltas = self._deltas
        for t in self._times:
            level += deltas[t]
            if level >= nodes:
                if start is None:
                    start = t
            elif start is not None:
                if t >= start + duration:
                    return start
                start = None
        return FOREVER if start is None else start

    def min_free(self, start: float, end: float) -> int:
        """Minimum free-node count over ``[start, end)``."""
        lo = self.free_at(start)
        for bt in self._times:
            if start < bt < end:
                lo = min(lo, self.free_at(bt))
        return lo
