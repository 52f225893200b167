"""Future free-node profile: the planning substrate for conservative
backfilling.

A :class:`FreeProfile` is a step function ``free(t)`` for ``t >= now``,
built from the current free-node count, the expected completions of
running jobs (which *release* nodes), and reservations for queued jobs
(which *consume* nodes over an interval).  ``earliest_fit`` finds the
first time a job of a given size could run for its whole (estimated)
duration — the core query of conservative backfilling, where every
queued job holds a reservation and nothing may delay an earlier one.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List

import numpy as np

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
        within the profile's horizon (free never recovers)."""
        candidates = [self.now] + self._times
        for idx, t0 in enumerate(candidates):
            if t0 < self.now:
                continue
            if self.free_at(t0) < nodes:
                continue
            # check the whole interval [t0, t0 + duration)
            end = t0 + duration
            ok = True
            for bt in self._times:
                if bt <= t0:
                    continue
                if bt >= end:
                    break
                if self.free_at(bt) < nodes:
                    ok = False
                    break
            if ok:
                return t0
        return FOREVER

    def earliest_fit_vec(self, nodes: int, duration: float) -> float:
        """Vectorized :meth:`earliest_fit` — identical results.

        One cumulative-sum pass over the breakpoint columns replaces the
        quadratic candidate × ``free_at`` scan: levels are the integer
        cumsum of the deltas, ``bad`` marks levels below ``nodes``, a
        reversed running minimum gives each candidate its next bad
        breakpoint, and a candidate fits iff its own level is good and
        the next bad breakpoint lies at or past ``t0 + duration`` (the
        same float addition and ``>=`` the scalar loop performs, so the
        verdicts are bit-identical).  Used by the conservative pass;
        the loop above is the reference it matches.
        """
        times = self._times
        n = len(times)
        if not n:
            return self.now if self.base >= nodes else FOREVER
        t = np.fromiter(times, np.float64, n)
        deltas = np.fromiter((self._deltas[bt] for bt in times),
                             np.int64, n)
        levels = self.base + np.cumsum(deltas)
        bad = levels < nodes
        next_bad = np.minimum.accumulate(
            np.where(bad, np.arange(n), n)[::-1]
        )[::-1]
        nb_ext = np.append(next_bad, n)
        t_ext = np.append(t, FOREVER)
        if self.base >= nodes and t_ext[int(nb_ext[0])] >= (
            self.now + duration
        ):
            return self.now
        feasible = ~bad & (t_ext[nb_ext[1:]] >= t + duration)
        hits = np.flatnonzero(feasible)
        if hits.size:
            return float(t[int(hits[0])])
        return FOREVER

    def min_free(self, start: float, end: float) -> int:
        """Minimum free-node count over ``[start, end)``."""
        lo = self.free_at(start)
        for bt in self._times:
            if start < bt < end:
                lo = min(lo, self.free_at(bt))
        return lo
