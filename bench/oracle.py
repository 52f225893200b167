"""Output checks for every replay the benchmark makes.

* :func:`check_result` — every submitted job reaches exactly one
  terminal state (completed or unscheduled), no record starts before
  it arrived or ends before it started, and a start/end sweep over the
  completed records never has more requested nodes running than the
  cluster has.
* :class:`PlacementRecorder` — wraps one allocator's public
  ``allocate``/``release``/``release_many`` to keep its own node
  ownership map (a node handed to a second live job is a violation,
  whatever ``ClusterState`` believes) and to collect jigsaw/laas
  placements for the paper's §3.2 conditions
  (:func:`repro.core.conditions.check_allocation`).
* :func:`decisions_sha256` — the record digest of
  ``benchmarks/_fingerprint.py``, printed per cell as information and
  used to prove the traced replay decided exactly like the untraced one.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.core.conditions import check_allocation

#: schemes whose placements the §3.2 oracle covers; LaaS rounds jobs up
#: to whole leaves, so it is checked without the N == Nr condition
CONDITION_SCHEMES = {"jigsaw": True, "laas": False}


def decisions_sha256(result) -> str:
    records = [
        (r.job_id, r.size, r.arrival, r.start, r.end) for r in result.jobs
    ]
    return hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()
    ).hexdigest()


def check_result(result, trace, num_nodes: int) -> List[str]:
    """Run-level conservation checks on one ``SimResult``."""
    v: List[str] = []
    submitted = {j.id for j in trace.jobs}
    completed = [r.job_id for r in result.jobs]
    unscheduled = list(result.unscheduled)
    terminal = completed + unscheduled
    if len(set(terminal)) != len(terminal):
        v.append("a job reached a terminal state more than once")
    if set(terminal) != submitted:
        missing = len(submitted - set(terminal))
        extra = len(set(terminal) - submitted)
        v.append(f"{missing} jobs never terminated, {extra} unknown ids")
    events = []
    for r in result.jobs:
        if r.start < r.arrival or r.end < r.start:
            v.append(f"job {r.job_id}: arrival {r.arrival}, "
                     f"start {r.start}, end {r.end}")
        events.append((r.start, 1, r.size))
        events.append((r.end, 0, -r.size))
    # Ends sort before starts at equal times: a job ending at t frees
    # its nodes for a job starting at t.
    events.sort()
    running = 0
    for t, _, delta in events:
        running += delta
        if running > num_nodes:
            v.append(f"{running} requested nodes running at t={t} "
                     f"on a {num_nodes}-node cluster")
            break
    return v


class PlacementRecorder:
    """Independent node-ownership and placement check for one allocator."""

    def __init__(self, allocator):
        self.allocator = allocator
        self.violations: List[str] = []
        self.placements = []
        self._owner: Dict[int, int] = {}
        self._nodes: Dict[int, tuple] = {}
        allocate = allocator.allocate
        release = allocator.release
        release_many = allocator.release_many

        def recorded_allocate(job_id, size, bw_need=None):
            alloc = allocate(job_id, size, bw_need=bw_need)
            if alloc is not None:
                self._claim(job_id, alloc)
            return alloc

        def recorded_release(job_id):
            release(job_id)
            self._drop(job_id)

        def recorded_release_many(job_ids):
            ids = list(job_ids)
            release_many(ids)
            for job_id in ids:
                self._drop(job_id)

        allocator.allocate = recorded_allocate
        allocator.release = recorded_release
        allocator.release_many = recorded_release_many

    def _claim(self, job_id: int, alloc) -> None:
        for n in alloc.nodes:
            holder = self._owner.get(n)
            if holder is not None:
                self.violations.append(
                    f"node {n} handed to job {job_id} while job "
                    f"{holder} holds it"
                )
            self._owner[n] = job_id
        self._nodes[job_id] = alloc.nodes
        if self.allocator.name in CONDITION_SCHEMES:
            self.placements.append(alloc)

    def _drop(self, job_id: int) -> None:
        for n in self._nodes.pop(job_id, ()):
            if self._owner.get(n) == job_id:
                del self._owner[n]

    def check(self) -> List[str]:
        """Ownership violations seen during the run, then the §3.2
        conditions of every collected placement."""
        v = list(self.violations)
        exact = CONDITION_SCHEMES.get(self.allocator.name, True)
        for alloc in self.placements:
            for problem in check_allocation(
                self.allocator.tree, alloc, exact_nodes=exact
            ):
                v.append(f"job {alloc.job_id}: {problem}")
        return v
