"""The :class:`Trace` container and its Table 1 statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.sched.job import Job


@dataclass(frozen=True)
class TraceStats:
    """One row of Table 1."""

    name: str
    system_nodes: Optional[int]
    num_jobs: int
    max_job_nodes: int
    min_runtime: float
    max_runtime: float
    has_arrivals: bool

    def as_row(self) -> dict:
        return {
            "Trace name": self.name,
            "System nodes": self.system_nodes if self.system_nodes else "-",
            "Number of jobs": self.num_jobs,
            "Max job nodes": self.max_job_nodes,
            "Job run times (s)": f"{self.min_runtime:g}-{self.max_runtime:g}",
            "Arrival times": "Y" if self.has_arrivals else "N",
        }


@dataclass
class Trace:
    """A job queue: the input of one simulation.

    ``system_nodes`` records the node count of the *source* system the
    trace models (Table 1's "System nodes" column); the simulated
    cluster may be larger (the paper runs Thunder/Atlas/Cab on the
    1458-node cluster).
    """

    name: str
    jobs: List[Job]
    system_nodes: Optional[int] = None
    has_arrivals: bool = False
    description: str = ""
    _sorted: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError(f"trace {self.name!r} has no jobs")
        if len({j.id for j in self.jobs}) != len(self.jobs):
            # Walk only on failure, to name the first id seen twice.
            seen: set = set()
            for job in self.jobs:
                if job.id in seen:
                    raise ValueError(
                        f"trace {self.name!r} has duplicate job id {job.id}"
                    )
                seen.add(job.id)
        if not self._sorted:
            self.jobs.sort(key=lambda j: (j.arrival, j.id))
            self._sorted = True

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    # ------------------------------------------------------------------
    def stats(self) -> TraceStats:
        """Summarize the trace as a Table 1 row."""
        return TraceStats(
            name=self.name,
            system_nodes=self.system_nodes,
            num_jobs=len(self.jobs),
            max_job_nodes=max(j.size for j in self.jobs),
            min_runtime=min(j.runtime for j in self.jobs),
            max_runtime=max(j.runtime for j in self.jobs),
            has_arrivals=self.has_arrivals,
        )

    def head(self, num_jobs: int, name: Optional[str] = None) -> "Trace":
        """The first ``num_jobs`` jobs (in arrival order).

        This is the scale knob for the benchmarks: taking a prefix keeps
        the size/run-time distributions and, for arrival traces, the
        offered load, while shrinking simulation cost.
        """
        if num_jobs >= len(self.jobs):
            return self
        return Trace(
            name=name or f"{self.name}[:{num_jobs}]",
            jobs=[replace(j) for j in self.jobs[:num_jobs]],
            system_nodes=self.system_nodes,
            has_arrivals=self.has_arrivals,
            description=self.description,
        )

    def scale_arrivals(self, factor: float) -> "Trace":
        """Multiply every arrival time by ``factor``.

        The paper scales Aug-Cab and Nov-Cab arrivals by 0.5 to raise
        their otherwise-low offered load.
        """
        jobs = [replace(j, arrival=j.arrival * factor) for j in self.jobs]
        return Trace(
            name=self.name,
            jobs=jobs,
            system_nodes=self.system_nodes,
            has_arrivals=self.has_arrivals,
            description=self.description,
        )

    def zeroed_arrivals(self) -> "Trace":
        """Discard arrival times (all jobs available at time zero), as the
        paper does for Thunder and Atlas to test under heavy load."""
        jobs = [replace(j, arrival=0.0) for j in self.jobs]
        return Trace(
            name=self.name,
            jobs=jobs,
            system_nodes=self.system_nodes,
            has_arrivals=False,
            description=self.description,
        )
