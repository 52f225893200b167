"""The unit of work: a batch job from a queue trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

_INF = float("inf")


@dataclass
class Job:
    """One job of a trace.

    ``runtime`` is the job's run time under traditional (interfering)
    scheduling; ``speedup`` is the fractional improvement the job enjoys
    when its network is isolated (section 5.4.1's performance scenarios),
    so its isolated run time is ``runtime / (1 + speedup)``.

    ``bw_need`` is the average per-link bandwidth (GB/s) the LC+S scheme
    is assumed to know (section 5.4.2); other schemes ignore it.
    """

    id: int
    size: int
    runtime: float
    arrival: float = 0.0
    bw_need: Optional[float] = None
    speedup: float = 0.0

    # Filled in by the simulator:
    start: float = field(default=-1.0, compare=False)
    end: float = field(default=-1.0, compare=False)

    def __post_init__(self) -> None:
        # The chains also reject NaN (every NaN comparison is false): a
        # NaN or infinite time would leave the job without a terminal state.
        if self.size < 1:
            raise ValueError(f"job {self.id}: size must be positive")
        if not 0.0 < self.runtime < _INF:
            raise ValueError(f"job {self.id}: runtime must be finite and > 0")
        if not 0.0 <= self.arrival < _INF:
            raise ValueError(f"job {self.id}: arrival must be finite and >= 0")
        if not 0.0 <= self.speedup < _INF:
            raise ValueError(f"job {self.id}: speedup must be finite and >= 0")
        if self.bw_need is not None and not 0.0 <= self.bw_need < _INF:
            raise ValueError(f"job {self.id}: bw_need must be finite and >= 0")

    @property
    def isolated_runtime(self) -> float:
        """Run time when the job's network partition is interference-free."""
        return self.runtime / (1.0 + self.speedup)

    def runtime_under(self, low_interference: bool) -> float:
        """Run time under a scheme with or without interference freedom."""
        return self.isolated_runtime if low_interference else self.runtime

    @property
    def turnaround(self) -> float:
        """Queue arrival to completion (requires a finished simulation)."""
        if self.end < 0:
            raise ValueError(f"job {self.id} has not completed")
        return self.end - self.arrival

    @property
    def wait(self) -> float:
        """Queue arrival to start of execution."""
        if self.start < 0:
            raise ValueError(f"job {self.id} never started")
        return self.start - self.arrival

    def reset(self) -> None:
        """Clear simulation results so the job can be re-simulated."""
        self.start = -1.0
        self.end = -1.0
