"""Campaign runner: persistent, resumable experiment sweeps.

Full-scale reproduction (REPRO_FULL_SCALE=1) means dozens of multi-
minute simulations; a campaign makes that practical by persisting each
completed run to a JSON file and skipping it on re-invocation.  A
campaign is simply the cross product of traces x schemes x scenarios,
with the trace built once per name and reused.

Example::

    campaign = Campaign(path="results/full_fig6.json", scale=1.0)
    campaign.run(traces=ALL_TRACE_NAMES, schemes=FIG6_SCHEMES)
    print(campaign.table("steady_state_utilization"))
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments import grid
from repro.experiments.report import render_table
from repro.sched.metrics import SimResult

#: the scalar metrics a campaign records per run
METRICS = (
    "steady_state_utilization",
    "overall_utilization",
    "makespan",
    "mean_turnaround",
    "mean_turnaround_large",
    "mean_wait",
    "mean_sched_time_per_job",
)


@dataclass(frozen=True)
class RunKey:
    """Identity of one simulation within a campaign."""

    trace: str
    scheme: str
    scenario: str
    seed: int

    def as_str(self) -> str:
        return f"{self.trace}|{self.scheme}|{self.scenario}|{self.seed}"

    @classmethod
    def from_str(cls, text: str) -> "RunKey":
        trace, scheme, scenario, seed = text.split("|")
        return cls(trace, scheme, scenario, int(seed))


@dataclass
class RunRecord:
    """Persisted scalar outcomes of one simulation."""

    key: RunKey
    metrics: Dict[str, float]
    num_jobs: int
    wall_seconds: float

    def to_json(self) -> dict:
        d = asdict(self)
        d["key"] = self.key.as_str()
        return d

    @classmethod
    def from_json(cls, d: dict) -> "RunRecord":
        return cls(
            key=RunKey.from_str(d["key"]),
            metrics=dict(d["metrics"]),
            num_jobs=int(d["num_jobs"]),
            wall_seconds=float(d["wall_seconds"]),
        )


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(
            f"unknown campaign metric {metric!r}; known metrics: "
            f"{', '.join(METRICS)}"
        )


def _extract_metrics(result: SimResult) -> Dict[str, float]:
    return {name: float(getattr(result, name)) for name in METRICS}


class Campaign:
    """A persisted sweep of simulations.

    Parameters
    ----------
    path:
        JSON file holding completed runs; created on first save.  Pass
        None for an in-memory (non-persistent) campaign.
    scale:
        Job-count scale forwarded to :func:`paper_setup`.
    """

    #: minimum seconds between incremental saves during a sweep (the
    #: final save always happens; this only throttles mid-sweep
    #: checkpoints so a large campaign is not rewritten per run)
    SAVE_INTERVAL_SECONDS = 5.0

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        scale: Optional[float] = None,
    ):
        self.path = Path(path) if path is not None else None
        self.scale = scale
        self.records: Dict[RunKey, RunRecord] = {}
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        data = json.loads(self.path.read_text())
        if data.get("scale") != self.scale:
            raise ValueError(
                f"campaign file {self.path} was run at scale "
                f"{data.get('scale')}, not {self.scale}"
            )
        for raw in data["runs"]:
            record = RunRecord.from_json(raw)
            self.records[record.key] = record

    def _save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "scale": self.scale,
            "runs": [r.to_json() for r in self.records.values()],
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=1))
        tmp.replace(self.path)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        traces: Sequence[str],
        schemes: Sequence[str],
        scenarios: Sequence[str] = ("none",),
        seeds: Sequence[int] = (0,),
        progress: bool = False,
        workers: Optional[int] = None,
    ) -> List[RunRecord]:
        """Run (or skip, if already recorded) every combination.

        Cells fan out through :func:`repro.experiments.grid.run_grid`
        (``workers=None`` resolves ``REPRO_WORKERS``, default serial);
        records always come back in grid order — traces, seeds,
        scenarios, schemes, nested in that order — regardless of worker
        count or completion order.  Completed runs are checkpointed to
        the campaign file at most every :attr:`SAVE_INTERVAL_SECONDS`
        (plus a final save), so interrupting a long sweep loses at most
        a few seconds of finished work instead of rewriting the whole
        file per run.
        """
        keys = [
            RunKey(trace_name, scheme, scenario, seed)
            for trace_name in traces
            for seed in seeds
            for scenario in scenarios
            for scheme in schemes
        ]
        missing = [key for key in keys if key not in self.records]
        if missing:
            cells = [
                grid.sim_cell(
                    trace=key.trace,
                    scheme=key.scheme,
                    scenario=key.scenario,
                    seed=key.seed,
                    scale=self.scale,
                )
                for key in missing
            ]
            last_save = time.monotonic()

            def on_result(index: int, outcome: grid.CellOutcome) -> None:
                nonlocal last_save
                key = missing[index]
                result = outcome.value
                record = RunRecord(
                    key=key,
                    metrics=_extract_metrics(result),
                    num_jobs=len(result.jobs),
                    wall_seconds=outcome.wall_seconds,
                )
                self.records[key] = record
                now = time.monotonic()
                if now - last_save >= self.SAVE_INTERVAL_SECONDS:
                    self._save()
                    last_save = now
                if progress:
                    print(
                        f"[campaign] {key.as_str()}: "
                        f"util={record.metrics['steady_state_utilization']:.1f}% "
                        f"({record.wall_seconds:.1f}s)"
                    )

            grid.run_grid(cells, workers=workers, on_result=on_result)
            self._save()
        return [self.records[key] for key in keys]

    def run_parallel(
        self,
        traces: Sequence[str],
        schemes: Sequence[str],
        scenarios: Sequence[str] = ("none",),
        seeds: Sequence[int] = (0,),
        workers: int = 4,
        progress: bool = False,
    ) -> List[RunRecord]:
        """:meth:`run` across a process pool (kept for compatibility)."""
        return self.run(
            traces,
            schemes,
            scenarios=scenarios,
            seeds=seeds,
            progress=progress,
            workers=workers,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def value(
        self, trace: str, scheme: str, metric: str,
        scenario: str = "none", seed: int = 0,
    ) -> float:
        """One recorded metric value (KeyError if that run never ran,
        ValueError for a metric not in :data:`METRICS`)."""
        _check_metric(metric)
        key = RunKey(trace, scheme, scenario, seed)
        return self.records[key].metrics[metric]

    def table(
        self,
        metric: str = "steady_state_utilization",
        scenario: str = "none",
        seed: int = 0,
    ) -> str:
        """Render trace x scheme values of one metric (ValueError for a
        metric not in :data:`METRICS`)."""
        _check_metric(metric)
        rows: Dict[str, Dict[str, float]] = {}
        for record in self.records.values():
            k = record.key
            if k.scenario != scenario or k.seed != seed:
                continue
            rows.setdefault(k.trace, {})[k.scheme] = record.metrics[metric]
        if not rows:
            return f"(no campaign runs recorded for scenario {scenario!r})"
        schemes = sorted({s for r in rows.values() for s in r})
        return render_table(
            f"Campaign: {metric} (scenario {scenario})",
            rows,
            schemes,
            row_header="Trace",
        )

    @property
    def total_wall_seconds(self) -> float:
        """Cumulative simulation wall time across all recorded runs."""
        return sum(r.wall_seconds for r in self.records.values())
