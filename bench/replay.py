"""Measure one workload in this process.

A run has four phases:

1. **Oracle round** (untimed, doubles as the warm-up): every cell of one
   round replays with a :class:`~oracle.PlacementRecorder` attached; its
   decision digest and work counts become the run's reference.
2. **Timed rounds**: each round builds every input from scratch
   :data:`SETUP_REPEATS` times (timed as set-up; the last build is
   replayed), then times ``Simulator.run`` per cell with nothing
   attached.  Rounds repeat until ``seconds`` have passed and at least
   :data:`MIN_ROUNDS` have run.
3. ``peak_rss_mb`` is read after the timed rounds.
4. **Traced round** (``trace=True`` only): one more round with a
   :class:`~layers.LayerTimer` wrapped around every layer; it must
   decide exactly like the reference (same-program guard).

Every replay of every phase goes through :func:`oracle.check_result`.

Host-speed normalization
------------------------
On a shared host the whole process can run up to twice as slow for
minutes at a time, which no median over rounds removes.  Each timed
round therefore also times a fixed interpreter-bound loop
(:func:`calibration_loop`) before its set-up, and before and after
every replay, and rescales each timed span by the mean of the two
calibrations around it to a host on which that loop takes
:data:`REFERENCE_CALIBRATION_S`.  Raw times and calibration times are
reported too.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from layers import LayerTimer, nearest_rank
from oracle import PlacementRecorder, check_result, decisions_sha256
from workloads import setup_round

#: fewest timed rounds a run makes, whatever ``seconds`` says
MIN_ROUNDS = 3

#: times each timed round builds its inputs; set-up takes only
#: milliseconds, so one sample per round is too noisy to compare
SETUP_REPEATS = 3

#: the calibration loop's time that defines reference host speed: its
#: usual time on a quiet 2-vCPU x86-64 cloud VM (Python 3.11, numpy 2.4)
REFERENCE_CALIBRATION_S = 0.0075

#: ``count.<name>`` metric -> the ``SimResult`` field it reads
COUNT_FIELDS = {
    "alloc_attempts": "alloc_attempts",
    "backtrack_steps": "backtrack_steps",
    "cache_hits": "cache_hits",
    "queue_prefiltered": "queue_prefiltered",
    "xpass_memo_hits": "xpass_memo_hits",
    "rounds": "scheduling_rounds",
    "resubmissions": "resubmissions",
}


def calibration_loop() -> int:
    """Fixed work shaped like the simulator's: dict and tuple traffic in
    the interpreter plus small numpy reductions.  Never edit it: every
    normalized time is relative to it."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(30000):
        key = (i * 40503) & 4095
        table[key] = table.get(key, 0) + 1
        acc += key & 7
    arr = np.arange(4096)
    for i in range(400):
        acc += int(np.count_nonzero(arr[(i & 2047):] > i))
    return acc


def time_calibration() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def to_reference(before: float, after: float) -> float:
    """Factor from raw seconds to reference-speed seconds for work timed
    between two calibrations."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


def work_counts(result) -> Dict[str, int]:
    """Exact work counts of one replay (they must repeat exactly)."""
    return {key: getattr(result, f) for key, f in COUNT_FIELDS.items()}


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of ``values``."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values), "median": statistics.median(values),
        "q1": q1, "q3": q3, "min": min(values), "max": max(values),
    }


class Run:
    """Everything one workload run measured and checked."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: label -> (digest, counts, utilization %, mean turnaround s)
        self.reference: Dict[str, tuple] = {}
        #: per timed round: completed jobs, replay wall (raw and at
        #: reference speed), set-up (raw traces, raw allocators and
        #: simulators, total at reference speed), calibration time
        self.round_jobs: List[int] = []
        self.round_wall_s: List[float] = []
        self.round_norm_wall_s: List[float] = []
        self.setup_trace_s: List[float] = []
        self.setup_alloc_s: List[float] = []
        self.setup_norm_s: List[float] = []
        self.calib_s: List[float] = []
        self.peak_rss_mb = 0.0
        self.timer: Optional[LayerTimer] = None
        self.traced_wall_s = 0.0
        self.traced_norm_wall_s = 0.0
        self.traced_jobs = 0

    # -- one replay ------------------------------------------------------
    def replay(self, cell, recorder=None) -> Tuple[float, Optional[object]]:
        """Time ``cell``'s ``Simulator.run`` and check its output.

        Returns ``(wall seconds, result)``; the result is ``None`` when
        the replay raised or failed a check, and the cell's jobs then
        all count as failed.
        """
        jobs = len(cell.trace.jobs)
        self.attempted += jobs
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = cell.sim.run(cell.trace)
        except Exception:  # a cell boundary: report and keep measuring
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self._fail(cell, jobs, "raised (traceback on stderr)")
            return wall, None
        wall = time.perf_counter() - t0
        problems = check_result(result, cell.trace, cell.tree.num_nodes)
        if recorder is not None:
            problems += recorder.check()
        if problems:
            self._fail(cell, jobs, "; ".join(problems[:3]))
            return wall, None
        self.failed += len(result.unscheduled)
        return wall, result

    def _fail(self, cell, jobs: int, why: str) -> None:
        self.failed += jobs
        self.problems.append(f"{cell.label}: {why}")

    def _same_program(self, label: str, result, phase: str) -> None:
        if label not in self.reference:
            return
        digest, counts = decisions_sha256(result), work_counts(result)
        ref = self.reference[label]
        if (digest, counts) != ref[:2]:
            self.problems.append(
                f"{label}: {phase} replay decided differently from the "
                f"oracle round ({digest[:12]} vs {ref[0][:12]}, "
                f"counts {counts} vs {ref[1]})"
            )

    def _calibrated_round(self, cells, phase: str):
        """Replay ``cells`` with the calibration loop timed before the
        first and after each one.  Returns (raw wall, wall at reference
        speed, completed jobs, calibration times); each replay is
        rescaled by the mean of the two calibrations around it."""
        calib = [time_calibration()]
        wall = norm_wall = 0.0
        results = []
        for cell in cells:
            dt, result = self.replay(cell)
            calib.append(time_calibration())
            wall += dt
            norm_wall += dt * to_reference(calib[-2], calib[-1])
            results.append((cell.label, result))
        jobs = 0
        for label, result in results:
            if result is not None:
                jobs += len(result.jobs)
                self._same_program(label, result, phase)
        return wall, norm_wall, jobs, calib

    # -- phases ----------------------------------------------------------
    def oracle_round(self) -> None:
        cells, _, _ = setup_round(self.name, self.seed, self.smoke)
        for cell in cells:
            recorder = PlacementRecorder(cell.sim.allocator)
            _, result = self.replay(cell, recorder)
            if result is not None:
                self.reference[cell.label] = (
                    decisions_sha256(result), work_counts(result),
                    result.steady_state_utilization, result.mean_turnaround,
                )

    def timed_round(self) -> None:
        before = time_calibration()
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            cells, trace_s, alloc_s = setup_round(
                self.name, self.seed, self.smoke
            )
            setups.append((trace_s, alloc_s))
        wall, norm_wall, jobs, calib = self._calibrated_round(cells, "timed")
        trace_s = statistics.median(s[0] for s in setups)
        alloc_s = statistics.median(s[1] for s in setups)
        self.setup_trace_s.append(trace_s)
        self.setup_alloc_s.append(alloc_s)
        self.setup_norm_s.append(
            (trace_s + alloc_s) * to_reference(before, calib[0])
        )
        self.round_jobs.append(jobs)
        self.round_wall_s.append(wall)
        self.round_norm_wall_s.append(norm_wall)
        self.calib_s.append(statistics.median([before] + calib))

    def traced_round(self) -> None:
        cells, _, _ = setup_round(self.name, self.seed, self.smoke)
        timer = self.timer = LayerTimer()
        for cell in cells:
            timer.attach_allocator(cell.sim.allocator)
        with timer.patched():
            wall, norm_wall, jobs, _ = self._calibrated_round(
                cells, "traced"
            )
        self.traced_wall_s, self.traced_norm_wall_s = wall, norm_wall
        self.traced_jobs = jobs
        if timer.tally["drain.scalar_path"]:
            self.problems.append(
                "traced replay took the scalar event drain; the untraced "
                "replays take the columnar one"
            )

    # -- metrics ---------------------------------------------------------
    def norm_jobs_per_s(self) -> List[float]:
        return [
            jobs / wall
            for jobs, wall in zip(self.round_jobs, self.round_norm_wall_s)
        ]

    def end_to_end(self) -> Dict[str, float]:
        refs = list(self.reference.values()) or [(None, None, 0.0, 0.0)]
        return {
            "norm_jobs_per_s": statistics.median(self.norm_jobs_per_s()),
            "setup_s": statistics.median(self.setup_norm_s),
            "peak_rss_mb": self.peak_rss_mb,
            "util_pct": statistics.fmean(r[2] for r in refs),
            "turnaround_s": statistics.fmean(r[3] for r in refs),
        }

    def per_layer(self) -> Dict[str, float]:
        t = self.timer
        dur = t.durations
        wall = self.traced_wall_s
        alloc_calls = t.calls["alloc"]
        table3_s = sum(sum(dur[k]) for k in ("alloc", "skip", "release"))
        counts = [ref[1] for ref in self.reference.values()]
        metrics = {
            "alloc.calls": alloc_calls,
            "alloc.self_ms": t.self_ms("alloc"),
            "alloc.p50_us": 1e6 * nearest_rank(dur["alloc"], 0.50),
            "alloc.p99_us": 1e6 * nearest_rank(dur["alloc"], 0.99),
            "alloc.placed_frac": (
                t.tally["alloc.placed"] / alloc_calls if alloc_calls else 0.0
            ),
            "alloc.ms_per_job": (
                1e3 * table3_s / self.traced_jobs if self.traced_jobs else 0.0
            ),
            "skip.calls": t.calls["skip"],
            "skip.self_ms": t.self_ms("skip"),
            "screen.calls": t.calls["screen"],
            "screen.self_ms": t.self_ms("screen"),
            "pass.calls": t.calls["pass"],
            "pass.self_ms": t.self_ms("pass"),
            "pass.p50_ms": 1e3 * nearest_rank(dur["pass"], 0.50),
            "pass.p95_ms": 1e3 * nearest_rank(dur["pass"], 0.95),
            "drain.calls": t.calls["drain"],
            "drain.columnar_calls": t.tally["drain.columnar_calls"],
            "drain.events": t.tally["drain.events"],
            "drain.self_ms": t.self_ms("drain"),
            "drain.take_ms": t.self_ms("drain.take"),
            "release.calls": t.calls["release"],
            "release.jobs": t.tally["release.jobs"],
            "release.self_ms": t.self_ms("release"),
            "state.claim_calls": t.calls["state.claim"],
            "state.claim_ms": t.self_ms("state.claim"),
            "state.release_calls": t.calls["state.release"],
            "state.release_ms": t.self_ms("state.release"),
            "fault.calls": t.calls["fault"],
            "fault.ms": t.self_ms("fault"),
            "setup.trace_ms": 1e3 * statistics.median(self.setup_trace_s),
            "setup.alloc_init_ms": 1e3 * statistics.median(self.setup_alloc_s),
            "book.result_ms": t.self_ms("book"),
            "host.calib_ms": 1e3 * statistics.median(self.calib_s),
            "unattributed_pct": (
                100.0 * (wall - t.total_self_s()) / wall if wall else 0.0
            ),
            "trace.overhead_pct": 100.0 * (
                self.traced_norm_wall_s
                / statistics.median(self.round_norm_wall_s) - 1.0
            ),
        }
        for key in COUNT_FIELDS:
            metrics[f"count.{key}"] = sum(c[key] for c in counts)
        return metrics

    def detail(self) -> dict:
        """Spreads, raw times and per-cell digests for the report."""
        return {
            "workload": self.name,
            "seed": self.seed,
            "spreads": {
                "norm_jobs_per_s": spread(self.norm_jobs_per_s()),
                "setup_s": spread(self.setup_norm_s),
                "raw_jobs_per_s": spread([
                    j / w for j, w in zip(self.round_jobs, self.round_wall_s)
                ]),
                "raw_setup_s": spread([
                    a + b for a, b in
                    zip(self.setup_trace_s, self.setup_alloc_s)
                ]),
                "calibration_s": spread(self.calib_s),
            },
            "cells": {
                label: {"decisions_sha256": ref[0], **ref[1]}
                for label, ref in self.reference.items()
            },
            "problems": self.problems,
        }


def measure(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Run:
    """Run every phase for workload ``name`` and return the record."""
    run = Run(name, seed, smoke)
    run.oracle_round()
    start = time.perf_counter()
    while (
        len(run.round_wall_s) < MIN_ROUNDS
        or time.perf_counter() - start < seconds
    ):
        run.timed_round()
    run.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0
    if trace:
        run.traced_round()
    return run
