"""Hierarchical stage profiler for the allocator hot path.

Where :mod:`repro.obs.tracer` answers *which call* took the time (one
span per ``allocate``), the stage profiler answers *which part of the
search*: :meth:`StageProfiler.attach` wraps the allocator methods that
make up the stages of ``_search`` — pod prefilter, per-pod shape fit,
pod enumeration, the two-level/three-level phases, the final claim — and
the profiler accumulates wall time, call counts and a log-bucketed
duration histogram per ``(scheme, stage stack)``.

The contracts mirror the tracer's:

* **Outside the code path.**  The allocators carry no profiler hooks;
  :data:`STAGES` names, per scheme, the methods ``attach`` wraps as
  instance attributes for the length of a ``with`` block, and the
  instance is restored exactly on exit.  An unprofiled run executes
  the same code as before the profiler existed.
* **Strictly passive.**  Profiling never influences a decision;
  ``benchmarks/_fingerprint.py --prof`` replays every scheme with the
  profiler (and provenance) off and on and asserts byte-identical
  fingerprints.

Frames nest: ``push`` opens a stage, ``pop`` closes it and charges the
duration to the full stack path (``"search;two_level;pod_fit"``), with
*self time* (duration minus enclosed child stages) tracked separately
so a flamegraph built from :meth:`StageProfiler.to_collapsed` sums
correctly.  Exports: the plain-dict :meth:`StageProfiler.snapshot` (the
CLI writes it as JSON), collapsed-stack lines (feed them to any
FlameGraph renderer) and the attribution table behind the ``repro prof``
CLI subcommand.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import wrap_methods

#: duration histogram buckets: bucket ``i`` counts durations in
#: ``[2**(i-1), 2**i)`` microseconds (bucket 0 is "< 1 µs"); the last
#: bucket is open-ended (~134 s and beyond)
HIST_BUCKETS = 28

_BASE_STAGES = {
    "_search": "search",
    "_claim": "claim",
    "_release": "release",
    "_release_many": "release",
}
_JIGSAW_STAGES = {
    **_BASE_STAGES,
    "_search_two_level": "two_level",
    "_search_three_level": "three_level",
    "_host_pods": "prefilter",
    "_two_level_pods": "prefilter",
    "_score_shape_pods": "pod_fit",
    "_find_two_level_in_pod": "pod_fit",
}
_LC_STAGES = {
    **_JIGSAW_STAGES,
    "_find_all_in_pod": "pod_enum",
}

#: scheme name -> {allocator method: stage}: the methods
#: :meth:`StageProfiler.attach` wraps
STAGES: Dict[str, Dict[str, str]] = {
    "baseline": _BASE_STAGES,
    "ta": {
        **_BASE_STAGES,
        "_search_t1": "t1",
        "_search_t2": "t2",
        "_search_t3": "t3",
    },
    "jigsaw": _JIGSAW_STAGES,
    "laas": _JIGSAW_STAGES,
    "lc+s": _LC_STAGES,
    "lc": _LC_STAGES,
}


class StageProfiler:
    """Accumulates per-scheme, per-stage-stack timing.

    Records only while attached to an allocator (:meth:`attach`) or
    driven by hand through :meth:`push`/:meth:`pop`.  The aggregate is
    a dict keyed by ``(scheme, "a;b;c")`` holding ``[count,
    total_seconds, self_seconds, histogram]`` — everything a plain
    int/float/list, so :meth:`snapshot` is picklable and rides on
    ``SimResult.prof`` through the grid engine's process pool.
    """

    def __init__(self):
        #: scheme label stamped on frames; each attached wrapper sets it
        #: to its allocator's name before opening a frame
        self.scheme = ""
        self._stack: List[str] = []
        #: per-open-frame accumulator of enclosed child durations
        self._child: List[float] = []
        self._agg: Dict[Tuple[str, str], list] = {}

    # -- recording ------------------------------------------------------
    def push(self, stage: str) -> float:
        """Open a stage frame; returns the t0 to hand back to :meth:`pop`."""
        self._stack.append(stage)
        self._child.append(0.0)
        return perf_counter()

    def pop(self, t0: float) -> None:
        """Close the innermost frame and charge it to the stack path."""
        dur = perf_counter() - t0
        stack = self._stack
        path = ";".join(stack)
        stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        key = (self.scheme, path)
        rec = self._agg.get(key)
        if rec is None:
            rec = self._agg[key] = [0, 0.0, 0.0, [0] * HIST_BUCKETS]
        rec[0] += 1
        rec[1] += dur
        self_s = dur - child
        rec[2] += self_s if self_s > 0.0 else 0.0
        b = int(dur * 1e6).bit_length()
        rec[3][b if b < HIST_BUCKETS else HIST_BUCKETS - 1] += 1

    @contextlib.contextmanager
    def attach(self, allocator) -> Iterator["StageProfiler"]:
        """Profile ``allocator``'s stages while the block runs.

        Wraps the methods :data:`STAGES` lists for the allocator's scheme
        (the base stages for an unlisted one; :class:`ValueError` names
        any that is missing) and restores the instance dict exactly on
        exit, so wrappers installed before keep running underneath.  A
        call into the stage that is already innermost belongs to the
        open frame, and frames close when an exception (LC+S's
        ``BudgetExhausted``) unwinds through them.
        """
        scheme = allocator.name
        table = STAGES.get(scheme, _BASE_STAGES)
        missing = sorted(
            m for m in table if not callable(getattr(allocator, m, None))
        )
        if missing:
            raise ValueError(
                f"{type(allocator).__name__} ({scheme!r}) lacks the "
                f"profiled stage method(s) {', '.join(missing)}"
            )
        wrappers = {
            method: self._framed(scheme, stage, getattr(allocator, method))
            for method, stage in table.items()
        }
        with wrap_methods(allocator, wrappers):
            yield self

    def _framed(self, scheme: str, stage: str, fn: Callable) -> Callable:
        """``fn`` run inside a ``stage`` frame labelled ``scheme``."""
        stack = self._stack

        def framed(*args, **kwargs):
            if stack and stack[-1] == stage:
                return fn(*args, **kwargs)
            self.scheme = scheme
            t0 = self.push(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(t0)

        return framed

    def clear(self) -> None:
        self._agg.clear()
        self._stack.clear()
        self._child.clear()

    # -- views ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict aggregate (picklable; ``SimResult.prof``)."""
        return _snapshot_of(self._agg)

    def to_collapsed(self) -> str:
        """Collapsed-stack lines (``scheme;stage;... self_us``) — the
        flamegraph input format; self time so the frames sum exactly."""
        return snapshot_collapsed(self.snapshot())


# ----------------------------------------------------------------------
# Snapshot analysis (the ``repro prof`` attribution table)
# ----------------------------------------------------------------------
def _snapshot_of(agg: Dict[Tuple[str, str], list]) -> Dict[str, Any]:
    """The snapshot dict of an aggregate keyed by ``(scheme, stack)``:
    one stage entry per key, by descending total time within each
    scheme."""
    stages = [
        {
            "scheme": scheme,
            "stack": path,
            "count": rec[0],
            "total_s": rec[1],
            "self_s": rec[2],
            "hist_log2us": list(rec[3]),
        }
        for (scheme, path), rec in sorted(
            agg.items(), key=lambda kv: (kv[0][0], -kv[1][1])
        )
    ]
    return {"stages": stages}


def top_level_seconds(
    snapshot: Dict[str, Any], scheme: Optional[str] = None
) -> float:
    """Wall seconds in top-level stages (no ``;`` in the stack) — the
    profiler's account of where ``alloc.search`` span time went."""
    return sum(
        s["total_s"]
        for s in snapshot.get("stages", ())
        if ";" not in s["stack"]
        and (scheme is None or s["scheme"] == scheme)
    )


def merge_snapshots(snapshots) -> Dict[str, Any]:
    """Merge per-run snapshots (e.g. one per grid cell) into one."""
    agg: Dict[Tuple[str, str], list] = {}
    for snap in snapshots:
        for s in snap.get("stages", ()):
            key = (s["scheme"], s["stack"])
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0.0, 0.0, [0] * HIST_BUCKETS]
            rec[0] += s["count"]
            rec[1] += s["total_s"]
            rec[2] += s["self_s"]
            for i, c in enumerate(s["hist_log2us"]):
                rec[3][i] += c
    return _snapshot_of(agg)


def snapshot_collapsed(snapshot: Dict[str, Any]) -> str:
    """Collapsed-stack lines (``scheme;stage;... self_us``) from a
    snapshot dict, sorted by ``(scheme, stack)``:
    :meth:`StageProfiler.to_collapsed` and the CLI's post-run export."""
    lines = []
    for s in sorted(
        snapshot.get("stages", ()), key=lambda s: (s["scheme"], s["stack"])
    ):
        us = int(round(s["self_s"] * 1e6))
        lines.append(f"{s['scheme']};{s['stack']} {us}")
    return "\n".join(lines) + ("\n" if lines else "")


def _hist_p95_us(hist: List[int]) -> float:
    """Upper bound of the bucket holding the 95th-percentile duration."""
    total = sum(hist)
    if not total:
        return 0.0
    rank = max(1, int(0.95 * total + 0.9999))
    seen = 0
    for i, c in enumerate(hist):
        seen += c
        if seen >= rank:
            return float(2 ** i)
    return float(2 ** (len(hist) - 1))


def render_attribution(snapshot: Dict[str, Any]) -> str:
    """The ``repro prof`` attribution table: one row per (scheme, stage
    stack), ordered by total time within each scheme."""
    header = (
        f"{'scheme':<9} {'stage':<34} {'count':>9} {'total ms':>11} "
        f"{'self ms':>11} {'mean us':>10} {'p95<=us':>9}"
    )
    lines = [header]
    for s in snapshot.get("stages", ()):
        count = s["count"]
        mean_us = s["total_s"] / count * 1e6 if count else 0.0
        lines.append(
            f"{s['scheme']:<9} {s['stack']:<34} {count:>9} "
            f"{s['total_s'] * 1e3:>11.3f} {s['self_s'] * 1e3:>11.3f} "
            f"{mean_us:>10.1f} {_hist_p95_us(s['hist_log2us']):>9.0f}"
        )
    if len(lines) == 1:
        lines.append("(no stages recorded)")
    return "\n".join(lines)
