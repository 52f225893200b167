"""Time-series sampler: per-interval cluster state during a simulation.

The simulator owns an event clock; this sampler turns it into a
fixed-interval time series.  At every simulated-time boundary
``k * interval`` it emits one row describing the cluster *as it stood
entering that boundary* — utilization, queue depth, running jobs, and
the structural fragmentation picture (free nodes, fully-free leaves,
partial-leaf shards, LaaS padding) that
:class:`repro.core.diagnostics.FragmentationSnapshot` defines.

Rows are derived purely from simulated state, never from wall time, so
a sampled run is deterministic: the same trace yields byte-identical
rows serially or in any process pool (the grid engine merges per-worker
streams in cell order — :func:`merge_streams`).

Sampling never probes placements (no ``can_allocate`` calls), so it
cannot touch the allocator's feasibility cache or any scheduling
decision.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

#: the row fields, in emission order (the JSONL schema)
ROW_FIELDS = (
    "t",
    "util_pct",
    "queue_depth",
    "running_jobs",
    "free_nodes",
    "fully_free_leaves",
    "shard_free_nodes",
    "padding_nodes",
    "degraded_nodes",
    "step_lag",
)


class TimeSeriesSampler:
    """Collects one row per elapsed ``interval`` of simulated time.

    Drive it with :meth:`advance_to` (called by the simulator before it
    processes each event batch) and :meth:`observe` (the row source);
    the split keeps the sampler reusable outside the simulator — tests
    drive it directly.
    """

    def __init__(self, interval: float):
        if not 0 < interval < math.inf:
            raise ValueError(
                "sample interval must be finite and positive, "
                f"got {interval!r}"
            )
        self.interval = float(interval)
        self.rows: List[Dict[str, Any]] = []
        self._next_boundary: Optional[float] = None

    def reset(self, start_time: float) -> None:
        """Arm the sampler: the first boundary is the first multiple of
        ``interval`` at or after ``start_time``."""
        self.rows = []
        self._next_boundary = (
            math.ceil(start_time / self.interval) * self.interval
        )

    def advance_to(self, t: float, collect) -> None:
        """Emit rows for every boundary strictly before ``t``.

        ``collect(boundary_time)`` must return the row dict; it is
        called with the state as of entering the boundary (the simulator
        calls this *before* applying the events at ``t``).
        """
        if self._next_boundary is None:
            self.reset(t)
        while self._next_boundary < t:
            self.rows.append(collect(self._next_boundary))
            self._next_boundary += self.interval

    def finish(self, t: float, collect) -> None:
        """Emit the final row at the last boundary <= ``t`` (so a trace
        shorter than one interval still produces one row)."""
        if self._next_boundary is None:
            self.reset(t)
        self.advance_to(t, collect)
        self.rows.append(collect(t))


def simulator_row(boundary: float, allocator, pending: int,
                  running_jobs: int, busy_requested: int,
                  degraded_nodes: int = 0,
                  step_lag: float = 0.0) -> Dict[str, Any]:
    """One sampler row from live simulator state.

    Structural fragmentation comes straight from the occupancy indexes
    (an O(pods) sum, no placement probes) — the same quantities
    :func:`repro.core.diagnostics.fragmentation_snapshot` reports in its
    probe-free form.
    """
    tree = allocator.tree
    state = allocator.state
    free = state.free_nodes_total
    fully_free = sum(state.full_free_leaves)
    allocated = tree.num_nodes - free
    return {
        "t": boundary,
        "util_pct": round(100.0 * busy_requested / tree.num_nodes, 4),
        "queue_depth": pending,
        "running_jobs": running_jobs,
        "free_nodes": int(free),
        "fully_free_leaves": fully_free,
        "shard_free_nodes": int(free - fully_free * tree.m1),
        "padding_nodes": int(allocated - busy_requested - degraded_nodes),
        "degraded_nodes": int(degraded_nodes),
        # Simulated seconds since the last scheduling pass: ~0 under
        # event-driven replay, up to step_interval in batch-step mode
        # (the start-lag a queued job can pay waiting for the round).
        "step_lag": round(float(step_lag), 6),
    }


# ----------------------------------------------------------------------
# Streams: JSONL export and deterministic merging
# ----------------------------------------------------------------------
def write_jsonl(
    rows: Iterable[Dict[str, Any]], target: Union[str, Path, TextIO]
) -> None:
    """Write rows as JSONL (keys in :data:`ROW_FIELDS` order, extras
    sorted after — byte-stable for a given row sequence)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_jsonl(rows, fh)
            return
    order = {name: i for i, name in enumerate(ROW_FIELDS)}
    for row in rows:
        keys = sorted(row, key=lambda k: (order.get(k, len(order)), k))
        target.write(json.dumps({k: row[k] for k in keys}))
        target.write("\n")


def merge_streams(
    streams: Sequence[Tuple[Dict[str, Any], Sequence[Dict[str, Any]]]],
) -> List[Dict[str, Any]]:
    """Concatenate per-cell sample streams deterministically.

    ``streams`` is ``[(labels, rows), ...]`` **in cell order** (the
    grid engine returns outcomes in cell order whatever the worker
    count, so the merged stream is byte-identical serially or in any
    pool).  Each emitted row carries its cell's labels.
    """
    merged: List[Dict[str, Any]] = []
    for labels, rows in streams:
        for row in rows:
            out = dict(row)
            out.update(labels)
            merged.append(out)
    return merged
