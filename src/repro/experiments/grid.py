"""Parallel experiment-grid engine.

Every figure/table module enumerates a (trace x scheme x scenario x
seed) grid and runs each cell through :func:`repro.experiments.runner.
run_scheme`.  The cells are embarrassingly parallel — no cell reads
another cell's output — so this module provides the one fan-out engine
they all share:

* :func:`run_grid` executes a list of :class:`GridCell`\\ s either
  in-process (``workers=1``, the default — no pool is ever spawned) or
  across a ``ProcessPoolExecutor``, and **always returns outcomes in
  cell order**, so tables built from the results are byte-identical
  regardless of worker count or completion order.
* Each worker keeps a per-process **setup cache**: the expensive
  trace/tree construction (:func:`paper_setup`) runs once per
  (trace, scale, seed) per worker instead of once per cell.  Reuse is
  safe because :func:`run_scheme` re-applies the speed-up scenario and
  the simulator resets every job before replaying.
* Worker count resolves from the explicit argument, then the
  ``REPRO_WORKERS`` environment variable, then 1 — default behavior is
  the sequential path, unchanged from before this engine existed.

Tasks are addressed by dotted name (``"package.module:function"``) so a
cell pickles as plain strings/dicts and a freshly spawned worker can
resolve it by import, whatever the multiprocessing start method.  The
built-in ``sim`` task covers the standard simulation cell; modules with
bespoke cells (fragmentation sampling, slowdown packing) register their
own module-level functions via :func:`cell`.

Example::

    cells = [sim_cell(trace="Synth-16", scheme=s, scale=0.01)
             for s in ("baseline", "jigsaw")]
    outcomes = run_grid(cells, workers=4)
    results = [o.value for o in outcomes]   # SimResults, in cell order
"""

from __future__ import annotations

import importlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import ExperimentSetup, paper_setup, run_scheme
from repro.obs.sampler import merge_streams
from repro.obs.tracer import get_tracer

#: environment variable consulted when ``workers`` is not given
WORKERS_ENV = "REPRO_WORKERS"

#: per-worker setup-cache capacity (the full paper grid needs 9)
_SETUP_CACHE_MAX = 32


# ----------------------------------------------------------------------
# Cells and outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridCell:
    """One unit of grid work: a task name plus its keyword arguments.

    ``task`` is a dotted ``"module:function"`` reference to a
    module-level callable; ``params`` must be picklable.  Build cells
    with :func:`cell` or :func:`sim_cell` rather than directly.
    """

    task: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellOutcome:
    """What one executed cell produced.

    ``value`` is whatever the task function returned (a ``SimResult``
    for ``sim`` cells); ``wall_seconds`` is the cell's wall time in its
    worker; the cache counters say how many :func:`setup_for` lookups
    the cell answered from the worker's setup cache vs built fresh.
    """

    value: Any
    wall_seconds: float
    setup_cache_hits: int = 0
    setup_cache_misses: int = 0


def cell(task: Union[str, Callable], **params) -> GridCell:
    """Build a :class:`GridCell` from a function (or dotted name)."""
    if callable(task):
        module = getattr(task, "__module__", None)
        name = getattr(task, "__qualname__", getattr(task, "__name__", ""))
        if not module or "." in name or "<" in name:
            raise ValueError(
                f"grid tasks must be module-level functions, got {task!r}"
            )
        task = f"{module}:{name}"
    return GridCell(task=task, params=params)


def sim_cell(
    trace: str,
    scheme: str,
    scenario: Optional[str] = None,
    seed: int = 0,
    scale: Optional[float] = None,
    **run_kwargs,
) -> GridCell:
    """A standard simulation cell (the ``sim`` task).

    Extra keyword arguments are forwarded to :func:`run_scheme`
    (``backfill_window``, ``queue_order``, ``step_interval``,
    allocator options, ...), except ``topology``
    (a switch-radix override), which routes to :func:`setup_for`; they
    must stay plain picklable values so the cell crosses the process
    pool unchanged.
    """
    return cell(
        _sim_task,
        trace=trace,
        scheme=scheme,
        scenario=scenario,
        seed=seed,
        scale=scale,
        **run_kwargs,
    )


# ----------------------------------------------------------------------
# Worker-side state: the per-process setup cache
# ----------------------------------------------------------------------
_SETUP_CACHE: (
    "OrderedDict[Tuple[str, Optional[float], int, Optional[int]],"
    " ExperimentSetup]"
)
_SETUP_CACHE = OrderedDict()
_CACHE_COUNTERS = {"hits": 0, "misses": 0}


def setup_for(
    trace: str,
    scale: Optional[float] = None,
    seed: int = 0,
    topology: Optional[int] = None,
) -> ExperimentSetup:
    """This process's cached :func:`paper_setup` (build once, reuse).

    Safe to share across cells: every consumer re-applies its scenario
    and the simulator resets job state, so a cached setup replays
    exactly like a fresh one.  ``topology`` (a switch radix) keys the
    cache too, so the same trace on two cluster sizes never collides.
    """
    key = (trace, scale, seed, topology)
    setup = _SETUP_CACHE.get(key)
    if setup is not None:
        _CACHE_COUNTERS["hits"] += 1
        _SETUP_CACHE.move_to_end(key)
        return setup
    _CACHE_COUNTERS["misses"] += 1
    setup = paper_setup(trace, scale=scale, seed=seed, topology=topology)
    _SETUP_CACHE[key] = setup
    while len(_SETUP_CACHE) > _SETUP_CACHE_MAX:
        _SETUP_CACHE.popitem(last=False)
    return setup


def setup_cache_stats() -> Dict[str, int]:
    """This process's cumulative setup-cache counters (for tests)."""
    return dict(_CACHE_COUNTERS, size=len(_SETUP_CACHE))


def clear_setup_cache() -> None:
    """Drop cached setups and reset the counters (for tests)."""
    _SETUP_CACHE.clear()
    _CACHE_COUNTERS["hits"] = 0
    _CACHE_COUNTERS["misses"] = 0


def _sim_task(
    trace: str,
    scheme: str,
    scenario: Optional[str] = None,
    seed: int = 0,
    scale: Optional[float] = None,
    topology: Optional[int] = None,
    **run_kwargs,
):
    """The built-in task: one simulation of one grid cell."""
    setup = setup_for(trace, scale=scale, seed=seed, topology=topology)
    return run_scheme(setup, scheme, scenario=scenario, seed=seed, **run_kwargs)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
_TASK_CACHE: Dict[str, Callable] = {}


def _resolve_task(dotted: str) -> Callable:
    fn = _TASK_CACHE.get(dotted)
    if fn is None:
        module_name, _, attr = dotted.partition(":")
        if not module_name or not attr:
            raise ValueError(f"malformed grid task name {dotted!r}")
        fn = getattr(importlib.import_module(module_name), attr)
        _TASK_CACHE[dotted] = fn
    return fn


def _execute_cell(item: Tuple[int, GridCell]) -> Tuple[int, CellOutcome]:
    """Run one cell (worker entry point; module-level so it pickles)."""
    index, c = item
    fn = _resolve_task(c.task)
    tracer = get_tracer()
    span = tracer.begin("grid.cell") if tracer.enabled else None
    hits0, misses0 = _CACHE_COUNTERS["hits"], _CACHE_COUNTERS["misses"]
    t0 = time.perf_counter()
    value = fn(**c.params)
    if span is not None:
        span.set(task=c.task, index=index, **{
            k: v for k, v in c.params.items()
            if isinstance(v, (str, int, float, bool))
        })
        tracer.end(span)
    return index, CellOutcome(
        value=value,
        wall_seconds=time.perf_counter() - t0,
        setup_cache_hits=_CACHE_COUNTERS["hits"] - hits0,
        setup_cache_misses=_CACHE_COUNTERS["misses"] - misses0,
    )


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else ``REPRO_WORKERS``, else 1 (sequential)."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        workers = int(raw) if raw else 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def run_grid(
    cells: Sequence[GridCell],
    workers: Optional[int] = None,
    on_result: Optional[Callable[[int, CellOutcome], None]] = None,
) -> List[CellOutcome]:
    """Execute every cell; return their outcomes **in cell order**.

    ``workers=1`` (the resolved default) runs in-process — no pool, no
    pickling, no subprocess spawn.  With more workers the cells fan out
    across a ``ProcessPoolExecutor``; completion order is
    nondeterministic but the returned list is not.

    ``on_result(index, outcome)`` fires once per cell *in completion
    order* (use it for progress lines and incremental persistence —
    anything whose final state must not depend on scheduling belongs
    after :func:`run_grid` returns).
    """
    workers = resolve_workers(workers)
    items = list(enumerate(cells))
    outcomes: List[Optional[CellOutcome]] = [None] * len(items)

    if workers == 1 or len(items) <= 1:
        for item in items:
            index, outcome = _execute_cell(item)
            outcomes[index] = outcome
            if on_result is not None:
                on_result(index, outcome)
        return outcomes  # type: ignore[return-value]

    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        futures = [pool.submit(_execute_cell, item) for item in items]
        for future in as_completed(futures):
            index, outcome = future.result()
            outcomes[index] = outcome
            if on_result is not None:
                on_result(index, outcome)
    return outcomes  # type: ignore[return-value]


def run_sim_grid(
    cells: Sequence[GridCell], workers: Optional[int] = None
) -> List[Any]:
    """Shorthand: :func:`run_grid` returning just the cell values."""
    return [outcome.value for outcome in run_grid(cells, workers=workers)]


#: cell params used to label merged sample rows (in label order)
_STREAM_LABEL_KEYS = ("trace", "scheme", "scenario", "seed")


def merge_sample_streams(
    cells: Sequence[GridCell], outcomes: Sequence[CellOutcome]
) -> List[Dict[str, Any]]:
    """Merge the cells' time-series samples into one labelled stream.

    Each ``SimResult.samples`` row is tagged with its cell's identifying
    parameters (trace/scheme/scenario/seed, where present).  Because
    :func:`run_grid` returns outcomes in cell order for any worker
    count, the merged stream is byte-identical serially or parallel —
    the property the obs fingerprint check rides on.
    """
    streams = []
    for c, outcome in zip(cells, outcomes):
        rows = getattr(outcome.value, "samples", None) or []
        labels = {
            k: c.params[k]
            for k in _STREAM_LABEL_KEYS
            if c.params.get(k) is not None
        }
        streams.append((labels, rows))
    return merge_streams(streams)
