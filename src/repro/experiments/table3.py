"""Table 3: average scheduling time per job, in seconds.

Four representative experiments from the smallest cluster to the
largest: Synth-16 (1024 nodes), Sep-Cab and Thunder (1458), Synth-28
(5488).  Paper expectations: TA, LaaS and Jigsaw are within an order of
magnitude of one another and in the milliseconds; LC+S is one to two
orders of magnitude slower and grows sharply with cluster size.
Absolute numbers are machine- and language-dependent (the paper's code
is C++; this is Python) — Table 3's *shape* is the reproduction target.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.grid import run_sim_grid, sim_cell
from repro.experiments.report import render_table

TABLE3_TRACES = ("Synth-16", "Sep-Cab", "Thunder", "Synth-28")
TABLE3_SCHEMES = ("ta", "laas", "jigsaw", "lc+s")


def table3_full(
    trace_names: Sequence[str] = TABLE3_TRACES,
    schemes: Sequence[str] = TABLE3_SCHEMES,
    scale: Optional[float] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> Tuple[
    Dict[str, Dict[str, float]],
    Dict[str, Dict[str, str]],
    Dict[str, Dict[str, int]],
]:
    """Table 3 plus the allocator cache and search-effort counters, all
    from the same simulation runs.

    Returns ``(rows, cache_rows, search_rows)``: ``rows`` is scheme ->
    trace -> mean allocator seconds per job; ``cache_rows`` is scheme ->
    trace -> ``"hit%  (hits/lookups)"``; ``search_rows`` is scheme ->
    trace -> backtracking steps executed.
    """
    cells = [
        sim_cell(trace=name, scheme=scheme, scale=scale, seed=seed)
        for name in trace_names
        for scheme in schemes
    ]
    results = iter(run_sim_grid(cells, workers=workers))
    rows: Dict[str, Dict[str, float]] = {scheme: {} for scheme in schemes}
    cache_rows: Dict[str, Dict[str, str]] = {scheme: {} for scheme in schemes}
    search_rows: Dict[str, Dict[str, int]] = {scheme: {} for scheme in schemes}
    for name in trace_names:
        for scheme in schemes:
            result = next(results)
            rows[scheme][name] = result.mean_sched_time_per_job
            stats = result.stats
            lookups = stats.cache_hits + stats.cache_misses
            cache_rows[scheme][name] = (
                f"{100 * stats.cache_hit_rate:.1f}% "
                f"({stats.cache_hits}/{lookups})"
            )
            search_rows[scheme][name] = stats.backtrack_steps
    return rows, cache_rows, search_rows


def table3_with_cache(
    trace_names: Sequence[str] = TABLE3_TRACES,
    schemes: Sequence[str] = TABLE3_SCHEMES,
    scale: Optional[float] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Dict[str, str]]]:
    """Table 3 plus the allocator feasibility-cache counters (see
    :func:`table3_full` for the search-effort counters as well)."""
    rows, cache_rows, _ = table3_full(
        trace_names, schemes, scale, seed, workers
    )
    return rows, cache_rows


def table3_scheduling_time(
    trace_names: Sequence[str] = TABLE3_TRACES,
    schemes: Sequence[str] = TABLE3_SCHEMES,
    scale: Optional[float] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Mean allocator wall-clock seconds per job: scheme -> trace -> s."""
    return table3_with_cache(trace_names, schemes, scale, seed, workers)[0]


def render(rows: Dict[str, Dict[str, float]]) -> str:
    """Table 3 as an aligned text table."""
    traces = list(next(iter(rows.values())))
    return render_table(
        "Table 3: Average scheduling time per job (seconds)",
        rows,
        traces,
        row_header="Approach",
        float_fmt="{:.5f}",
    )


def render_cache(cache_rows: Dict[str, Dict[str, str]]) -> str:
    """The feasibility-cache companion table (hit rate per run)."""
    traces = list(next(iter(cache_rows.values())))
    return render_table(
        "Allocator feasibility cache: hit rate (hits/lookups)",
        cache_rows,
        traces,
        row_header="Approach",
    )


def render_search(search_rows: Dict[str, Dict[str, int]]) -> str:
    """The search-effort companion table (backtrack steps)."""
    traces = list(next(iter(search_rows.values())))
    return render_table(
        "Allocator search effort: backtrack steps",
        search_rows,
        traces,
        row_header="Approach",
    )
