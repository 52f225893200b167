"""Scheduling-pass speed on Synth-28, plus the radix-32 smoke.

Runs every scheme through the scheduling pass on the Synth-28 trace and
tabulates end-to-end wall ms/job (best of ``REPEATS`` deterministic
runs, so repeats only strip OS noise), the allocator sched time per job
and the prefilter counters.  Then takes the radix-32 preset for a
bounded smoke run: Synth-32 on the 8192-node cluster must drain the
queue.

A third leg measures the bitset shape search for the search-heavy
schemes (jigsaw, laas, lc+s) on the same trace: wall ms/job and the
backtracking steps executed.

Decision invariance is not measured here: the golden digests in
``tests/data/decision_digests.json`` and the fingerprint baseline
``benchmarks/results/fingerprint_scale0.005.json`` hold it.
"""

import time

from repro.experiments.grid import run_grid, setup_for, sim_cell
from repro.experiments.report import render_table
from repro.experiments.runner import run_scheme
from repro.obs.bench import GATE_SCALE, environment, make_bench_result

TRACE = "Synth-28"
SCALE_TRACE = "Synth-32"
SMOKE_SCHEME = "jigsaw"
SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")

#: the search-heavy schemes whose bitset search the third leg measures
SEARCH_SCHEMES = ("jigsaw", "laas", "lc+s")

#: schemes whose restricted shapes give the prefilter something to skip
#: (baseline's only failure mode is the free-node count, which the
#: eligibility mask handles without charging, so its counter stays 0)
PREFILTER_SCHEMES = ("ta", "laas", "jigsaw", "lc+s")

#: wall time per configuration is the best of this many runs (the runs
#: are deterministic, so repeats only strip scheduler/OS noise)
REPEATS = 2


def pass_scale(scale=None, seed=0, workers=None):
    """(scheme -> row) wall-time table for the scheduling pass."""
    # Warm the setup cache so trace/tree construction stays out of the
    # first cell's wall time.
    setup_for(TRACE, scale=scale, seed=seed)
    cells = [
        sim_cell(trace=TRACE, scheme=scheme, scale=scale, seed=seed)
        for scheme in SCHEMES
        for _ in range(REPEATS)
    ]
    outcomes = iter(run_grid(cells, workers=workers))
    rows = {}
    for scheme in SCHEMES:
        outs = [next(outcomes) for _ in range(REPEATS)]
        result = outs[0].value
        jobs = len(result.jobs) or 1
        rows[scheme] = {
            "util%": result.steady_state_utilization,
            "ms/job": min(o.wall_seconds for o in outs) * 1e3 / jobs,
            "sched ms/job": result.mean_sched_time_per_job * 1e3,
            "prefiltered": result.stats.queue_prefiltered,
            "cache hits": result.stats.cache_hits,
            "attempts": result.stats.attempts,
            "rounds": result.scheduling_rounds,
        }
    return rows


def scale_smoke(scale=None, seed=0):
    """One bounded radix-32 run (8192 nodes)."""
    setup = setup_for(SCALE_TRACE, scale=scale, seed=seed)
    outcome = run_grid([
        sim_cell(trace=SCALE_TRACE, scheme=SMOKE_SCHEME, scale=scale,
                 seed=seed),
    ])[0]
    result = outcome.value
    jobs = len(result.jobs) or 1
    return {
        "nodes": setup.tree.num_nodes,
        "jobs": jobs,
        "wall s": f"{outcome.wall_seconds:.2f}",
        "ms/job": f"{outcome.wall_seconds * 1e3 / jobs:.3f}",
        "util%": result.steady_state_utilization,
        "unscheduled": len(result.unscheduled),
        "_result": result,
    }


def search_cost(scale=None, seed=0):
    """(scheme -> row) bitset search on Synth-28.

    End-to-end wall ms/job, best of ``REPEATS`` in-process runs, with
    the backtracking steps the run executed.
    """
    rows = {}
    for scheme in SEARCH_SCHEMES:
        best = float("inf")
        for _ in range(REPEATS):
            setup = setup_for(TRACE, scale=scale, seed=seed)
            t0 = time.perf_counter()
            result = run_scheme(setup, scheme, seed=seed)
            best = min(best, time.perf_counter() - t0)
        jobs = len(result.jobs) or 1
        rows[scheme] = {
            "ms/job": best * 1e3 / jobs,
            "steps": result.stats.backtrack_steps,
            "_result": result,
        }
    return rows


def pass_scale_suite(scale=None, seed=0, workers=None):
    """All three measurements, in one timed unit."""
    return (pass_scale(scale=scale, seed=seed, workers=workers),
            scale_smoke(scale=scale, seed=seed),
            search_cost(scale=scale, seed=seed))


def _visible(rows):
    return {
        key: {k: v for k, v in row.items() if not k.startswith("_")}
        for key, row in rows.items()
    }


def render(rows, smoke, search_rows):
    main = render_table(
        f"Scheduling pass: {TRACE} (wall ms/job)",
        _visible(rows),
        ("util%", "ms/job", "sched ms/job", "prefiltered", "cache hits",
         "attempts", "rounds"),
        row_header="scheme",
    )
    smoke_tbl = render_table(
        f"Radix-32 scale-up smoke: {SCALE_TRACE} ({smoke['nodes']} nodes)",
        _visible({SMOKE_SCHEME: smoke}),
        ("nodes", "jobs", "wall s", "ms/job", "util%", "unscheduled"),
        row_header="scheme",
    )
    search_tbl = render_table(
        f"Bitset search: {TRACE} (wall ms/job)",
        _visible(search_rows),
        ("ms/job", "steps"),
        row_header="scheme",
    )
    return main + "\n\n" + smoke_tbl + "\n\n" + search_tbl


def bench_payload(scale: float = GATE_SCALE, seed: int = 0) -> dict:
    """The ``BENCH_pass_scale.json`` document: the scheduling pass on
    the gate slice (Synth-28 under jigsaw) plus the bitset-search leg
    for the search-heavy schemes, wall time tolerant and the work
    proxies (attempts, backtracking steps) exact.
    """
    setup_for(TRACE, scale=scale, seed=seed)
    (out,) = run_grid([
        sim_cell(trace=TRACE, scheme=SMOKE_SCHEME, scale=scale, seed=seed),
    ])
    result = out.value
    jobs = len(result.jobs) or 1
    quantities = {
        "vector_ms_per_job": {
            "value": out.wall_seconds * 1e3 / jobs, "unit": "ms"},
    }
    counters = {
        "alloc_attempts": result.stats.attempts,
        "queue_prefiltered": result.stats.queue_prefiltered,
        "cache_hits": result.stats.cache_hits,
        "jobs": jobs,
        "unscheduled": len(result.unscheduled),
    }
    for scheme, row in search_cost(scale=scale, seed=seed).items():
        searched = row["_result"].stats
        tag = scheme.replace("+", "")
        quantities[f"search_indexed_ms_per_job.{tag}"] = {
            "value": row["ms/job"], "unit": "ms"}
        counters[f"search_backtrack_steps.{tag}"] = searched.backtrack_steps
    return make_bench_result(
        "pass_scale", quantities, counters, env=environment(scale),
    )


def bench_pass_scale(benchmark, save_result, save_bench, scale):
    rows, smoke, search_rows = benchmark.pedantic(
        lambda: pass_scale_suite(scale=scale), rounds=1, iterations=1
    )
    save_result("pass_scale", render(rows, smoke, search_rows))

    for scheme, row in rows.items():
        if scheme in PREFILTER_SCHEMES:
            # Deterministic speed proxy: the prefilter skipped real work.
            assert row["prefiltered"] > 0, scheme
    # The feasibility cache fired somewhere on this contended trace.
    assert sum(row["cache hits"] for row in rows.values()) > 0, rows

    # Radix-32 smoke: the 8192-node preset drains its queue.
    assert not smoke["_result"].unscheduled, smoke["_result"].unscheduled

    save_bench(bench_payload())
