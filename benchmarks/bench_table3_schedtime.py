"""Regenerate Table 3: average scheduling time per job.

Shape targets: TA, LaaS and Jigsaw land within roughly an order of
magnitude of each other; LC+S is at least several times slower than
Jigsaw everywhere and degrades with cluster size (Synth-28's 5488-node
cluster is its worst case, as in the paper).

Also saves the allocator feasibility-cache companion table (per run,
the share of allocate()/can_allocate() lookups answered from the
cross-pass infeasibility cache instead of a full search) and the
search-effort companion table (backtracking steps).
"""

from repro.experiments import table3
from repro.obs.bench import GATE_SCALE, environment, make_bench_result

#: the machine-readable gate slice: one trace, the three schemes whose
#: relative cost Table 3 is about (see ``benchmarks/_perf_gate.py``)
GATE_TRACE = "Synth-16"
GATE_SCHEMES = ("ta", "jigsaw", "lc+s")


def bench_payload(scale: float = GATE_SCALE, seed: int = 0) -> dict:
    """The ``BENCH_table3_schedtime.json`` document: per-scheme sched
    time plus the deterministic work proxies the CI gate holds exact."""
    from repro.experiments.grid import run_grid, sim_cell

    cells = [
        sim_cell(trace=GATE_TRACE, scheme=scheme, scale=scale, seed=seed)
        for scheme in GATE_SCHEMES
    ]
    outcomes = run_grid(cells)
    quantities, counters = {}, {}
    for scheme, outcome in zip(GATE_SCHEMES, outcomes):
        r = outcome.value
        quantities[f"sched_ms_per_job.{scheme}"] = {
            "value": r.mean_sched_time_per_job * 1e3, "unit": "ms",
        }
        quantities[f"wall_s.{scheme}"] = {
            "value": outcome.wall_seconds, "unit": "s",
        }
        counters[f"alloc_attempts.{scheme}"] = r.stats.attempts
        counters[f"backtrack_steps.{scheme}"] = r.stats.backtrack_steps
        counters[f"jobs.{scheme}"] = len(r.jobs)
        counters[f"unscheduled.{scheme}"] = len(r.unscheduled)
    return make_bench_result(
        "table3_schedtime", quantities, counters,
        env=environment(scale),
    )


def bench_table3(benchmark, save_result, save_bench, scale):
    rows, cache_rows, search_rows = benchmark.pedantic(
        lambda: table3.table3_full(scale=scale),
        rounds=1,
        iterations=1,
    )
    save_result("table3_schedtime", table3.render(rows))
    save_result("table3_cache", table3.render_cache(cache_rows))
    save_result("table3_search", table3.render_search(search_rows))

    for trace in table3.TABLE3_TRACES:
        assert rows["lc+s"][trace] > 3 * rows["jigsaw"][trace], rows
    assert rows["lc+s"]["Synth-28"] > rows["lc+s"]["Synth-16"], rows

    # Every run must have consulted the cache; the FIFO head retrying
    # across pure-arrival batches guarantees hits on loaded traces.
    for scheme, per_trace in cache_rows.items():
        for trace, cell in per_trace.items():
            assert "/" in cell and "%" in cell, (scheme, trace, cell)

    # Machine-readable gate document, always at the pinned gate scale
    # so the committed baseline never churns its job counts.
    save_bench(bench_payload())
