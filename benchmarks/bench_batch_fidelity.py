"""Batch-step fidelity and speed on Synth-28 (the 5488-node cluster).

Runs every scheme twice on the same Synth-28 trace — event-driven
replay (the ground truth) and batch-step rounds at the Firmament-style
default of dt=300 s — and tabulates what the coarser grid costs
(utilization / turnaround / makespan deltas, added wait) and what it
buys (scheduling rounds, allocator attempts, ms of allocator time per
job).

Targets: batch mode must cut the allocator time per job by at least 3x
on Synth-28, with steady-state utilization within a few points of the
event-driven run.  The wall-clock ratio is asserted loosely (CI noise);
the deterministic allocator-attempt ratio carries the strict bound.
"""

from repro.experiments.grid import run_sim_grid, sim_cell
from repro.experiments.report import render_table
from repro.sched.metrics import fidelity_report

TRACE = "Synth-28"
SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
STEP_INTERVAL = 300.0

#: fidelity bounds at dt=300 on Synth-28 (hours-long jobs, so a 300 s
#: grid shifts starts by minutes against multi-hour turnarounds)
UTIL_TOLERANCE_PP = 10.0
TURNAROUND_TOLERANCE_PCT = 30.0
MAKESPAN_TOLERANCE_PCT = 12.0

#: batch mode must cut allocator work per job at least this much —
#: for the search-based schemes; ``baseline``'s first-fit attempts are
#: so cheap that fewer of them do not move its ms/job, so it is shown
#: in the table but exempt from the speed bound.
MIN_SPEEDUP = 3.0
SPEEDUP_SCHEMES = ("ta", "laas", "jigsaw", "lc+s")


def batch_fidelity(scale=None, seed=0, workers=None):
    """(scheme -> row) fidelity/speed table for event vs batch runs."""
    cells = []
    for scheme in SCHEMES:
        cells.append(sim_cell(trace=TRACE, scheme=scheme, scale=scale,
                              seed=seed))
        cells.append(sim_cell(trace=TRACE, scheme=scheme, scale=scale,
                              seed=seed, step_interval=STEP_INTERVAL))
    results = iter(run_sim_grid(cells, workers=workers))
    rows = {}
    for scheme in SCHEMES:
        event = next(results)
        batch = next(results)
        report = fidelity_report(event, batch)
        ev_ms = event.mean_sched_time_per_job * 1e3
        ba_ms = batch.mean_sched_time_per_job * 1e3
        rows[scheme] = {
            "util ev%": event.steady_state_utilization,
            "util dpp": report["util_delta_pp"],
            "tat d%": report["turnaround_delta_pct"],
            "wait ds": report["wait_delta_s"],
            "mksp d%": report["makespan_delta_pct"],
            "rounds": f"{event.scheduling_rounds}->{batch.scheduling_rounds}",
            "attempts": f"{event.stats.attempts}->{batch.stats.attempts}",
            "ms/job": f"{ev_ms:.3f}->{ba_ms:.3f}",
            "speedup": ev_ms / ba_ms if ba_ms else float("inf"),
            "_report": report,
            "_event": event,
            "_batch": batch,
        }
    return rows


def render(rows):
    columns = ("util ev%", "util dpp", "tat d%", "wait ds", "mksp d%",
               "rounds", "attempts", "ms/job", "speedup")
    visible = {
        scheme: {k: v for k, v in row.items() if not k.startswith("_")}
        for scheme, row in rows.items()
    }
    return render_table(
        f"Batch-step fidelity: {TRACE}, event-driven vs dt="
        f"{STEP_INTERVAL:.0f}s",
        visible, columns, row_header="scheme",
    )


def bench_batch_fidelity(benchmark, save_result, scale):
    rows = benchmark.pedantic(
        lambda: batch_fidelity(scale=scale), rounds=1, iterations=1
    )
    save_result("batch_fidelity", render(rows))

    for scheme, row in rows.items():
        report = row["_report"]
        event, batch = row["_event"], row["_batch"]
        # Fidelity: the coarse grid may not distort the headline metrics.
        assert abs(report["util_delta_pp"]) <= UTIL_TOLERANCE_PP, (
            scheme, report)
        assert abs(report["turnaround_delta_pct"]) <= (
            TURNAROUND_TOLERANCE_PCT), (scheme, report)
        assert abs(report["makespan_delta_pct"]) <= (
            MAKESPAN_TOLERANCE_PCT), (scheme, report)
        assert report["wait_delta_s"] >= 0.0, (scheme, report)
        assert not batch.unscheduled, (scheme, batch.unscheduled)
        assert report["rounds_ratio"] < 0.1, (scheme, report)
        if scheme in SPEEDUP_SCHEMES:
            # Deterministic attempt counts carry the strict bound;
            # wall clock gets head-room for CI noise.
            assert report["attempts_ratio"] <= 1.0 / MIN_SPEEDUP, (
                scheme, report)
            assert row["speedup"] >= MIN_SPEEDUP * 0.5, (
                scheme, row["speedup"])

    # The headline target: >= 3x allocator ms/job for the paper's own
    # scheme (and the table saved above shows every other scheme).
    assert rows["jigsaw"]["speedup"] >= MIN_SPEEDUP, rows["jigsaw"]
