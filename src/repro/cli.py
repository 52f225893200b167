"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    jigsaw-repro table1
    jigsaw-repro fig6 --traces Synth-16 Aug-Cab
    jigsaw-repro fig7 --scale 0.05
    jigsaw-repro table3
    jigsaw-repro simulate --trace Synth-16 --scheme jigsaw
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import (
    campaign,
    fig6,
    fig7,
    fig8,
    table1,
    table2,
    table3,
)
from repro.experiments.runner import (
    ALL_TRACE_NAMES,
    check_scale,
    default_scale,
    paper_setup,
    run_scheme,
)


def _scale_arg(text: str) -> float:
    """``--scale``: a float in ``(0, 1]``, the check ``paper_setup``
    and ``REPRO_SCALE`` share."""
    try:
        return check_scale(float(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _occupancy_arg(text: str) -> float:
    """``frag --occupancy``: a finite fill fraction in ``[0, 1]``."""
    try:
        occupancy = float(text)
    except ValueError:
        occupancy = float("nan")
    if not 0 <= occupancy <= 1:
        raise argparse.ArgumentTypeError(
            f"occupancy must be in [0, 1], got {text}"
        )
    return occupancy


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=_scale_arg,
        default=None,
        help="fraction of the paper's job counts (default: bench-sized "
        "counts; overrides REPRO_SCALE)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for the experiment grid (default: "
        "REPRO_WORKERS or 1 = serial; results are identical either way)",
    )


def _scale(args) -> Optional[float]:
    scale = getattr(args, "scale", None)
    return scale if scale is not None else default_scale()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to one artifact command."""
    parser = argparse.ArgumentParser(
        prog="jigsaw-repro",
        description="Reproduce the evaluation of the Jigsaw scheduler "
        "(Smith & Lowenthal, HPDC 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="trace characteristics")
    _add_common(p)

    p = sub.add_parser("fig6", help="average system utilization")
    _add_common(p)
    p.add_argument("--traces", nargs="+", default=list(ALL_TRACE_NAMES),
                   choices=ALL_TRACE_NAMES)

    p = sub.add_parser("table2", help="instantaneous utilization histogram")
    _add_common(p)
    p.add_argument("--trace", default="Thunder", choices=ALL_TRACE_NAMES)

    p = sub.add_parser("fig7", help="normalized turnaround times")
    _add_common(p)
    p.add_argument("--traces", nargs="+", default=list(fig7.FIG7_TRACES),
                   choices=ALL_TRACE_NAMES)

    p = sub.add_parser("fig8", help="normalized makespans")
    _add_common(p)
    p.add_argument("--traces", nargs="+", default=list(fig8.FIG8_TRACES),
                   choices=ALL_TRACE_NAMES)

    p = sub.add_parser("table3", help="scheduling time per job")
    _add_common(p)

    p = sub.add_parser("simulate", help="run one trace under one scheme")
    _add_common(p)
    p.add_argument("--trace", required=True, choices=ALL_TRACE_NAMES)
    p.add_argument("--scheme", required=True,
                   choices=["baseline", "jigsaw", "laas", "ta", "lc+s", "lc"])
    p.add_argument("--scenario", default=None,
                   help="job-performance scenario (none/5%%/10%%/20%%/v2/random)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome trace_event JSON of the run "
                   "(open in Perfetto or chrome://tracing)")
    p.add_argument("--trace-jsonl", default=None, metavar="FILE",
                   help="write the raw span events as JSONL")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the run's counters in Prometheus text format")
    p.add_argument("--samples-out", default=None, metavar="FILE",
                   help="write per-interval time-series samples as JSONL")
    p.add_argument("--sample-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="simulated seconds between time-series samples "
                   "(default 3600 when --samples-out is given)")
    p.add_argument("--mttf", type=float, default=None, metavar="SECONDS",
                   help="inject a synthetic per-node fault timeline with "
                   "this mean time to failure (simulated seconds)")
    p.add_argument("--mttr", type=float, default=None, metavar="SECONDS",
                   help="mean time to repair for --mttf faults "
                   "(default: mttf/10)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the synthetic fault timeline")
    p.add_argument("--fault-victim-policy", default="requeue-full",
                   choices=["requeue-full", "requeue-remaining"],
                   help="what a fault does to jobs on failed hardware")
    p.add_argument("--checkpoint-interval", type=float, default=0.0,
                   metavar="SECONDS",
                   help="checkpoint period for requeue-remaining "
                   "(0 = continuous checkpointing)")
    p.add_argument("--step-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="batch-step scheduling: run rounds every this many "
                   "simulated seconds instead of a pass per event (faster "
                   "on bursty traces; bounded fidelity cost — see "
                   "EXPERIMENTS.md)")
    p.add_argument("--topology", type=int, default=None, metavar="RADIX",
                   help="override the trace's cluster switch radix "
                   "(e.g. 32 = the 8192-node scale-up preset)")
    p.add_argument("--naive-events", action="store_true",
                   help="drain events one at a time instead of in "
                   "columnar batches (identical decisions; for "
                   "invariance checks and timing comparisons)")
    p.add_argument("--prof-out", default=None, metavar="FILE",
                   help="profile the allocator hot path and write the "
                   "stage snapshot as JSON")
    p.add_argument("--prof-stacks", default=None, metavar="FILE",
                   help="profile and write collapsed stacks "
                   "(flamegraph.pl / speedscope input)")
    p.add_argument("--provenance-out", default=None, metavar="FILE",
                   help="record per-job scheduling provenance and write "
                   "it as JSONL (.csv extension selects CSV)")

    p = sub.add_parser(
        "resilience",
        help="utilization + bounded slowdown under a fault-rate sweep",
    )
    _add_common(p)
    p.add_argument("--trace", default="Synth-16", choices=ALL_TRACE_NAMES)
    p.add_argument("--mttf", type=float, nargs="+", default=None,
                   metavar="SECONDS",
                   help="fault rates to sweep (default: healthy, 80000, "
                   "20000); the healthy column is always included")
    p.add_argument("--fault-victim-policy", default="requeue-remaining",
                   choices=["requeue-full", "requeue-remaining"])
    p.add_argument("--checkpoint-interval", type=float, default=600.0,
                   metavar="SECONDS")
    p.add_argument("--fault-seed", type=int, default=1)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    ps = obs_sub.add_parser(
        "summarize",
        help="per-span rollup of a trace file (Chrome JSON or JSONL)",
    )
    ps.add_argument("trace_file")

    p = sub.add_parser(
        "prof",
        help="stage-level wall-time attribution of the allocator hot path",
    )
    _add_common(p)
    p.add_argument("--trace", default="Synth-28", choices=ALL_TRACE_NAMES)
    p.add_argument("--scheme", default="jigsaw",
                   choices=["baseline", "jigsaw", "laas", "ta", "lc+s", "lc"])
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the stage snapshot as JSON")
    p.add_argument("--stacks", default=None, metavar="FILE",
                   help="also write collapsed stacks (flamegraph input)")

    p = sub.add_parser(
        "frag",
        help="fragmentation snapshot of a packed cluster under one scheme",
    )
    _add_common(p)
    p.add_argument("--scheme", default="jigsaw",
                   choices=["baseline", "jigsaw", "laas", "ta", "lc+s", "lc"])
    p.add_argument("--radix", type=int, default=16)
    p.add_argument("--occupancy", type=_occupancy_arg, default=0.85,
                   help="target fill fraction before the snapshot")

    p = sub.add_parser(
        "contention",
        help="inter-job interference report under three routing regimes",
    )
    _add_common(p)
    p.add_argument("--radix", type=int, default=8)
    p.add_argument("--jobs", type=int, nargs="+",
                   default=[5, 11, 20, 9, 16, 33])

    p = sub.add_parser(
        "check",
        help="fast self-check: do the paper's headline claims reproduce?",
    )
    _add_common(p)

    p = sub.add_parser(
        "campaign",
        help="persistent, resumable sweep (for full-scale reruns)",
    )
    _add_common(p)
    p.add_argument("--out", required=True, help="JSON results file")
    p.add_argument("--traces", nargs="+", default=["Synth-16"],
                   choices=ALL_TRACE_NAMES)
    p.add_argument("--schemes", nargs="+",
                   default=["baseline", "jigsaw", "laas", "ta"],
                   choices=["baseline", "jigsaw", "laas", "ta", "lc+s", "lc"])
    p.add_argument("--scenarios", nargs="+", default=["none"])
    p.add_argument("--metric", default="steady_state_utilization",
                   choices=campaign.METRICS)

    args = parser.parse_args(argv)
    scale = _scale(args)

    workers = getattr(args, "workers", None)

    if args.command == "table1":
        print(table1.render(table1.table1_traces(scale=scale, seed=args.seed,
                                                 workers=workers)))
    elif args.command == "fig6":
        rows = fig6.fig6_utilization(names=args.traces, scale=scale,
                                     seed=args.seed, workers=workers)
        print(fig6.render(rows))
        from repro.experiments.report import render_bars

        for trace_name, by_scheme in rows.items():
            print()
            print(render_bars(f"{trace_name} utilization (%)", by_scheme,
                              lo=60.0, hi=100.0))
    elif args.command == "table2":
        print(table2.render(table2.table2_instantaneous(
            trace_name=args.trace, scale=scale, seed=args.seed,
            workers=workers)))
    elif args.command == "fig7":
        print(fig7.render(fig7.fig7_turnaround(
            trace_names=args.traces, scale=scale, seed=args.seed,
            workers=workers)))
    elif args.command == "fig8":
        print(fig8.render(fig8.fig8_makespan(
            trace_names=args.traces, scale=scale, seed=args.seed,
            workers=workers)))
    elif args.command == "table3":
        rows, cache_rows, search_rows = table3.table3_full(
            scale=scale, seed=args.seed, workers=workers)
        print(table3.render(rows))
        print()
        print(table3.render_cache(cache_rows))
        print()
        print(table3.render_search(search_rows))
    elif args.command == "simulate":
        from repro.obs.metrics import MetricRegistry
        from repro.obs.sampler import write_jsonl as _write_samples
        from repro.obs.tracer import Tracer
        from repro.sched.log import ScheduleLog

        tracing = bool(args.trace_out or args.trace_jsonl)
        tracer = Tracer(enabled=True) if tracing else None
        registry = MetricRegistry() if args.metrics_out else None
        event_log = ScheduleLog() if registry is not None else None
        sample_interval = args.sample_interval
        if args.samples_out and sample_interval is None:
            sample_interval = 3600.0
        profiled = bool(args.prof_out or args.prof_stacks)
        setup = paper_setup(args.trace, scale=scale, seed=args.seed,
                            topology=args.topology)
        result = run_scheme(setup, args.scheme, scenario=args.scenario,
                            seed=args.seed, tracer=tracer,
                            event_log=event_log,
                            sample_interval=sample_interval,
                            metrics=registry,
                            mttf=args.mttf, mttr=args.mttr,
                            fault_seed=args.fault_seed,
                            fault_victim_policy=args.fault_victim_policy,
                            checkpoint_interval=args.checkpoint_interval,
                            step_interval=args.step_interval,
                            use_columnar_events=not args.naive_events,
                            profiled=profiled,
                            provenance=bool(args.provenance_out))
        print(result.summary())
        if result.step_interval is not None:
            print(f"batch-step: {result.scheduling_rounds} rounds at "
                  f"dt={result.step_interval:g}s")
        if result.faults_injected:
            print(f"faults: {result.faults_injected} injected, "
                  f"{result.faults_repaired} repaired, "
                  f"{result.resubmissions} jobs killed+requeued, "
                  f"{result.wasted_node_seconds:.0f} node-s wasted "
                  f"(goodput {100 * result.goodput_fraction:.1f}%), "
                  f"degraded integral "
                  f"{result.degraded_node_seconds:.0f} node-s")
        print("instantaneous histogram:", result.instant.as_row())
        print(result.stats.summary())
        from repro.experiments.report import render_sparkline
        from repro.sched.metrics import utilization_timeline

        series = [u for _, u in utilization_timeline(result, buckets=60)]
        print(f"utilization timeline: |{render_sparkline(series)}|")
        if tracer is not None and args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
            print(f"trace: {len(tracer.events)} events -> {args.trace_out}")
        if tracer is not None and args.trace_jsonl:
            tracer.write_jsonl(args.trace_jsonl)
            print(f"trace JSONL: {len(tracer.events)} events -> "
                  f"{args.trace_jsonl}")
        if tracer is not None and tracer.dropped:
            print(f"WARNING: {tracer.dropped} trace events dropped "
                  f"(max_events={tracer.max_events} reached); exported "
                  "traces undercount the run", file=sys.stderr)
        if profiled:
            if args.prof_out:
                import json as _json

                with open(args.prof_out, "w", encoding="utf-8") as fh:
                    _json.dump(result.prof, fh, indent=2)
                print(f"profile: {len(result.prof['stages'])} stages -> "
                      f"{args.prof_out}")
            if args.prof_stacks:
                from repro.obs.prof import snapshot_collapsed

                with open(args.prof_stacks, "w", encoding="utf-8") as fh:
                    fh.write(snapshot_collapsed(result.prof))
                print(f"collapsed stacks -> {args.prof_stacks}")
        if args.provenance_out:
            from repro.sched.metrics import (
                write_provenance_csv,
                write_provenance_jsonl,
            )

            if args.provenance_out.endswith(".csv"):
                write_provenance_csv(result.provenance, args.provenance_out)
            else:
                write_provenance_jsonl(result.provenance, args.provenance_out)
            print(f"provenance: {len(result.provenance)} jobs -> "
                  f"{args.provenance_out}")
            wq = result.wait_quantiles()
            print("scheduling latency (wait): "
                  + "  ".join(f"p{int(q * 100)}={wq[q]:.0f}s"
                              for q in sorted(wq)))
        if registry is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(registry.export_prometheus_text())
            print(f"metrics: {len(registry.snapshot())} series -> "
                  f"{args.metrics_out}")
        if args.samples_out:
            _write_samples(result.samples, args.samples_out)
            print(f"samples: {len(result.samples)} rows "
                  f"(every {sample_interval:g}s) -> {args.samples_out}")
    elif args.command == "resilience":
        from repro.experiments import figresilience

        mttf_values = [None]
        mttf_values += list(
            args.mttf if args.mttf is not None
            else [v for v in figresilience.DEFAULT_MTTF_VALUES if v]
        )
        rows = figresilience.resilience_sweep(
            trace_name=args.trace,
            mttf_values=mttf_values,
            fault_victim_policy=args.fault_victim_policy,
            checkpoint_interval=args.checkpoint_interval,
            fault_seed=args.fault_seed,
            scale=scale,
            seed=args.seed,
            workers=workers,
        )
        print(figresilience.render(rows))
    elif args.command == "obs":
        from repro.obs.tracer import (
            load_trace_events,
            read_dropped_count,
            summarize_trace,
        )

        print(summarize_trace(load_trace_events(args.trace_file),
                              dropped=read_dropped_count(args.trace_file)))
    elif args.command == "prof":
        return _prof_command(args, scale)
    elif args.command == "frag":
        _frag_command(args)
    elif args.command == "contention":
        _contention_command(args)
    elif args.command == "check":
        from repro.experiments.check import render as render_check
        from repro.experiments.check import run_checks

        results = run_checks(scale=scale or 0.01)
        print(render_check(results))
        return 0 if all(r.passed for r in results) else 1
    elif args.command == "campaign":
        sweep = campaign.Campaign(args.out, scale=scale)
        sweep.run(
            traces=args.traces,
            schemes=args.schemes,
            scenarios=args.scenarios,
            seeds=(args.seed,),
            progress=True,
            workers=workers,
        )
        for scenario in args.scenarios:
            print(sweep.table(metric=args.metric, scenario=scenario,
                              seed=args.seed))
        print(f"(total simulated wall time: "
              f"{sweep.total_wall_seconds:.0f}s; results in {args.out})")
    return 0


def _prof_command(args, scale) -> int:
    """Run one profiled+traced simulation and print the stage
    attribution table, with coverage against the ``alloc.search`` span
    total (how much of the measured search time the stages explain)."""
    from repro.obs.prof import (
        render_attribution,
        snapshot_collapsed,
        top_level_seconds,
    )
    from repro.obs.tracer import Tracer

    tracer = Tracer(enabled=True)
    setup = paper_setup(args.trace, scale=scale, seed=args.seed)
    result = run_scheme(setup, args.scheme, seed=args.seed,
                        tracer=tracer, profiled=True)
    snap = result.prof
    print(f"{args.scheme} on {args.trace}: "
          f"{result.stats.attempts} allocation attempts, "
          f"{result.stats.alloc_seconds * 1e3:.1f} ms in the allocator\n")
    print(render_attribution(snap))
    search_wall = sum(
        e.get("dur", 0.0) for e in tracer.events
        if e.get("name") == "alloc.search" and not e.get("instant")
    )
    stage_search = sum(
        s["total_s"] for s in snap["stages"]
        if s["stack"] == "search"
    )
    if search_wall > 0:
        coverage = 100.0 * stage_search / search_wall
        print(f"\nattribution coverage: stage 'search' explains "
              f"{coverage:.1f}% of the alloc.search span total "
              f"({stage_search * 1e3:.1f} of {search_wall * 1e3:.1f} ms)")
    print(f"profiler account of the hot path: "
          f"{top_level_seconds(snap) * 1e3:.1f} ms "
          "(search + claim + release stages)")
    if args.out:
        import json as _json

        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(snap, fh, indent=2)
        print(f"snapshot -> {args.out}")
    if args.stacks:
        with open(args.stacks, "w", encoding="utf-8") as fh:
            fh.write(snapshot_collapsed(snap))
        print(f"collapsed stacks -> {args.stacks}")
    return 0


def _frag_command(args) -> None:
    import random

    from repro.core.diagnostics import fragmentation_snapshot
    from repro.core.registry import make_allocator
    from repro.topology.fattree import FatTree
    from repro.topology.render import render_free_summary

    tree = FatTree.from_radix(args.radix)
    allocator = make_allocator(args.scheme, tree)
    rng = random.Random(args.seed)
    jid = 0
    sizes = [1, 3, 5, 8, 13, 20, 33, 48, 70]
    while allocator.free_nodes > (1 - args.occupancy) * tree.num_nodes:
        jid += 1
        if allocator.allocate(jid, rng.choice(sizes)) is None:
            break
    print(f"cluster: {tree.describe()}  scheme: {args.scheme}\n")
    print(fragmentation_snapshot(allocator).summary())
    print("\nper-pod free capacity:")
    print(render_free_summary(allocator.state))


def _contention_command(args) -> None:
    from repro.core.registry import make_allocator
    from repro.routing.contention import contention_report
    from repro.topology.fattree import FatTree

    tree = FatTree.from_radix(args.radix)
    allocator = make_allocator("jigsaw", tree)
    allocations = []
    for jid, size in enumerate(args.jobs, start=1):
        alloc = allocator.allocate(jid, size)
        if alloc is not None:
            allocations.append(alloc)
    print(f"cluster: {tree.describe()}, {len(allocations)} jobs placed\n")
    for label, kwargs in (
        ("baseline D-mod-k", {}),
        ("jigsaw partitions (static)", dict(use_partition_routing=True)),
        ("jigsaw partitions (rearranged)",
         dict(use_partition_routing=True, rearranged=True)),
    ):
        report = contention_report(tree, allocations, seed=args.seed, **kwargs)
        print(f"--- {label} ---")
        print(report.summary())
        print()


if __name__ == "__main__":
    sys.exit(main())
