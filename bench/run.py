#!/usr/bin/env python3
"""The repository benchmark: trace-replay workloads, end-to-end metrics
and an outside-in per-layer trace.

Run from the repository root (no install, no ``PYTHONPATH`` needed)::

    python3 bench/run.py --workload synth28-event --seed 0 --seconds 20 --trace 0

With one ``--workload`` the workload runs in this process, and the last
line printed is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics declared in
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  With no ``--workload``, or several, each selected
workload runs in a fresh child process, one at a time.
``--repeat-check`` runs that set twice and exits non-zero if any
end-to-end median moved by more than its bound.  Any failed output
check also makes the exit code non-zero.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: switches that select another code path or resize inputs; the
#: benchmark must always time the default program on its own sizes
SCRUBBED_ENV = (
    "REPRO_NAIVE_SEARCH", "REPRO_NAIVE_PASS", "REPRO_NAIVE_EVENTS",
    "REPRO_NO_XPASS_MEMO", "REPRO_SCALE", "REPRO_FULL_SCALE",
    "REPRO_WORKERS",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv: Optional[List[str]], spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="timed rounds repeat for this long (default "
                        "%(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add a traced round and report per-layer "
                        "metrics instead of end-to-end ones")
    p.add_argument("--smoke", action="store_true",
                   help="1/20-size inputs, for the tests")
    p.add_argument("--out", type=Path,
                   help="also write the full report as JSON here")
    p.add_argument("--repeat-check", action="store_true",
                   help="run the set twice and compare end-to-end medians")
    args = p.parse_args(argv)
    args.workload = args.workload or names
    return args


def environment() -> Dict[str, object]:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_one(args: argparse.Namespace, spec: dict) -> int:
    """Measure one workload here; print the report, then the result line."""
    from replay import measure

    name = args.workload[0]
    run = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
    values = run.per_layer() if args.trace else run.end_to_end()
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    detail = run.detail()
    report = {"environment": environment(), **detail, "metrics": metrics}
    env = report["environment"]
    print(f"workload {name}  seed {args.seed}  timed rounds "
          f"{len(run.round_wall_s)}  (commit {env['commit'][:12]}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']})")
    for key, m in metrics.items():
        print(f"  {key:<24} {m['value']:>14.6g} {m['unit']}")
    for key, s in detail["spreads"].items():
        print(f"  rounds: {key:<16} median={s['median']:.6g} n={s['n']} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} min={s['min']:.6g} "
              f"max={s['max']:.6g}")
    for label, cell in detail["cells"].items():
        print(f"  cell {label:<16} decisions_sha256 "
              f"{cell['decisions_sha256']}")
    for problem in run.problems:
        print(f"  PROBLEM {problem}")
    correct = run.failed == 0 and not run.problems
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def run_children(args: argparse.Namespace) -> Dict[str, Optional[dict]]:
    """Each workload in a fresh child process, one at a time; returns the
    parsed result line per workload (None if the child printed none)."""
    results: Dict[str, Optional[dict]] = {}
    for name in args.workload:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[name] = None
        if proc.returncode != 0 and results[name] is not None:
            results[name]["correct"] = False
    return results


def repeat_check(args: argparse.Namespace, spec: dict) -> int:
    """Two sets back to back; every end-to-end median must agree with
    its twin within the metric's bound."""
    first = run_children(args)
    second = run_children(args)
    ok = True
    print(f"\nrepeat check, seed {args.seed}:")
    print(f"  {'workload':<20} {'metric':<16} {'set 1':>12} {'set 2':>12}"
          f" {'diff':>8} {'bound':>6}")
    for name in args.workload:
        a, b = first[name], second[name]
        if not (a and b and a["correct"] and b["correct"]):
            print(f"  {name:<20} a set failed or printed no result")
            ok = False
            continue
        for m in spec["end_to_end"]:
            va = a["metrics"][m["name"]]["value"]
            vb = b["metrics"][m["name"]]["value"]
            diff = abs(vb - va) / abs(va)
            agree = diff <= m["bound"]
            ok &= agree
            print(f"  {name:<20} {m['name']:<16} {va:>12.6g} {vb:>12.6g}"
                  f" {100 * diff:>7.2f}% {100 * m['bound']:>5.0f}%"
                  f"  {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, str(SRC))
    if args.repeat_check:
        return repeat_check(args, spec)
    if len(args.workload) == 1:
        return run_one(args, spec)
    results = run_children(args)
    ok = all(r and r["correct"] for r in results.values())
    if args.out:
        args.out.write_text(json.dumps(
            {"environment": environment(), "results": results}, indent=2
        ) + "\n")
    print(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
