"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench/``; the
tier-1 suite does not collect them (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import replay  # noqa: E402
import run as bench_run  # noqa: E402
from oracle import PlacementRecorder, check_result  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.jigsaw import JigsawAllocator  # noqa: E402
from repro.core.registry import make_allocator  # noqa: E402
from repro.sched.job import Job  # noqa: E402
from repro.sched.simulator import Simulator  # noqa: E402
from repro.topology.fattree import FatTree  # noqa: E402
from repro.traces.trace import Trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def test_spec_matches_the_workload_table():
    assert NAMES == list(WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_prints_every_declared_metric(name, trace):
    proc = bench("--workload", name, "--smoke", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_fit_inside_the_traced_wall(name):
    run = replay.measure(name, seed=1, seconds=0, trace=True, smoke=True)
    assert not run.problems
    assert 0 < run.timer.total_self_s() <= run.traced_wall_s
    assert run.per_layer()["unattributed_pct"] >= 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _share_nodes(monkeypatch):
    """Jigsaw that never marks its nodes busy: every search hands out
    nodes another running job already holds."""
    monkeypatch.setattr(JigsawAllocator, "_claim", lambda self, a, bw: None)
    monkeypatch.setattr(JigsawAllocator, "_release", lambda self, j: None)
    monkeypatch.setattr(JigsawAllocator, "_release_many",
                        lambda self, ids: None)


def test_oracle_catches_a_node_given_to_two_jobs(monkeypatch):
    _share_nodes(monkeypatch)
    tree = FatTree.from_radix(8)
    # Ten 4-node jobs fit the 128-node cluster at once, so node counts
    # alone stay legal; only the ownership map sees the sharing.
    trace = Trace("shared", [Job(i, 4, 100.0) for i in range(10)])
    allocator = make_allocator("jigsaw", tree)
    recorder = PlacementRecorder(allocator)
    result = Simulator(allocator).run(trace)
    assert check_result(result, trace, tree.num_nodes) == []
    assert any("while job" in v for v in recorder.check())


def test_shared_node_fails_the_run_and_the_exit_code(monkeypatch, capsys):
    _share_nodes(monkeypatch)
    monkeypatch.setattr(bench_run, "SCRUBBED_ENV", ())
    code = bench_run.main(["--workload", "synth28-event", "--smoke",
                           "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
