"""CLI wiring at tiny scale."""

import pytest

from repro.cli import main


def test_table1(capsys):
    assert main(["table1", "--scale", "0.004"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Thunder" in out


def test_fig6_subset(capsys):
    assert main(["fig6", "--scale", "0.004", "--traces", "Synth-16"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "jigsaw" in out


def test_simulate(capsys):
    assert main([
        "simulate", "--scale", "0.004", "--trace", "Synth-16",
        "--scheme", "jigsaw", "--scenario", "10%",
    ]) == 0
    out = capsys.readouterr().out
    assert "jigsaw on Synth-16" in out
    assert "instantaneous histogram" in out


def test_simulate_telemetry_outputs(tmp_path, capsys):
    import json

    trace_out = tmp_path / "t.json"
    trace_jsonl = tmp_path / "t.jsonl"
    metrics_out = tmp_path / "m.prom"
    samples_out = tmp_path / "s.jsonl"
    assert main([
        "simulate", "--scale", "0.004", "--trace", "Synth-16",
        "--scheme", "jigsaw",
        "--trace-out", str(trace_out),
        "--trace-jsonl", str(trace_jsonl),
        "--metrics-out", str(metrics_out),
        "--samples-out", str(samples_out),
        "--sample-interval", "1800",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "metrics:" in out and "samples:" in out
    doc = json.loads(trace_out.read_text())
    assert doc["traceEvents"], "expected span events"
    assert any(e["name"] == "alloc.search" for e in doc["traceEvents"])
    assert trace_jsonl.read_text().strip()
    assert "# TYPE repro_alloc_attempts_total counter" in (
        metrics_out.read_text()
    )
    rows = [json.loads(l) for l in samples_out.read_text().splitlines()]
    assert rows and all("util_pct" in r for r in rows)


def test_obs_summarize(tmp_path, capsys):
    trace_out = tmp_path / "t.json"
    assert main([
        "simulate", "--scale", "0.004", "--trace", "Synth-16",
        "--scheme", "baseline", "--trace-out", str(trace_out),
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "summarize", str(trace_out)]) == 0
    out = capsys.readouterr().out
    assert "alloc.search" in out
    assert "mean ms" in out


def test_frag(capsys):
    assert main(["frag", "--radix", "8", "--occupancy", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "largest placeable job" in out
    assert "per-pod free capacity" in out


def test_contention(capsys):
    assert main(["contention", "--radix", "8", "--jobs", "5", "9"]) == 0
    out = capsys.readouterr().out
    assert "baseline D-mod-k" in out
    assert "rearranged" in out


def test_check(capsys):
    assert main(["check", "--scale", "0.004"]) == 0
    out = capsys.readouterr().out
    assert "5/5 claims reproduced" in out
    assert "rearrangeable non-blocking" in out


def test_campaign(tmp_path, capsys):
    out = tmp_path / "c.json"
    args = ["campaign", "--scale", "0.004", "--out", str(out),
            "--traces", "Synth-16", "--schemes", "baseline", "jigsaw"]
    assert main(args) == 0
    assert out.exists()
    first = capsys.readouterr().out
    assert "Campaign: steady_state_utilization" in first
    # resumable: second invocation runs nothing new but reports the same
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "total simulated wall time" in second


def test_campaign_rejects_unknown_metric_before_running(tmp_path):
    # It used to run and save the whole sweep, then die with KeyError.
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit):
        main(["campaign", "--scale", "0.004", "--out", str(out),
              "--traces", "Synth-16", "--schemes", "jigsaw",
              "--metric", "utilisation"])
    assert not out.exists()


@pytest.mark.parametrize("interval", ["nan", "inf"])
def test_simulate_rejects_non_finite_sample_interval(tmp_path, interval):
    # NaN died late in the sampler's reset; inf wrote a single row.
    samples = tmp_path / "s.jsonl"
    with pytest.raises(ValueError, match=f"sample interval.*{interval}"):
        main(["simulate", "--scale", "0.004", "--trace", "Synth-16",
              "--scheme", "jigsaw", "--samples-out", str(samples),
              "--sample-interval", interval])
    assert not samples.exists()


def test_simulate_rejects_nan_mttf():
    # A NaN MTTF used to run with no faults and print no fault line.
    with pytest.raises(ValueError, match="mttf=nan"):
        main(["simulate", "--scale", "0.004", "--trace", "Synth-16",
              "--scheme", "jigsaw", "--mttf", "nan"])


def test_simulate_rejects_infinite_mttf():
    # An infinite MTTF used to run with no faults and say nothing.
    with pytest.raises(ValueError, match="mttf=inf"):
        main(["simulate", "--scale", "0.004", "--trace", "Synth-16",
              "--scheme", "jigsaw", "--mttf", "inf"])


def test_simulate_rejects_non_finite_step_interval():
    # argparse's float accepts "inf"; the run used to lose every job
    # after the first round instead of failing.
    with pytest.raises(ValueError, match="step_interval.*inf"):
        main([
            "simulate", "--scale", "0.004", "--trace", "Synth-16",
            "--scheme", "jigsaw", "--step-interval", "inf",
        ])


@pytest.mark.parametrize("scale", ["-0.01", "0", "nan", "1.5"])
def test_scale_outside_unit_interval_rejected(capsys, scale):
    # --scale skipped the (0, 1] check REPRO_SCALE gets: -0.01 and 0
    # silently ran the minimum-size trace, and nan died converting the
    # job count.
    with pytest.raises(SystemExit):
        main(["simulate", "--trace", "Synth-16", "--scheme", "jigsaw",
              "--scale", scale])
    err = capsys.readouterr().err
    assert "argument --scale" in err
    assert f"got {float(scale)}" in err


@pytest.mark.parametrize("occupancy", ["1.5", "nan", "-0.1", "inf"])
def test_frag_rejects_occupancy_outside_unit_interval(capsys, occupancy):
    # 1.5 and nan used to run silently.
    with pytest.raises(SystemExit):
        main(["frag", "--radix", "8", "--occupancy", occupancy])
    err = capsys.readouterr().err
    assert "argument --occupancy: occupancy must be in [0, 1]" in err
    assert f"got {occupancy}" in err


def test_unknown_trace_rejected():
    with pytest.raises(SystemExit):
        main(["fig6", "--traces", "NotATrace"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])
