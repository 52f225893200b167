"""Experiment harness at tiny scale: wiring, rendering, invariants."""

import pytest

from repro.experiments import (
    fig6,
    fig7,
    fig8,
    render_table,
    table1,
    table2,
    table3,
)
from repro.experiments.report import normalized, render_series
from repro.experiments.runner import (
    ALL_TRACE_NAMES,
    ARRIVAL_SCALE,
    PAPER_JOB_COUNTS,
    default_scale,
    paper_setup,
    run_scheme,
)

TINY = 0.004  # a few hundred jobs per trace


class TestRunner:
    def test_paper_setup_clusters(self):
        assert paper_setup("Synth-16", scale=TINY).tree.num_nodes == 1024
        assert paper_setup("Synth-22", scale=TINY).tree.num_nodes == 2662
        assert paper_setup("Synth-28", scale=TINY).tree.num_nodes == 5488
        for name in ("Thunder", "Atlas", "Sep-Cab"):
            assert paper_setup(name, scale=TINY).tree.num_nodes == 1458

    def test_scaled_job_counts(self):
        setup = paper_setup("Thunder", scale=0.01)
        assert len(setup.trace) == int(105_764 * 0.01)
        tiny = paper_setup("Synth-16", scale=0.000001)
        assert len(tiny.trace) == 300  # the floor

    def test_arrival_scaling_applied(self):
        scaled = paper_setup("Aug-Cab", scale=TINY)
        raw = paper_setup("Sep-Cab", scale=TINY)
        assert "Aug-Cab" in ARRIVAL_SCALE and "Sep-Cab" not in ARRIVAL_SCALE
        assert scaled.trace.has_arrivals and raw.trace.has_arrivals

    def test_unknown_trace(self):
        with pytest.raises(ValueError):
            paper_setup("Frontier")

    @pytest.mark.parametrize("scale", [0.0, -0.01, float("nan"), 2.0])
    def test_scale_outside_unit_interval_rejected(self, scale):
        # The (0, 1] check used to cover REPRO_SCALE only.
        with pytest.raises(ValueError, match=r"scale must be in \(0, 1\]"):
            paper_setup("Synth-16", scale=scale)

    def test_run_scheme_end_to_end(self):
        setup = paper_setup("Synth-16", scale=TINY)
        result = run_scheme(setup, "jigsaw", scenario="10%")
        assert result.scheme == "jigsaw"
        assert len(result.jobs) == len(setup.trace)
        assert 0 < result.steady_state_utilization <= 100

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert default_scale() is None
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_scale() == 0.5
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert default_scale() == 1.0
        monkeypatch.delenv("REPRO_FULL_SCALE")
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ValueError):
            default_scale()

    def test_all_trace_names_cover_table1(self):
        assert set(ALL_TRACE_NAMES) == set(PAPER_JOB_COUNTS)


class TestArtifacts:
    def test_table1(self):
        rows = table1.table1_traces(names=["Synth-16", "Aug-Cab"], scale=TINY)
        text = table1.render(rows)
        assert "Synth-16" in text and "Aug-Cab" in text

    def test_fig6_tiny(self):
        rows = fig6.fig6_utilization(
            names=["Synth-16"], schemes=("baseline", "jigsaw"), scale=TINY
        )
        assert rows["Synth-16"]["baseline"] >= rows["Synth-16"]["jigsaw"] - 1.0
        assert "jigsaw" in fig6.render(rows)

    def test_table2_tiny(self):
        rows = table2.table2_instantaneous(scale=TINY)
        for scheme in ("laas", "jigsaw", "ta"):
            assert sum(rows[scheme].values()) > 0
        assert ">=98" in table2.render(rows)

    def test_fig7_tiny(self):
        results = fig7.fig7_turnaround(
            trace_names=["Aug-Cab"],
            schemes=("jigsaw",),
            scenarios=("none", "20%"),
            scale=TINY,
        )
        rows = results["Aug-Cab"]
        assert rows["20%"]["jigsaw"] < rows["none"]["jigsaw"]
        assert "jigsaw/large" in fig7.render(results)

    def test_fig8_tiny(self):
        results = fig8.fig8_makespan(
            trace_names=["Thunder"],
            schemes=("jigsaw",),
            scenarios=("none", "20%"),
            scale=TINY,
        )
        rows = results["Thunder"]
        assert rows["20%"]["jigsaw"] < rows["none"]["jigsaw"]

    def test_table3_tiny(self):
        rows = table3.table3_scheduling_time(
            trace_names=("Synth-16",), schemes=("jigsaw", "lc+s"), scale=TINY
        )
        assert rows["jigsaw"]["Synth-16"] > 0
        assert rows["lc+s"]["Synth-16"] > rows["jigsaw"]["Synth-16"]


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            "T", {"row": {"a": 1.234, "b": "x"}}, ["a", "b"], row_header="h"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.23" in text and "x" in text

    def test_render_series(self):
        text = render_series("S", {"s1": {"x": 1.0}}, ["x"])
        assert "s1" in text

    def test_normalized(self):
        assert normalized({"a": 2.0}, 4.0) == {"a": 0.5}
        with pytest.raises(ValueError):
            normalized({"a": 1.0}, 0.0)

    def test_render_bars(self):
        from repro.experiments.report import render_bars

        text = render_bars("T", {"jigsaw": 95.0, "ta": 85.0}, width=20)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].count("#") == 19  # 95 of 100 over 20 cells
        assert "95.0" in lines[1]
        with pytest.raises(ValueError):
            render_bars("T", {}, lo=5, hi=5)
        with pytest.raises(ValueError):
            render_bars("T", {}, width=0)

    def test_render_bars_clips(self):
        from repro.experiments.report import render_bars

        text = render_bars("T", {"x": 150.0}, width=10)
        assert text.splitlines()[1].count("#") == 10

    def test_render_sparkline(self):
        from repro.experiments.report import render_sparkline

        line = render_sparkline([0, 50, 100])
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"
        with pytest.raises(ValueError):
            render_sparkline([1.0], lo=2, hi=2)

    def test_save_json(self, tmp_path):
        import json

        from repro.experiments.report import save_json

        path = tmp_path / "out" / "rows.json"
        save_json({"a": {"b": 1.5}}, path)
        assert json.loads(path.read_text()) == {"a": {"b": 1.5}}
