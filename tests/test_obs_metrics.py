"""Metric registry: bound-series semantics and export formats."""

import dataclasses
import pathlib
import sys

import pytest

from repro.obs.metrics import MetricRegistry, declared_metrics, metric


@pytest.fixture
def reg():
    return MetricRegistry()


def _schema_checker():
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    try:
        import _check_obs_schema as checker
    finally:
        sys.path.pop(0)
    return checker


class TestCounter:
    def test_labeled_series_are_independent(self, reg):
        reg.bind("starts_total", "starts", lambda: 2, labels={"via": "fifo"})
        reg.bind("starts_total", "starts", lambda: 5,
                 labels={"via": "backfill"})
        snap = reg.snapshot()
        assert snap['starts_total{via="fifo"}'] == 2
        assert snap['starts_total{via="backfill"}'] == 5

    def test_unlabeled_access_on_labeled_family_rejected(self, reg):
        reg.bind("starts_total", "starts", lambda: 1, labels={"via": "fifo"})
        with pytest.raises(ValueError):
            reg.bind("starts_total", "starts", lambda: 1)

    def test_wrong_label_names_rejected(self, reg):
        reg.bind("starts_total", "starts", lambda: 1, labels={"via": "fifo"})
        with pytest.raises(ValueError):
            reg.bind("starts_total", "starts", lambda: 1,
                     labels={"kind": "fifo"})


class TestRegistry:
    def test_duplicate_name_rejected(self, reg):
        # One name, one kind: a family cannot be both counter and gauge.
        reg.bind("x_total", "x", lambda: 1, labels={"a": "1"})
        with pytest.raises(ValueError, match="registered as a counter"):
            reg.bind("x_total", "x again", lambda: 2, kind="gauge",
                     labels={"a": "2"})

    def test_unknown_kind_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.bind("lat", "latency", lambda: 1, kind="histogram")

    def test_invalid_names_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.bind("0bad", "starts with a digit", lambda: 1)
        with pytest.raises(ValueError):
            reg.bind("ok_total", "bad label", lambda: 1, labels={"0via": "x"})

    def test_contains_and_get(self, reg):
        reg.bind("x_total", "x", lambda: 1)
        assert "x_total" in reg and reg.get("x_total").kind == "counter"
        assert "y_total" not in reg and reg.get("y_total") is None

    def test_bound_series_reads_live_storage(self, reg):
        box = {"n": 1}
        reg.bind("box_total", "live box", lambda: box["n"])
        assert reg.snapshot()["box_total"] == 1
        box["n"] = 7
        assert reg.snapshot()["box_total"] == 7

    def test_bound_family_extends_by_label_value(self, reg):
        reg.bind("k_total", "k", lambda: 1, labels={"kind": "a"})
        reg.bind("k_total", "k", lambda: 2, labels={"kind": "b"})
        snap = reg.snapshot()
        assert snap['k_total{kind="a"}'] == 1
        assert snap['k_total{kind="b"}'] == 2

    def test_bound_duplicate_series_rejected(self, reg):
        reg.bind("k_total", "k", lambda: 1, labels={"kind": "a"})
        with pytest.raises(ValueError):
            reg.bind("k_total", "k", lambda: 2, labels={"kind": "a"})


class TestFieldCatalog:
    @dataclasses.dataclass
    class Carrier:
        depth: float = metric("carrier_depth", "depth", kind="gauge",
                              default=dataclasses.MISSING)
        hits: int = metric("carrier_hits_total", "hits")
        note: str = ""

    def test_declared_metrics_lists_declared_fields_only(self):
        assert declared_metrics(self.Carrier) == {
            "depth": ("carrier_depth", "gauge", "depth"),
            "hits": ("carrier_hits_total", "counter", "hits"),
        }

    def test_missing_default_declares_a_required_field(self):
        with pytest.raises(TypeError):
            self.Carrier()

    def test_bind_fields_reads_live_fields(self, reg):
        carrier = self.Carrier(depth=1.5)
        reg.bind_fields(carrier, {"run": "a"})
        carrier.hits = 4
        text = reg.export_prometheus_text().splitlines()
        assert "# TYPE carrier_depth gauge" in text
        assert 'carrier_depth{run="a"} 1.5' in text
        assert 'carrier_hits_total{run="a"} 4' in text
        assert "note" not in reg.export_prometheus_text()


class TestPrometheusText:
    def test_format(self, reg):
        reg.bind("repro_starts_total", "job starts", lambda: 3,
                 labels={"via": "fifo"})
        reg.bind("repro_depth", "queue depth", lambda: 1.5, kind="gauge")
        text = reg.export_prometheus_text()
        lines = text.splitlines()
        assert "# HELP repro_depth queue depth" in lines
        assert "# TYPE repro_depth gauge" in lines
        assert "repro_depth 1.5" in lines
        assert "# TYPE repro_starts_total counter" in lines
        assert 'repro_starts_total{via="fifo"} 3' in lines
        assert text.endswith("\n")

    def test_integers_render_without_decimal_point(self, reg):
        reg.bind("n_total", "n", lambda: 42.0)
        assert "n_total 42" in reg.export_prometheus_text().splitlines()

    def test_label_values_escaped(self, reg):
        reg.bind("x_total", "x", lambda: 1, labels={"name": 'we"ird\\v'})
        assert 'x_total{name="we\\"ird\\\\v"} 1' in (
            reg.export_prometheus_text()
        )

    def test_passes_schema_checker(self, reg, tmp_path):
        reg.bind("repro_lat", "latency", lambda: 0.05, kind="gauge",
                 labels={"quantile": "0.5"})
        reg.bind("repro_hits_total", "hits", lambda: 2)
        path = tmp_path / "m.prom"
        path.write_text(reg.export_prometheus_text())
        assert _schema_checker().check_metrics(str(path)) == []


class TestPrometheusEdgeCases:
    """Exposition-format corners: escaping, degenerate registries and
    non-finite values."""

    def test_newline_in_label_value_escaped(self, reg):
        reg.bind("x_total", "x", lambda: 1, labels={"name": "two\nlines"})
        text = reg.export_prometheus_text()
        assert 'x_total{name="two\\nlines"} 1' in text.splitlines()

    def test_backslash_quote_newline_combined(self, reg):
        reg.bind("x_total", "x", lambda: 1, labels={"name": 'a\\b"c\nd'})
        # Escape order matters: backslash first, so the escapes
        # themselves are not re-escaped.
        assert 'x_total{name="a\\\\b\\"c\\nd"} 1' in (
            reg.export_prometheus_text().splitlines()
        )

    def test_empty_registry_exports_no_samples(self, reg):
        text = reg.export_prometheus_text()
        assert text == "\n"
        assert reg.snapshot() == {}

    def test_nan_and_inf_gauges_render_spec_spellings(self, reg):
        reg.bind("g_nan", "nan", lambda: float("nan"), kind="gauge")
        reg.bind("g_pinf", "+inf", lambda: float("inf"), kind="gauge")
        reg.bind("g_ninf", "-inf", lambda: float("-inf"), kind="gauge")
        lines = reg.export_prometheus_text().splitlines()
        assert "g_nan NaN" in lines
        assert "g_pinf +Inf" in lines
        assert "g_ninf -Inf" in lines

    def test_edge_cases_pass_schema_checker(self, reg, tmp_path):
        reg.bind("repro_weird_total", "weird labels", lambda: 1,
                 labels={"name": 'a\\b"c\nd'})
        reg.bind("repro_g", "non-finite", lambda: float("inf"), kind="gauge")
        path = tmp_path / "edge.prom"
        path.write_text(reg.export_prometheus_text())
        assert _schema_checker().check_metrics(str(path)) == []
