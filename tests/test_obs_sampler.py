"""Time-series sampler: boundary math, simulator wiring, grid merging."""

import io
import json

import pytest

from repro.core.baseline import BaselineAllocator
from repro.experiments.grid import merge_sample_streams, run_grid, sim_cell
from repro.obs.sampler import (
    ROW_FIELDS,
    TimeSeriesSampler,
    merge_streams,
    simulator_row,
    write_jsonl,
)
from repro.sched.job import Job
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree


class TestBoundaryMath:
    def test_emits_every_boundary_strictly_before_t(self):
        s = TimeSeriesSampler(10.0)
        s.reset(0.0)
        s.advance_to(25.0, lambda b: {"t": b})
        assert [r["t"] for r in s.rows] == [0.0, 10.0, 20.0]

    def test_first_boundary_rounds_up_from_start(self):
        s = TimeSeriesSampler(10.0)
        s.reset(7.0)
        s.advance_to(31.0, lambda b: {"t": b})
        assert [r["t"] for r in s.rows] == [10.0, 20.0, 30.0]

    def test_finish_adds_final_row_at_end_time(self):
        s = TimeSeriesSampler(10.0)
        s.reset(0.0)
        s.finish(4.0, lambda b: {"t": b})
        assert [r["t"] for r in s.rows] == [0.0, 4.0]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_interval_must_be_finite(self, interval):
        with pytest.raises(ValueError, match=repr(interval)):
            TimeSeriesSampler(interval)


class TestSimulatorRow:
    def test_counts_padding_and_shards(self):
        tree = FatTree.from_radix(8)
        allocator = BaselineAllocator(tree)
        allocator.allocate(1, 3)
        row = simulator_row(
            0.0, allocator, pending=2, running_jobs=1, busy_requested=3
        )
        assert set(ROW_FIELDS) <= set(row)
        assert row["free_nodes"] == tree.num_nodes - 3
        assert row["padding_nodes"] == 0  # baseline never pads
        assert row["queue_depth"] == 2 and row["running_jobs"] == 1
        assert row["util_pct"] == pytest.approx(
            100.0 * 3 / tree.num_nodes, abs=1e-3
        )


class TestSimulatorWiring:
    def _run(self, sampler=None):
        tree = FatTree.from_radix(8)
        jobs = [
            Job(id=i, size=8, runtime=100.0, arrival=i * 10.0)
            for i in range(6)
        ]
        sim = Simulator(BaselineAllocator(tree), sampler=sampler)
        return sim.run(jobs)

    def test_unsampled_run_has_no_samples(self):
        assert self._run().samples == []

    def test_sampled_run_fills_result_samples(self):
        result = self._run(TimeSeriesSampler(25.0))
        assert result.samples, "expected at least one row"
        times = [r["t"] for r in result.samples]
        assert times == sorted(times)
        # the final row lands at the last event time
        assert times[-1] == pytest.approx(50.0 + 100.0)
        for row in result.samples:
            assert set(ROW_FIELDS) <= set(row)

    def test_sampling_changes_no_decision(self):
        plain = self._run()
        sampled = self._run(TimeSeriesSampler(7.0))
        assert [
            (j.job_id, j.start, j.end) for j in plain.jobs
        ] == [(j.job_id, j.start, j.end) for j in sampled.jobs]


class TestStreams:
    def test_write_jsonl_orders_keys_stably(self):
        rows = [{"queue_depth": 1, "t": 0.0, "zz": 9, "scheme": "ta"}]
        buf = io.StringIO()
        write_jsonl(rows, buf)
        obj = json.loads(buf.getvalue())
        assert list(obj) == ["t", "queue_depth", "scheme", "zz"]

    def test_merge_streams_labels_and_orders(self):
        merged = merge_streams([
            ({"scheme": "a"}, [{"t": 0.0}, {"t": 1.0}]),
            ({"scheme": "b"}, [{"t": 0.0}]),
        ])
        assert [(r["scheme"], r["t"]) for r in merged] == [
            ("a", 0.0), ("a", 1.0), ("b", 0.0),
        ]

    def test_grid_merge_identical_serial_and_parallel(self):
        cells = [
            sim_cell(trace="Synth-16", scheme=scheme, scale=0.01,
                     sample_interval=1800.0)
            for scheme in ("baseline", "jigsaw")
        ]
        serial = merge_sample_streams(cells, run_grid(cells, workers=1))
        parallel = merge_sample_streams(cells, run_grid(cells, workers=2))
        assert serial == parallel
        assert serial, "expected sample rows"
        assert {r["scheme"] for r in serial} == {"baseline", "jigsaw"}
        assert all(r["trace"] == "Synth-16" for r in serial)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_jsonl(serial, buf_a)
        write_jsonl(parallel, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
