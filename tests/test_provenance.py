"""Per-job scheduling provenance: the five-scheme reconstruction smoke.

Every charged allocation attempt and every skipped consideration must be
accounted for, per job, across all five schemes — and the account must
match the ledger recorded in ``tests/data/decision_digests.json``, which
the scalar scheduling pass and event drain reproduced as well:
provenance is bookkeeping, never a decision input.
"""

import csv
import math
import pathlib
import sys

import pytest

from repro.experiments.runner import paper_setup, run_scheme
from repro.sched.metrics import (
    PROVENANCE_COLUMNS,
    write_provenance_csv,
    write_provenance_jsonl,
)
from tests.decision_digests import (
    SCHEMES,
    SKIP_COLUMNS,
    golden,
    provenance_digest,
    run_provenance,
)

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))
from _check_obs_schema import check_provenance  # noqa: E402
from _fingerprint import VARIANTS  # noqa: E402

TRACE = "Synth-16"
SCALE = 0.004


def _assert_reconstructs(result, context):
    rows = result.provenance
    assert rows, context
    assert len(rows) == len({r["job_id"] for r in rows}), context

    started = [r for r in rows if r["start"] is not None]
    for row in rows:
        assert set(row) == set(PROVENANCE_COLUMNS), context
        skips = sum(row[c] for c in SKIP_COLUMNS)
        # Reconstruction: every consideration of this job is either one
        # of the classified skips or the single successful start.
        starts = 1 if row["start"] is not None else 0
        assert row["attempts"] == skips + starts, (context, row)
        if starts:
            assert row["state"] == "completed", (context, row)
            assert row["first_eligible"] is not None, (context, row)
            assert row["first_eligible"] <= row["start"], (context, row)
            assert math.isclose(
                row["wait"], row["start"] - row["arrival"],
                rel_tol=0, abs_tol=1e-9,
            ), (context, row)
        else:
            assert row["end"] is None and row["wait"] is None, (context, row)
            assert row["state"] == "unscheduled", (context, row)

    # Aggregate ledger: charged attempts on the result are exactly the
    # per-job attempts; successes are exactly the started jobs.
    assert sum(r["attempts"] for r in rows) == result.stats.attempts, context
    assert len(started) == len(result.jobs), context
    for job_id in result.unscheduled:
        (row,) = [r for r in rows if r["job_id"] == job_id]
        assert row["state"] == "unscheduled", (context, row)
        assert row["start"] is None, (context, row)


class TestTwinMatrix:
    """5-scheme smoke: provenance reconstructs every decision, and the
    decision ledger matches the recorded one."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_reconstructs_and_twins_agree(self, scheme):
        result = run_provenance(scheme)
        _assert_reconstructs(result, scheme)
        # The ledger keeps per-job lifecycle and total considerations;
        # the skip *breakdown* describes how a failure was proven and
        # is not part of it.
        assert provenance_digest(result) == golden("provenance", scheme)

    def test_disabled_by_default(self):
        setup = paper_setup(TRACE, scale=SCALE)
        result = run_scheme(setup, "jigsaw")
        assert result.provenance == []


class TestSkipBreakdown:
    """The per-reason skip columns, which the ledger digest leaves out,
    add up to the allocator's own counters in the fingerprint's event,
    batch (Δt=300) and faulted drive modes."""

    @pytest.mark.parametrize("drive", dict(VARIANTS))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_skip_columns_match_allocator_counters(self, scheme, drive):
        setup = paper_setup(TRACE, scale=SCALE)
        result = run_scheme(setup, scheme, provenance=True,
                            **dict(VARIANTS)[drive])
        total = {c: sum(r[c] for r in result.provenance)
                 for c in SKIP_COLUMNS}
        stats = result.stats
        context = (scheme, drive, total)
        assert total["skip_cache"] == stats.cache_hits, context
        prefiltered = total["skip_cache"] + total["skip_screen"]
        assert prefiltered == stats.queue_prefiltered, context
        assert total["skip_budget"] == stats.budget_aborts, context
        searched = total["skip_search"] + total["skip_budget"]
        assert searched == stats.failures - stats.queue_prefiltered, context


class TestExports:
    @pytest.fixture(scope="class")
    def result(self):
        return run_provenance("jigsaw")

    def test_jsonl_roundtrip_passes_validator(self, result, tmp_path):
        path = tmp_path / "prov.jsonl"
        write_provenance_jsonl(result.provenance, path)
        assert check_provenance(str(path)) == []

    def test_jsonl_rejects_unknown_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_provenance_jsonl(
                [{"job_id": 1, "bogus": 2}], tmp_path / "bad.jsonl")

    def test_csv_header_matches_catalog(self, result, tmp_path):
        path = tmp_path / "prov.csv"
        write_provenance_csv(result.provenance, path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            n_rows = sum(1 for _ in reader)
        assert tuple(header) == PROVENANCE_COLUMNS
        assert n_rows == len(result.provenance)

    def test_validator_flags_bad_ledger(self, result, tmp_path):
        rows = [dict(r) for r in result.provenance]
        victim = next(r for r in rows if r["start"] is not None)
        victim["attempts"] = -1
        path = tmp_path / "bad.jsonl"
        write_provenance_jsonl(rows, path)
        assert check_provenance(str(path))


class TestWaitQuantiles:
    def test_quantiles_from_provenance_waits(self):
        result = run_provenance("jigsaw")
        q = result.wait_quantiles()
        waits = sorted(j.wait for j in result.jobs)
        assert q[0.5] in waits and q[0.99] in waits
        assert q[0.5] <= q[0.95] <= q[0.99] <= waits[-1]

    def test_empty_result_is_zero_not_nan(self):
        # Regression: a run that started no jobs used to report NaN
        # quantiles, which leaked into the exported wait gauges.
        import dataclasses

        result = run_provenance("baseline")
        empty = dataclasses.replace(result, jobs=[])
        q = empty.wait_quantiles()
        assert all(v == 0.0 for v in q.values())
        assert not any(math.isnan(v) for v in q.values())

    def test_bridge_exports_wait_gauges(self):
        from repro.obs.bridge import registry_for_result

        result = run_provenance("jigsaw")
        snap = registry_for_result(result).snapshot()
        keys = [k for k in snap if k.startswith("repro_sched_wait_seconds")]
        assert len(keys) == 3
        for q in ("0.5", "0.95", "0.99"):
            assert any(f'quantile="{q}"' in k for k in keys), keys


class TestDegenerateRuns:
    """Satellite regression: zero-started runs must export cleanly.

    A run in which no job ever starts (empty trace, or a fault-starved
    cluster that strands every arrival) used to emit NaN wait gauges;
    the provenance writers must likewise never produce a line strict
    JSON or CSV parsers reject.
    """

    def _starved_result(self):
        from repro.core.registry import make_allocator
        from repro.sched.job import Job
        from repro.sched.resilience import FaultSpec, FaultTimeline
        from repro.sched.simulator import Simulator
        from repro.topology.fattree import FatTree

        tree = FatTree.from_radix(4)
        # Fail 12 of the 16 nodes forever before the only job arrives:
        # the size-8 job can never start and ends up unscheduled.
        timeline = FaultTimeline(tuple(
            FaultSpec(0.0, "node", (node,), float("inf"))
            for node in range(12)
        ))
        sim = Simulator(
            make_allocator("jigsaw", tree),
            provenance=True, fault_timeline=timeline,
        )
        return sim.run([Job(id=0, size=8, runtime=10.0, arrival=1.0)])

    def test_starved_run_has_no_nan_gauges(self):
        from repro.obs.bridge import registry_for_result

        result = self._starved_result()
        assert not result.jobs and result.unscheduled == [0]
        assert all(v == 0.0 for v in result.wait_quantiles().values())
        for key, value in registry_for_result(result).snapshot().items():
            assert not (isinstance(value, float) and math.isnan(value)), key

    def test_starved_run_exports_parse(self, tmp_path):
        import json

        result = self._starved_result()
        jsonl = tmp_path / "prov.jsonl"
        write_provenance_jsonl(result.provenance, jsonl)
        with open(jsonl) as fh:
            rows = [json.loads(line) for line in fh]  # strict JSON
        assert [r["state"] for r in rows] == ["unscheduled"]
        assert rows[0]["start"] is None and rows[0]["wait"] is None
        path = tmp_path / "prov.csv"
        write_provenance_csv(result.provenance, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert tuple(parsed[0]) == PROVENANCE_COLUMNS
        assert len(parsed) == 2 and "nan" not in ",".join(parsed[1]).lower()

    def test_nonfinite_fields_export_as_null(self, tmp_path):
        import json

        row = {k: None for k in PROVENANCE_COLUMNS}
        row.update(job_id=1, size=2, arrival=0.0, attempts=0,
                   skip_cache=0, skip_screen=0,
                   skip_search=0, skip_budget=0, state="queued",
                   first_eligible=float("nan"), wait=float("inf"))
        jsonl = tmp_path / "nonfinite.jsonl"
        write_provenance_jsonl([row], jsonl)
        with open(jsonl) as fh:
            (parsed,) = [json.loads(line, parse_constant=_reject_constant)
                         for line in fh]
        assert parsed["first_eligible"] is None and parsed["wait"] is None
        path = tmp_path / "nonfinite.csv"
        write_provenance_csv([row], path)
        with open(path, newline="") as fh:
            header, data = list(csv.reader(fh))
        assert data[header.index("first_eligible")] == ""
        assert data[header.index("wait")] == ""

    def test_empty_rows_export(self, tmp_path):
        jsonl = tmp_path / "empty.jsonl"
        write_provenance_jsonl([], jsonl)
        assert open(jsonl).read() == ""
        path = tmp_path / "empty.csv"
        write_provenance_csv([], path)
        with open(path, newline="") as fh:
            (header,) = list(csv.reader(fh))
        assert tuple(header) == PROVENANCE_COLUMNS


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant emitted: {name}")
