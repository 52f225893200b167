"""Campaign runner: persistence, resume, reporting."""

import json

import pytest

from repro.experiments.campaign import Campaign, RunKey, RunRecord

TINY = 0.003


class TestRunKey:
    def test_roundtrip(self):
        key = RunKey("Synth-16", "jigsaw", "10%", 3)
        assert RunKey.from_str(key.as_str()) == key


class TestCampaign:
    def test_in_memory_run(self):
        c = Campaign(scale=TINY)
        records = c.run(["Synth-16"], ["baseline", "jigsaw"])
        assert len(records) == 2
        util = c.value("Synth-16", "jigsaw", "steady_state_utilization")
        assert 0 < util <= 100

    def test_persistence_and_resume(self, tmp_path):
        path = tmp_path / "campaign.json"
        c1 = Campaign(path, scale=TINY)
        c1.run(["Synth-16"], ["jigsaw"])
        assert path.exists()

        c2 = Campaign(path, scale=TINY)
        assert len(c2.records) == 1
        # resumed runs are skipped: record identity preserved
        before = dict(c2.records)
        c2.run(["Synth-16"], ["jigsaw"])
        assert c2.records == before

    def test_incremental_extension(self, tmp_path):
        path = tmp_path / "campaign.json"
        c = Campaign(path, scale=TINY)
        c.run(["Synth-16"], ["jigsaw"])
        c.run(["Synth-16"], ["jigsaw", "baseline"])  # adds only baseline
        data = json.loads(path.read_text())
        assert len(data["runs"]) == 2

    def test_scale_mismatch_rejected(self, tmp_path):
        path = tmp_path / "campaign.json"
        Campaign(path, scale=TINY).run(["Synth-16"], ["jigsaw"])
        with pytest.raises(ValueError, match="scale"):
            Campaign(path, scale=0.5)

    def test_scenarios_and_seeds(self):
        c = Campaign(scale=TINY)
        c.run(["Synth-16"], ["jigsaw"], scenarios=("none", "20%"), seeds=(0, 1))
        assert len(c.records) == 4
        no_speedup = c.value(
            "Synth-16", "jigsaw", "mean_turnaround", scenario="none"
        )
        speedup = c.value(
            "Synth-16", "jigsaw", "mean_turnaround", scenario="20%"
        )
        assert speedup < no_speedup

    def test_table_rendering(self):
        c = Campaign(scale=TINY)
        c.run(["Synth-16"], ["baseline", "jigsaw"])
        text = c.table()
        assert "Synth-16" in text
        assert "jigsaw" in text
        assert "(no campaign runs" in c.table(scenario="v2")

    def test_unknown_metric_named_with_the_known_ones(self):
        c = Campaign(scale=TINY)
        c.run(["Synth-16"], ["jigsaw"])
        for read in (
            lambda: c.table(metric="utilisation"),
            lambda: c.value("Synth-16", "jigsaw", "utilisation"),
        ):
            with pytest.raises(ValueError, match="'utilisation'.*mean_wait"):
                read()

    def test_wall_seconds_accumulate(self):
        c = Campaign(scale=TINY)
        c.run(["Synth-16"], ["jigsaw"])
        assert c.total_wall_seconds > 0

    def test_parallel_matches_serial(self, tmp_path):
        serial = Campaign(scale=TINY)
        serial.run(["Synth-16"], ["baseline", "jigsaw"])
        parallel = Campaign(tmp_path / "p.json", scale=TINY)
        parallel.run_parallel(
            ["Synth-16"], ["baseline", "jigsaw"], workers=2
        )
        for key, record in serial.records.items():
            for metric, value in record.metrics.items():
                if metric == "mean_sched_time_per_job":
                    continue  # wall clock: inherently non-deterministic
                assert parallel.records[key].metrics[metric] == pytest.approx(
                    value, rel=1e-9
                ), (key, metric)

    def test_parallel_resumes(self, tmp_path):
        c = Campaign(tmp_path / "p.json", scale=TINY)
        c.run(["Synth-16"], ["jigsaw"])
        done = c.run_parallel(["Synth-16"], ["jigsaw"], workers=2)
        assert len(done) == 1  # nothing re-ran

    def test_record_json_roundtrip(self):
        rec = RunRecord(
            key=RunKey("Synth-16", "ta", "v2", 1),
            metrics={"steady_state_utilization": 91.5},
            num_jobs=42,
            wall_seconds=1.5,
        )
        assert RunRecord.from_json(rec.to_json()) == rec
