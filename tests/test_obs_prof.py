"""Stage profiler: frame accounting, passivity plumbing, attribution."""

import math

import pytest

from repro.core.registry import make_allocator
from repro.experiments.runner import paper_setup, run_scheme
from repro.obs.prof import (
    HIST_BUCKETS,
    STAGES,
    StageProfiler,
    merge_snapshots,
    render_attribution,
    snapshot_collapsed,
    top_level_seconds,
)
from repro.topology.fattree import FatTree

#: every stage name the instrumentation may emit, per scheme engine
#: (the catalog in docs/observability.md; base stages apply everywhere)
BASE_STAGES = {"search", "claim", "release"}
KNOWN_STAGES = BASE_STAGES | {
    "two_level", "three_level", "prefilter", "pod_fit",   # jigsaw/laas
    "pod_enum",                                           # lc+s
    "t1", "t2", "t3",                                     # ta
}


class TestStageProfiler:
    def test_disabled_by_default(self):
        # Only an attached profiler records: once detached, the
        # allocator runs its plain methods again.
        prof = StageProfiler()
        allocator = make_allocator("jigsaw", FatTree.from_radix(8))
        allocator.allocate(1, 3)
        assert prof.snapshot() == {"stages": []}
        with prof.attach(allocator):
            allocator.allocate(2, 3)
        before = prof.snapshot()
        assert before["stages"]
        allocator.allocate(3, 3)
        allocator.release(3)
        assert prof.snapshot() == before

    def test_push_pop_counts_and_nesting(self):
        prof = StageProfiler()
        prof.scheme = "x"
        t0 = prof.push("outer")
        t1 = prof.push("inner")
        prof.pop(t1)
        prof.pop(t0)
        snap = prof.snapshot()
        stacks = {s["stack"]: s for s in snap["stages"]}
        assert set(stacks) == {"outer", "outer;inner"}
        assert stacks["outer"]["count"] == 1
        assert stacks["outer;inner"]["count"] == 1

    def test_self_time_excludes_children(self):
        prof = StageProfiler()
        prof.scheme = "x"
        t0 = prof.push("outer")
        t1 = prof.push("inner")
        for _ in range(1000):
            pass
        prof.pop(t1)
        prof.pop(t0)
        stacks = {s["stack"]: s for s in prof.snapshot()["stages"]}
        outer, inner = stacks["outer"], stacks["outer;inner"]
        assert outer["total_s"] >= inner["total_s"]
        assert outer["self_s"] <= outer["total_s"] - inner["total_s"] + 1e-9
        # Top-level totals already include child time.
        assert top_level_seconds(prof.snapshot()) == outer["total_s"]

    def test_histogram_buckets_sum_to_count(self):
        prof = StageProfiler()
        prof.scheme = "x"
        for _ in range(37):
            prof.pop(prof.push("s"))
        (stage,) = prof.snapshot()["stages"]
        assert len(stage["hist_log2us"]) == HIST_BUCKETS
        assert sum(stage["hist_log2us"]) == stage["count"] == 37

    def test_merge_snapshots_adds(self):
        a = StageProfiler()
        a.scheme = "x"
        a.pop(a.push("s"))
        b = StageProfiler()
        b.scheme = "x"
        b.pop(b.push("s"))
        b.pop(b.push("t"))
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        stacks = {s["stack"]: s for s in merged["stages"]}
        assert stacks["s"]["count"] == 2
        assert stacks["t"]["count"] == 1

    def test_collapsed_stack_format(self):
        prof = StageProfiler()
        prof.scheme = "jigsaw"
        t0 = prof.push("search")
        prof.pop(prof.push("two_level"))
        prof.pop(t0)
        for text in (prof.to_collapsed(),
                     snapshot_collapsed(prof.snapshot())):
            lines = text.strip().splitlines()
            assert len(lines) == 2
            for line in lines:
                frames, _, us = line.rpartition(" ")
                assert frames.startswith("jigsaw;search")
                assert int(us) >= 0

    def test_clear_resets(self):
        prof = StageProfiler()
        prof.scheme = "x"
        prof.pop(prof.push("s"))
        prof.clear()
        assert prof.snapshot() == {"stages": []}


class TestAllocatorIntegration:
    @pytest.mark.parametrize(
        "scheme", ["baseline", "ta", "laas", "jigsaw", "lc+s"]
    )
    def test_stage_catalog_per_scheme(self, scheme):
        prof = StageProfiler()
        allocator = make_allocator(scheme, FatTree.from_radix(8))
        with prof.attach(allocator):
            for jid, size in enumerate((1, 3, 5, 8, 13, 20, 64, 3, 5), 1):
                allocator.allocate(jid, size)
        snap = prof.snapshot()
        names = {
            frame for s in snap["stages"]
            for frame in s["stack"].split(";")
        }
        assert names <= KNOWN_STAGES, names - KNOWN_STAGES
        assert "search" in names
        assert set(STAGES[scheme].values()) <= KNOWN_STAGES
        assert all(s["scheme"] == scheme for s in snap["stages"])

    def test_run_scheme_attaches_snapshot(self):
        setup = paper_setup("Synth-16", scale=0.004)
        result = run_scheme(setup, "jigsaw", profiled=True)
        assert result.prof is not None
        stacks = {s["stack"] for s in result.prof["stages"]}
        assert "search" in stacks
        # The profiler's account of the search stage is bounded by the
        # allocator wall time the simulator measured around it.
        search_total = sum(
            s["total_s"] for s in result.prof["stages"]
            if s["stack"] == "search"
        )
        assert 0.0 < search_total
        assert search_total <= result.stats.alloc_seconds * 1.05
        text = render_attribution(result.prof)
        assert "search" in text and "jigsaw" in text

    def test_unprofiled_run_has_no_snapshot(self):
        setup = paper_setup("Synth-16", scale=0.004)
        result = run_scheme(setup, "jigsaw")
        assert result.prof is None


class TestAttributionHelpers:
    def test_top_level_seconds_filters_scheme(self):
        snap = {"stages": [
            {"scheme": "a", "stack": "search", "count": 1,
             "total_s": 1.0, "self_s": 1.0, "hist_log2us": [1]},
            {"scheme": "a", "stack": "search;sub", "count": 1,
             "total_s": 0.5, "self_s": 0.5, "hist_log2us": [1]},
            {"scheme": "b", "stack": "claim", "count": 1,
             "total_s": 2.0, "self_s": 2.0, "hist_log2us": [1]},
        ]}
        assert top_level_seconds(snap) == 3.0
        assert top_level_seconds(snap, scheme="a") == 1.0
        assert math.isclose(top_level_seconds(snap, scheme="b"), 2.0)

    def test_render_attribution_empty(self):
        assert "no stages" in render_attribution({"stages": []})
