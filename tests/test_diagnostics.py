"""Fragmentation diagnostics."""

import dataclasses

import pytest

from repro.core.diagnostics import (
    compare_fragmentation,
    default_probe_sizes,
    fragmentation_snapshot,
)
from repro.core.registry import make_allocator
from repro.topology.fattree import FatTree


@pytest.fixture
def tree():
    return FatTree.from_radix(8)


class TestCanAllocate:
    def test_probe_does_not_claim(self, tree):
        allocator = make_allocator("jigsaw", tree)
        assert allocator.can_allocate(50)
        assert allocator.state.is_idle()
        assert allocator.free_nodes == tree.num_nodes

    def test_probe_does_not_pollute_stats(self, tree):
        allocator = make_allocator("jigsaw", tree)
        allocator.can_allocate(10)
        assert allocator.stats.attempts == 0

    def test_probe_tracks_feasibility(self, tree):
        allocator = make_allocator("jigsaw", tree)
        # fragment: one node taken on each leaf
        for leaf in range(tree.num_leaves):
            allocator.state.claim(100 + leaf, [leaf * tree.m1])
        assert allocator.can_allocate(3)
        assert not allocator.can_allocate(13)  # no fully-free leaves left

    def test_invalid_size(self, tree):
        with pytest.raises(ValueError):
            make_allocator("jigsaw", tree).can_allocate(0)


class TestSnapshot:
    def test_empty_machine(self, tree):
        allocator = make_allocator("jigsaw", tree)
        snap = fragmentation_snapshot(allocator)
        assert snap.free_nodes == tree.num_nodes
        assert snap.padding_nodes == 0
        assert snap.fully_free_leaves == tree.num_leaves
        assert snap.shard_nodes == 0
        assert snap.largest_placeable == tree.num_nodes
        assert snap.unusable_free_nodes == 0

    def test_laas_padding_counted(self, tree):
        allocator = make_allocator("laas", tree)
        jid = 100
        for pod in range(tree.num_pods):
            for leaf in list(tree.leaves_of_pod(pod))[:2]:
                jid += 1
                allocator.state.claim(jid, list(tree.nodes_of_leaf(leaf)))
        allocator.allocate(1, 11)  # rounded to 12: one padding node
        snap = fragmentation_snapshot(allocator, probe_sizes=[1, 4])
        assert snap.padding_nodes == 1
        assert snap.internal_fragmentation_fraction == pytest.approx(1 / 128)

    def test_external_fragmentation_visible(self, tree):
        allocator = make_allocator("jigsaw", tree)
        for leaf in range(tree.num_leaves):
            allocator.state.claim(
                100 + leaf, list(tree.nodes_of_leaf(leaf))[: tree.m1 - 1]
            )
        snap = fragmentation_snapshot(allocator)
        assert snap.free_nodes == tree.num_leaves
        assert snap.fully_free_leaves == 0
        assert snap.shard_nodes == tree.num_leaves
        # One free node per leaf: a job can still spread one-node-per-leaf
        # across a single pod (nL=1, LT<=m2), so the largest placeable job
        # is the pod's leaf count; everything bigger needs fully-free
        # leaves (three-level) and is out of reach.
        assert snap.largest_placeable == tree.m2
        assert snap.unusable_free_nodes == tree.num_leaves - tree.m2

    def test_pod_free_descending(self, tree):
        allocator = make_allocator("jigsaw", tree)
        allocator.allocate(1, 20)
        snap = fragmentation_snapshot(allocator, probe_sizes=[1])
        assert list(snap.pod_free) == sorted(snap.pod_free, reverse=True)
        assert sum(snap.pod_free) == snap.free_nodes

    def test_summary_text(self, tree):
        snap = fragmentation_snapshot(make_allocator("jigsaw", tree),
                                      probe_sizes=[1, 128])
        text = snap.summary()
        assert "fully-free leaves" in text
        assert "largest placeable" in text

    def test_stats_copied_before_probe_sweep(self, tree):
        allocator = make_allocator("jigsaw", tree)
        allocator.allocate(1, 20)
        before = dataclasses.replace(allocator.stats)
        snap = fragmentation_snapshot(allocator)
        assert snap.stats == before
        assert snap.stats is not allocator.stats
        assert snap.stats.summary() in snap.summary()

    def test_compare(self, tree):
        allocs = [make_allocator(n, tree) for n in ("jigsaw", "baseline")]
        for a in allocs:
            a.allocate(1, 20)
        snaps = compare_fragmentation(allocs, probe_sizes=[1, 50])
        assert set(snaps) == {"jigsaw", "baseline"}


def test_default_probe_sizes():
    sizes = default_probe_sizes(128)
    assert sizes[0] == 1
    assert sizes[-1] == 128
    assert list(sizes) == sorted(set(sizes))
