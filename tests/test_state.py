"""ClusterState: isolation invariant, summaries, bitmask helpers."""

import pytest

from repro.topology.fattree import FatTree, LinkId, SpineLinkId
from repro.topology.state import (
    AllocationError,
    ClusterState,
    LinkCapacityState,
    indices_of,
    lowest_bits,
    mask_of,
)


class TestMaskHelpers:
    def test_mask_roundtrip(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert indices_of(0b100101) == (0, 2, 5)
        assert indices_of(0) == ()
        assert mask_of([]) == 0

    def test_lowest_bits(self):
        assert lowest_bits(0b110110, 2) == 0b000110
        assert lowest_bits(0b110110, 4) == 0b110110
        assert lowest_bits(0b1, 1) == 1
        assert lowest_bits(0b111, 0) == 0

    def test_lowest_bits_insufficient(self):
        with pytest.raises(ValueError):
            lowest_bits(0b101, 3)


@pytest.fixture
def tree():
    return FatTree.from_radix(8)


@pytest.fixture
def state(tree):
    return ClusterState(tree)


class TestClaimRelease:
    def test_initially_idle_and_free(self, state, tree):
        assert state.is_idle()
        assert state.free_nodes_total == tree.num_nodes
        assert all(state.leaf_is_fully_free(l) for l in range(tree.num_leaves))
        state.audit()

    def test_claim_updates_summaries(self, state, tree):
        state.claim(1, nodes=[0, 1], leaf_links=[LinkId(0, 0), LinkId(0, 1)])
        assert state.free_nodes_total == tree.num_nodes - 2
        assert state.free_nodes_on_leaf(0) == tree.m1 - 2
        assert not state.leaf_is_fully_free(0)
        assert state.full_free_leaves[0] == tree.m2 - 1
        assert not state.leaf_up_mask[0] & 0b11
        state.audit()

    def test_release_restores_everything(self, state, tree):
        state.claim(
            1,
            nodes=[0, 1, 4],
            leaf_links=[LinkId(0, 2), LinkId(1, 2)],
            spine_links=[SpineLinkId(0, 2, 1)],
        )
        rec = state.release(1)
        assert rec.nodes == (0, 1, 4)
        assert state.is_idle()
        assert state.free_nodes_total == tree.num_nodes
        assert state.leaf_up_mask[0] == (1 << tree.m1) - 1
        assert state.spine_free_mask[0][2] == (1 << tree.m2) - 1
        state.audit()

    def test_double_claim_of_node_rejected(self, state):
        state.claim(1, nodes=[0])
        with pytest.raises(AllocationError):
            state.claim(2, nodes=[0])
        state.audit()

    def test_double_claim_of_link_rejected(self, state):
        state.claim(1, nodes=[0], leaf_links=[LinkId(0, 0)])
        with pytest.raises(AllocationError):
            state.claim(2, nodes=[1], leaf_links=[LinkId(0, 0)])

    def test_double_claim_of_spine_link_rejected(self, state):
        state.claim(1, nodes=[0], spine_links=[SpineLinkId(0, 0, 0)])
        with pytest.raises(AllocationError):
            state.claim(2, nodes=[1], spine_links=[SpineLinkId(0, 0, 0)])

    def test_same_job_cannot_claim_twice(self, state):
        state.claim(1, nodes=[0])
        with pytest.raises(AllocationError):
            state.claim(1, nodes=[1])

    def test_duplicates_within_claim_rejected(self, state):
        with pytest.raises(AllocationError):
            state.claim(1, nodes=[0, 0])
        with pytest.raises(AllocationError):
            state.claim(1, nodes=[0], leaf_links=[LinkId(0, 0), LinkId(0, 0)])
        with pytest.raises(AllocationError):
            state.claim(
                1, nodes=[0],
                spine_links=[SpineLinkId(0, 0, 0), SpineLinkId(0, 0, 0)],
            )

    def test_failed_claim_leaves_state_untouched(self, state, tree):
        state.claim(1, nodes=[0])
        before = state.free_nodes_total
        with pytest.raises(AllocationError):
            state.claim(2, nodes=[1, 0])  # node 0 already taken
        assert state.free_nodes_total == before
        assert state.node_owner[1] == -1
        state.audit()

    def test_release_unknown_job_rejected(self, state):
        with pytest.raises(AllocationError):
            state.release(42)

    def test_free_node_ids_lowest_first(self, state):
        state.claim(1, nodes=[0, 2])
        assert state.free_node_ids(0, 2) == (1, 3)
        with pytest.raises(AllocationError):
            state.free_node_ids(0, 3)
        assert state.free_node_ids(0, 0) == ()

    def test_resident_jobs_tracking(self, state):
        state.claim(5, nodes=[0])
        state.claim(9, nodes=[1])
        assert set(state.resident_jobs()) == {5, 9}
        assert state.num_jobs_resident == 2
        assert state.claim_record(5).nodes == (0,)


def _ownership_snapshot(state):
    return (
        list(state.node_owner),
        list(state.leaf_up_mask),
        [list(row) for row in state.spine_free_mask],
        state.free_nodes_total,
        state.resident_jobs(),
    )


# Radix 8: 32 leaves, 8 pods, 4 L2 switches per pod, 4 spines per group.
# A negative component used to wrap to the last leaf's, pod's or
# switch's cable; a past-the-end one raised a raw IndexError or
# reported a misleading "not free".
BAD_LEAF_LINKS = {
    "leaf=-1": LinkId(-1, 0),
    "leaf=32": LinkId(32, 0),
    "l2=-1": LinkId(0, -1),
    "l2=4": LinkId(0, 4),
}
BAD_SPINE_LINKS = {
    "pod=-1": SpineLinkId(-1, 0, 0),
    "pod=8": SpineLinkId(8, 0, 0),
    "l2=-1": SpineLinkId(0, -1, 0),
    "l2=4": SpineLinkId(0, 4, 0),
    "spine=-1": SpineLinkId(0, 0, -1),
    "spine=4": SpineLinkId(0, 0, 4),
}


class TestLinkIdBounds:
    @pytest.mark.parametrize(
        "link", BAD_LEAF_LINKS.values(), ids=BAD_LEAF_LINKS.keys()
    )
    def test_leaf_link_out_of_range(self, state, link):
        state.claim(1, nodes=[5], leaf_links=[LinkId(1, 0)])
        before = _ownership_snapshot(state)
        with pytest.raises(AllocationError, match="outside the cluster"):
            state.claim(2, nodes=[0], leaf_links=[LinkId(0, 1), link])
        assert _ownership_snapshot(state) == before
        state.audit()

    @pytest.mark.parametrize(
        "link", BAD_SPINE_LINKS.values(), ids=BAD_SPINE_LINKS.keys()
    )
    def test_spine_link_out_of_range(self, state, link):
        state.claim(1, nodes=[5], spine_links=[SpineLinkId(7, 3, 3)])
        before = _ownership_snapshot(state)
        with pytest.raises(AllocationError, match="outside the cluster"):
            state.claim(
                2, nodes=[0], leaf_links=[LinkId(0, 1)],
                spine_links=[SpineLinkId(0, 0, 0), link],
            )
        assert _ownership_snapshot(state) == before
        state.audit()

    def test_last_cables_still_claimable(self, state, tree):
        state.claim(
            1,
            nodes=[tree.num_nodes - 1],
            leaf_links=[LinkId(tree.num_leaves - 1, tree.l2_per_pod - 1)],
            spine_links=[SpineLinkId(
                tree.num_pods - 1, tree.l2_per_pod - 1,
                tree.spines_per_group - 1,
            )],
        )
        state.audit()

    @pytest.mark.parametrize(
        "leaf_links,spine_links",
        [([LinkId(-1, 0)], []), ([], [SpineLinkId(-1, 0, 0)]),
         ([LinkId(-1, 0)], [SpineLinkId(-1, 0, 0)]),
         ([LinkId(0, 4)], []), ([], [SpineLinkId(0, 0, 4)])],
        ids=["leaf", "spine", "both", "l2-past-end", "spine-past-end"],
    )
    def test_capacity_claim_out_of_range(self, tree, leaf_links, spine_links):
        links = LinkCapacityState(tree)
        with pytest.raises(AllocationError, match="outside the cluster"):
            links.claim(1, leaf_links, spine_links, 1.0)
        assert not links.leaf_bw.any() and not links.spine_bw.any()
        with pytest.raises(AllocationError):
            links.release(1)  # nothing was recorded either


class TestAudit:
    def test_audit_detects_corruption(self, state):
        state.claim(1, nodes=[0])
        state.free_nodes_total += 1  # corrupt on purpose
        with pytest.raises(AllocationError):
            state.audit()

    def test_audit_detects_leaf_count_drift(self, state):
        state.claim(1, nodes=[0])
        state.free_per_leaf[0] += 1
        with pytest.raises(AllocationError):
            state.audit()


class TestLinkCapacityState:
    def test_capacity_is_capped_peak(self, tree):
        links = LinkCapacityState(tree, peak_bandwidth=5.0, cap_fraction=0.8)
        assert links.capacity == pytest.approx(4.0)

    def test_masks_reflect_headroom(self, tree):
        links = LinkCapacityState(tree)
        full = (1 << tree.l2_per_pod) - 1
        assert links.leaf_mask(0, 1.0) == full
        links.claim(1, [LinkId(0, 0)], [], need=3.5)
        assert not links.leaf_mask(0, 1.0) & 1  # link 0 lacks headroom
        assert links.leaf_mask(0, 0.5) & 1  # but 0.5 still fits

    def test_sharing_up_to_cap(self, tree):
        links = LinkCapacityState(tree)
        links.claim(1, [LinkId(0, 0)], [], need=2.0)
        links.claim(2, [LinkId(0, 0)], [], need=2.0)
        with pytest.raises(Exception):
            links.claim(3, [LinkId(0, 0)], [], need=0.5)
        links.release(1)
        links.claim(3, [LinkId(0, 0)], [], need=0.5)

    def test_spine_masks(self, tree):
        links = LinkCapacityState(tree)
        links.claim(1, [], [SpineLinkId(0, 0, 1)], need=4.0)
        assert not links.spine_mask(0, 0, 1.0) & 0b10
        assert links.spine_mask(0, 0, 1.0) & 0b01

    def test_release_unknown_rejected(self, tree):
        links = LinkCapacityState(tree)
        with pytest.raises(Exception):
            links.release(7)
