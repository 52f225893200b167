"""ClusterState: isolation invariant, summaries, bitmask helpers;
LinkCapacityState: bandwidth sharing and its headroom views."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_allocator
from repro.topology.fattree import FatTree, LinkId, SpineLinkId
from repro.topology.state import (
    MAX_HEADROOM_VIEWS,
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
        assert state.free_per_leaf == [tree.m1] * tree.num_leaves
        state.audit()

    def test_claim_updates_summaries(self, state, tree):
        state.claim(1, nodes=[0, 1], leaf_links=[LinkId(0, 0), LinkId(0, 1)])
        assert state.free_nodes_total == tree.num_nodes - 2
        assert state.free_per_leaf[0] == tree.m1 - 2
        assert not state.leaf_bucket_row(0)[tree.m1] & 1
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
        assert len(state.resident_jobs()) == 2
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
        assert not any(links.leaf_bw) and not any(links.spine_bw)
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
        leaf, _spine, busy = links.masks(1.0)
        assert leaf == [full] * tree.num_leaves
        assert busy == [0] * tree.num_pods
        links.claim(1, [LinkId(0, 0)], [], need=3.5)
        # the kept 1.0 view follows the claim ...
        assert not leaf[0] & 1  # link 0 lacks headroom
        assert busy[0] == 1
        # ... and a view first built after it sees it too
        leaf, _spine, busy = links.masks(0.5)
        assert leaf[0] & 1  # but 0.5 still fits
        assert busy == [0] * tree.num_pods

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
        _leaf, spine, busy = links.masks(1.0)
        assert not spine[0][0] & 0b10
        assert spine[0][0] & 0b01
        assert busy == [0] * tree.num_pods  # spine links make no leaf busy
        links.release(1)
        assert spine[0][0] & 0b10

    def test_release_unknown_rejected(self, tree):
        links = LinkCapacityState(tree)
        with pytest.raises(Exception):
            links.release(7)

    @pytest.mark.parametrize(
        "leaf_links,spine_links",
        [([LinkId(0, 0)] * 2, []), ([], [SpineLinkId(0, 0, 0)] * 2),
         ([LinkId(0, 0)] * 2, [SpineLinkId(0, 0, 0)] * 2)],
        ids=["leaf", "spine", "both"],
    )
    def test_claim_rejects_repeated_link(self, tree, leaf_links, spine_links):
        """A link named twice was charged twice: 2 x 2.5 GB/s left 5.0
        GB/s on a link capped at 4.0, and nothing was raised.  Like
        ``ClusterState.claim``, the claim must fail untouched."""
        links = LinkCapacityState(tree)
        leaf, spine, busy = links.masks(1.0)
        before = (list(leaf), [list(row) for row in spine], list(busy))
        with pytest.raises(AllocationError, match="duplicate"):
            links.claim(1, leaf_links, spine_links, 2.5)
        assert not any(links.leaf_bw) and not any(links.spine_bw)
        assert (leaf, spine, busy) == before
        with pytest.raises(AllocationError):
            links.release(1)  # nothing was recorded either

    @pytest.mark.parametrize("radix", [8, 18])
    def test_pod_masks_match_per_link_reference(self, radix):
        """Every row and bit of the per-pod masks against usage summed
        per link from the claims themselves."""
        tree = FatTree.from_radix(radix)
        l2, spines = tree.l2_per_pod, tree.spines_per_group
        links = LinkCapacityState(tree)
        # 0.5 and 2.0 are kept through every claim; 1.0 is built after
        links.masks(0.5)
        links.masks(2.0)
        rng = random.Random(radix)
        used = {}
        for job in range(40 * tree.num_pods):
            leaf = LinkId(rng.randrange(tree.num_leaves), rng.randrange(l2))
            spine = SpineLinkId(
                rng.randrange(tree.num_pods), rng.randrange(l2),
                rng.randrange(spines),
            )
            need = rng.choice([0.5, 1.0, 1.5, 2.0])
            try:
                links.claim(job, [leaf], [spine], need)
            except AllocationError:
                continue
            for link in (leaf, spine):
                used[link] = used.get(link, 0.0) + need
        limit = links.capacity + 1e-9
        for need in (0.5, 1.0, 2.0):
            leaf, spine, _busy = links.masks(need)
            for pod in range(tree.num_pods):
                first = tree.first_leaf_of_pod(pod)
                assert leaf[first : first + tree.m2] == [
                    mask_of(
                        i for i in range(l2)
                        if used.get((first + j, i), 0.0) + need <= limit
                    )
                    for j in range(tree.m2)
                ]
                assert spine[pod] == [
                    mask_of(
                        k for k in range(spines)
                        if used.get((pod, i, k), 0.0) + need <= limit
                    )
                    for i in range(l2)
                ]


# ----------------------------------------------------------------------
# Headroom views: kept current by claim and release
# ----------------------------------------------------------------------
#: the paper's four bandwidth classes (GB/s per link)
CLASS_NEEDS = (0.5, 1.0, 1.5, 2.0)
#: needs whose sums round: releasing 0.7 and then 0.1 from a link
#: holding both leaves about -1.4e-16, which release clamps to 0.0
CLAMP_NEEDS = (0.7, 0.1)


def _view_from_usage(links, need):
    """A headroom view recounted link by link from the usage lists."""
    tree = links.tree
    l2, spines, m2 = tree.l2_per_pod, tree.spines_per_group, tree.m2
    limit = links.capacity + 1e-9
    leaf = [
        mask_of(
            i for i in range(l2) if links.leaf_bw[lf * l2 + i] + need <= limit
        )
        for lf in range(tree.num_leaves)
    ]
    spine = [
        [
            mask_of(
                j for j in range(spines)
                if links.spine_bw[(pod * l2 + i) * spines + j] + need <= limit
            )
            for i in range(l2)
        ]
        for pod in range(tree.num_pods)
    ]
    full = (1 << l2) - 1
    busy = [
        mask_of(j for j in range(m2) if leaf[pod * m2 + j] != full)
        for pod in range(tree.num_pods)
    ]
    return leaf, spine, busy


def _random_links(rng, tree):
    """A few leaf and spine links of pods 0-1, so that usage piles up
    on a small set of cables and reaches the cap."""
    m2, l2 = tree.m2, tree.l2_per_pod
    leaf_links = {
        LinkId(rng.randrange(2 * m2), rng.randrange(l2))
        for _ in range(rng.randint(0, 5))
    }
    spine_links = {
        SpineLinkId(rng.randrange(2), rng.randrange(l2),
                    rng.randrange(tree.spines_per_group))
        for _ in range(rng.randint(0, 3))
    }
    return sorted(leaf_links), sorted(spine_links)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    late=st.integers(min_value=0, max_value=60),
)
def test_views_track_claims_and_releases(seed, late):
    """Random claim/release sequences (class needs, the rounding needs
    whose releases hit the clamp, fault-style claims at ``capacity``):
    after every step each kept view equals a recount from the usage
    lists, and a view first requested mid-sequence, on a twin fed the
    same steps, equals the one kept since the start."""
    tree = FatTree.from_radix(8)
    needs = CLASS_NEEDS + CLAMP_NEEDS
    kept, twin = LinkCapacityState(tree), LinkCapacityState(tree)
    views = {need: kept.masks(need) for need in needs}
    rng = random.Random(seed)
    live = []
    for step in range(60):
        if live and rng.random() < 0.35:
            job = live.pop(rng.randrange(len(live)))
            kept.release(job)
            twin.release(job)
        else:
            leaf_links, spine_links = _random_links(rng, tree)
            need = rng.choice(needs + (kept.capacity,))
            try:
                kept.claim(step, leaf_links, spine_links, need)
            except AllocationError:
                with pytest.raises(AllocationError):
                    twin.claim(step, leaf_links, spine_links, need)
            else:
                twin.claim(step, leaf_links, spine_links, need)
                live.append(step)
        full = (1 << tree.l2_per_pod) - 1
        for need, view in views.items():
            assert view == _view_from_usage(kept, need), (step, need)
            leaf, _spine, busy = view
            for pod in range(tree.num_pods):
                lo = pod * tree.m2
                assert busy[pod] == mask_of(
                    j for j in range(tree.m2) if leaf[lo + j] != full
                )
            if step >= late:
                assert twin.masks(need) == view, (step, need)


def test_release_clamp_keeps_views_exact(tree):
    links = LinkCapacityState(tree)
    leaf, _spine, busy = links.masks(4.0)
    link = LinkId(0, 0)
    links.claim(1, [link], [], 0.7)
    links.claim(2, [link], [], 0.1)
    assert not leaf[0] & 1 and busy[0] == 1
    links.release(1)
    links.release(2)
    # 0.7 + 0.1 - 0.7 - 0.1 is negative in IEEE-754; the clamp makes
    # it 0.0, so the whole capacity fits again
    assert 0.7 + 0.1 - 0.7 - 0.1 < 0.0
    assert links.leaf_bw[0] == 0.0
    assert leaf[0] & 1 and busy[0] == 0
    assert (leaf, _spine, busy) == _view_from_usage(links, 4.0)


def test_many_needs_keep_views_bounded(tree):
    """Fifty distinct needs: the view set stays within its bound, and
    placements, steps and aborts equal those of an allocator that
    rebuilds its view for every search."""
    alloc = make_allocator("lc+s", tree)
    ref = make_allocator("lc+s", tree)
    ref.links.masks = ref.links._build_view  # a fresh view per search
    rng = random.Random(3)
    needs = [0.04 * k for k in range(1, 51)]
    live = []
    for job in range(300):
        if live and rng.random() < 0.4:
            victim = live.pop(rng.randrange(len(live)))
            alloc.release(victim)
            ref.release(victim)
            continue
        size, need = rng.randint(1, 40), rng.choice(needs)
        got = alloc.allocate(job, size, bw_need=need)
        want = ref.allocate(job, size, bw_need=need)
        assert got == want, job
        if got is not None:
            live.append(job)
        assert len(alloc.links._views) <= MAX_HEADROOM_VIEWS
    assert len(alloc.links._views) == MAX_HEADROOM_VIEWS
    assert not ref.links._views
    assert alloc.stats.backtrack_steps == ref.stats.backtrack_steps
    assert alloc.stats.budget_aborts == ref.stats.budget_aborts
