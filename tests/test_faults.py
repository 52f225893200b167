"""Fault injection: allocators schedule around degraded hardware."""

import random

import pytest

from repro.core.conditions import check_allocation
from repro.core.registry import make_allocator
from repro.topology.fattree import FatTree, LinkId, SpineLinkId
from repro.topology.faults import FaultInjector
from repro.topology.state import AllocationError


@pytest.fixture
def tree():
    return FatTree.from_radix(8)


class TestBasicFaults:
    def test_failed_node_never_allocated(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        injector.fail_node(5)
        for jid in range(1, 40):
            alloc = allocator.allocate(jid, 4)
            if alloc is None:
                break
            assert 5 not in alloc.nodes

    def test_failed_link_avoided(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        injector.fail_leaf_link(LinkId(0, 0))
        alloc = allocator.allocate(1, 8)  # wants 2 full leaves
        assert LinkId(0, 0) not in alloc.leaf_links
        assert check_allocation(tree, alloc) == []

    def test_failed_leaf_switch_blocks_its_nodes(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        injector.fail_leaf_switch(3)
        total = 0
        for jid in range(1, 100):
            alloc = allocator.allocate(jid, 4)
            if alloc is None:
                break
            assert not set(alloc.nodes) & set(tree.nodes_of_leaf(3))
            total += 4
        assert total == tree.num_nodes - tree.m1

    def test_failed_l2_switch_shrinks_common_sets(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        injector.fail_l2_switch(0, 2)
        alloc = allocator.allocate(1, 8)  # in pod 0 if placed there
        for leaf, i in alloc.leaf_links:
            if tree.pod_of_leaf(leaf) == 0:
                assert i != 2
        assert check_allocation(tree, alloc) == []

    def test_failed_spine_blocks_cross_pod_links(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        injector.fail_spine(0, 1)
        alloc = allocator.allocate(1, 20)  # three-level: uses spines
        for pod, i, j in alloc.spine_links:
            assert (i, j) != (0, 1)
        assert check_allocation(tree, alloc) == []

    def test_cannot_fail_owned_resource(self, tree):
        allocator = make_allocator("jigsaw", tree)
        alloc = allocator.allocate(1, 4)
        injector = FaultInjector(allocator)
        with pytest.raises(Exception):
            injector.fail_node(alloc.nodes[0])


class TestRepair:
    def test_repair_restores_capacity(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        ticket = injector.fail_leaf_switch(0)
        assert allocator.free_nodes == tree.num_nodes - tree.m1
        injector.repair(ticket)
        assert allocator.free_nodes == tree.num_nodes
        allocator.state.audit()

    def test_double_repair_rejected(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        ticket = injector.fail_node(0)
        injector.repair(ticket)
        with pytest.raises(ValueError):
            injector.repair(ticket)

    def test_repair_all(self, tree):
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        injector.fail_node(0)
        injector.fail_spine(1, 1)
        injector.fail_leaf_link(LinkId(5, 2))
        assert injector.repair_all() == 3
        assert allocator.state.is_idle()
        assert injector.active_faults == []


class TestWithLinkSharing:
    def test_lcs_bandwidth_blocked_by_fault(self, tree):
        allocator = make_allocator("lc+s", tree)
        injector = FaultInjector(allocator)
        leaf, _spine, busy = allocator.links.masks(0.5)
        injector.fail_leaf_link(LinkId(0, 0))
        # the capacity state shows no headroom on the failed link, in a
        # view kept across the fault and in one built after it
        assert not leaf[0] & 1 and busy[0] & 1
        assert not allocator.links.masks(1.0)[0][0] & 1
        ticket = injector.active_faults[0]
        injector.repair(ticket)
        assert leaf[0] & 1 and not busy[0]
        assert allocator.links.masks(1.0)[0][0] & 1


class TestInjectorBugfixes:
    """Regression tests for the three FaultInjector correctness fixes."""

    def test_failed_inject_rolls_back_ownership_claim(self, tree):
        # An LC+S job carries fractional traffic on its leaf links, so
        # failing one must be rejected — and the rejection must not
        # leak the ownership claim made before the bandwidth claim.
        allocator = make_allocator("lc+s", tree)
        alloc = allocator.allocate(1, 2 * tree.m1)  # spans >= 2 leaves
        assert alloc is not None and alloc.leaf_links
        injector = FaultInjector(allocator)
        link = alloc.leaf_links[0]
        with pytest.raises(Exception) as exc:
            injector.fail_leaf_link(link)
        assert "drain" in str(exc.value)
        assert injector.active_faults == []
        allocator.state.audit()
        # The definitive no-leak check: once the job drains, the same
        # link is failable.  A leaked ownership claim would block it.
        allocator.release(1)
        ticket = injector.fail_leaf_link(link)
        assert ticket.bw_claimed
        injector.repair(ticket)
        assert allocator.state.is_idle()

    def test_inject_invalidates_feasibility_cache(self, tree):
        # Link-only faults change no node count, so the free-node
        # watermark cannot catch them; injection must flush explicitly.
        allocator = make_allocator("jigsaw", tree)
        assert allocator.allocate(1, 4) is not None
        assert not allocator.can_allocate(tree.num_nodes)
        assert allocator.feasibility_cache_size == 1
        injector = FaultInjector(allocator)
        injector.fail_spine_link(SpineLinkId(0, 0, 0))
        assert allocator.feasibility_cache_size == 0
        misses = allocator.stats.cache_misses
        assert not allocator.can_allocate(tree.num_nodes)
        assert allocator.stats.cache_misses == misses + 1  # re-derived

    def test_repair_idempotent_after_partial_release(self, tree):
        # Simulate a half-completed repair: the bandwidth claim is
        # already gone.  Repair must still finish (tolerant releases,
        # ticket deleted last) instead of sticking half-repaired.
        allocator = make_allocator("lc+s", tree)
        injector = FaultInjector(allocator)
        ticket = injector.fail_leaf_link(LinkId(0, 0))
        assert ticket.bw_claimed
        allocator.links.release(ticket.fault_id)
        injector.repair(ticket)  # must not raise
        assert injector.active_faults == []
        assert allocator.links.masks(0.5)[0][0] & 1
        assert allocator.state.is_idle()
        allocator.state.audit()


class TestOutOfRangeTargets:
    """A target outside the cluster is rejected before anything is
    claimed.  Each of these used to be accepted silently, taking the
    last leaf's or the last pod's cable while the ticket named -1."""

    @pytest.mark.parametrize("scheme", ["jigsaw", "lc+s"])
    @pytest.mark.parametrize(
        "kind,target",
        [("leaf-link", (-1, 0)), ("spine-link", (-1, 0, 0)), ("spine", (-1, 0))],
        ids=["leaf-link", "spine-link", "spine"],
    )
    def test_negative_target_rejected(self, tree, scheme, kind, target):
        allocator = make_allocator(scheme, tree)
        injector = FaultInjector(allocator)
        with pytest.raises(AllocationError, match="outside the cluster"):
            injector.inject(kind, target)
        assert injector.active_faults == []
        state = allocator.state
        assert state.is_idle()
        assert state.leaf_up_mask == [(1 << tree.l2_per_pod) - 1] * tree.num_leaves
        assert state.spine_free_mask == [
            [(1 << tree.spines_per_group) - 1] * tree.l2_per_pod
        ] * tree.num_pods
        if scheme == "lc+s":
            assert not any(allocator.links.leaf_bw)
            assert not any(allocator.links.spine_bw)
        state.audit()


class TestDegradedOperation:
    def test_conditions_hold_under_random_faults(self, tree):
        rng = random.Random(4)
        allocator = make_allocator("jigsaw", tree)
        injector = FaultInjector(allocator)
        for _ in range(5):
            injector.fail_node(rng.randrange(tree.num_nodes // 2) * 2 + 1)
        injector.fail_spine(2, 0)
        injector.fail_l2_switch(3, 1)
        placed = 0
        for jid in range(1, 200):
            size = rng.choice([2, 3, 5, 8, 13, 20])
            alloc = allocator.allocate(jid, size)
            if alloc is None:
                continue
            placed += 1
            assert check_allocation(tree, alloc) == []
        allocator.state.audit()
        assert placed > 10
