"""LC/LC+S search internals on crafted states."""

import pytest

from repro.core.conditions import check_allocation
from repro.core.lcs import LeastConstrainedAllocator
from repro.core.shapes import ThreeLevelShape
from repro.topology.fattree import FatTree, LinkId, SpineLinkId


@pytest.fixture
def tree():
    return FatTree.from_radix(8)


def leave_free(allocator, spec):
    """Occupy everything except ``spec[pod][k]`` free nodes per leaf."""
    tree = allocator.tree
    jid = 500
    for pod in range(tree.num_pods):
        per_leaf = spec.get(pod, {})
        for k, leaf in enumerate(tree.leaves_of_pod(pod)):
            keep = per_leaf.get(k, 0)
            nodes = list(tree.nodes_of_leaf(leaf))[keep:]
            if nodes:
                jid += 1
                allocator.state.claim(jid, nodes)


class TestGeneralThreeLevel:
    def test_lone_remainder_leaf_solution(self, tree):
        """LrT = 0: the remainder pod holds only the remainder leaf."""
        a = LeastConstrainedAllocator(tree)
        # pods 0,1: 2 free nodes on each of 2 leaves; pod 2: 1 free node
        leave_free(a, {0: {0: 2, 1: 2}, 1: {0: 2, 1: 2}, 2: {0: 1}})
        result = a.allocate(1, 9)  # T=2 x (2x2) + nrT=1
        assert result is not None
        shape = result.shape
        assert isinstance(shape, ThreeLevelShape)
        assert shape.LrT == 0 and shape.nrL == 1
        assert check_allocation(tree, result) == []

    def test_common_s_across_pods_required(self, tree):
        """Pods whose free-uplink index sets cannot agree on a common S
        are rejected even with enough nodes."""
        a = LeastConstrainedAllocator(tree, share_links=False)
        leave_free(a, {0: {0: 2, 1: 2}, 1: {0: 2, 1: 2}})
        # burn uplinks so pod 0 leaves can only use {0,1} and pod 1
        # leaves only {2,3}: no common S of size 2 exists
        burn = []
        for leaf in [tree.first_leaf_of_pod(0), tree.first_leaf_of_pod(0) + 1]:
            burn += [LinkId(leaf, 2), LinkId(leaf, 3)]
        for leaf in [tree.first_leaf_of_pod(1), tree.first_leaf_of_pod(1) + 1]:
            burn += [LinkId(leaf, 0), LinkId(leaf, 1)]
        a.state.claim(900, [], burn)
        assert a.allocate(1, 8) is None

    def test_common_s_found_when_sets_overlap(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=False)
        leave_free(a, {0: {0: 2, 1: 2}, 1: {0: 2, 1: 2}})
        # pod 0 leaves restricted to {1,2,3}; pod 1 leaves to {0,1,2}:
        # common S = {1,2} works
        burn = [LinkId(tree.first_leaf_of_pod(0), 0),
                LinkId(tree.first_leaf_of_pod(0) + 1, 0),
                LinkId(tree.first_leaf_of_pod(1), 3),
                LinkId(tree.first_leaf_of_pod(1) + 1, 3)]
        a.state.claim(900, [], burn)
        result = a.allocate(1, 8)
        assert result is not None
        s_indices = {i for _, i in result.leaf_links}
        assert s_indices <= {1, 2}
        assert check_allocation(tree, result) == []

    def test_bandwidth_gates_link_choice(self, tree):
        """With sharing, a saturated link is avoided, not blocked on."""
        a = LeastConstrainedAllocator(tree, share_links=True)
        # saturate leaf 0's uplink 0 fully (4.0 of 4.0 capacity)
        a.links.claim(900, [LinkId(0, 0)], [], need=4.0)
        result = a.allocate(1, 8)  # 2 leaves x 4: needs all uplinks/leaf?
        # nL=4 needs 4 uplinks per leaf; leaf 0 has only 3 with headroom,
        # so leaf 0 cannot be a full leaf of an nL=4 shape
        if result is not None:
            counts = result.leaf_node_counts(tree)
            assert counts.get(0, 0) < 4 or LinkId(0, 0) not in result.leaf_links

    @pytest.mark.parametrize("burnt, viable", [(2, True), (3, False)])
    def test_spine_viability_prunes_a_pod_set(self, tree, burnt, viable):
        """A pod joins the candidate set only if ``nL`` of the set's
        common L2 indices can still carry ``LT`` common spine links;
        otherwise the search does not descend to the remainder step."""
        a = LeastConstrainedAllocator(tree, share_links=False)
        leave_free(a, {0: {0: 2, 1: 2}, 1: {0: 2, 1: 2}})
        # Pod 1 keeps one free spine link at each of its first `burnt`
        # L2 indices: too few for LT = 2 common links there.
        a.state.claim(900, [], [], [
            SpineLinkId(1, i, j)
            for i in range(burnt) for j in range(1, tree.spines_per_group)
        ])
        finishes = []
        finish = a._finish_general

        def spy(*args):
            finishes.append(args)
            return finish(*args)

        a._finish_general = spy
        shape = ThreeLevelShape(T=2, LT=2, nL=2, LrT=0, nrL=0)
        found = a._find_three_level(shape)
        assert (found is not None) == viable
        assert bool(finishes) == viable
        if viable:
            _full, _rem, (s, _sr, _s_star, _s_star_r) = found
            assert s == [2, 3]

    def test_solutions_per_pod_capped(self, tree):
        a = LeastConstrainedAllocator(tree, max_solutions_per_pod=3)
        sols = a._find_all_in_pod(0, LT=2, nL=1, nrL=0)
        assert 0 < len(sols) <= 3

    def test_remainder_only_solutions_best_fit(self, tree):
        a = LeastConstrainedAllocator(tree)
        leave_free(a, {3: {0: 3, 1: 1}})
        from repro.core.shapes import ThreeLevelShape as TLS

        shape = TLS(T=2, LT=2, nL=2, LrT=0, nrL=1)
        sols = a._remainder_only_solutions(3 , shape)
        assert sols
        # best fit: the 1-free leaf ranks before the 3-free leaf
        assert sols[0].rem_leaf == tree.first_leaf_of_pod(3) + 1
