"""LC / LC+S: link sharing, bandwidth caps, search budget."""

import pytest

from repro.core.conditions import check_allocation
from repro.core.lcs import LeastConstrainedAllocator
from repro.core.shapes import ThreeLevelShape
from repro.topology.fattree import FatTree


@pytest.fixture
def tree():
    return FatTree.from_radix(8)


class TestLinkSharing:
    def test_shared_links_overlap(self, tree):
        """Two jobs with modest bandwidth needs may use the same links —
        that is the whole point of LC+S."""
        a = LeastConstrainedAllocator(tree, share_links=True)
        a1 = a.allocate(1, 8, bw_need=1.0)
        a2 = a.allocate(2, 8, bw_need=1.0)
        assert a1 and a2
        # exclusive-node invariant still holds
        assert not set(a1.nodes) & set(a2.nodes)

    def test_bandwidth_cap_respected(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=True)
        # Saturate leaf 0/1's common links with 2x 2.0 GB/s jobs, then a
        # third 2.0 job must avoid or fail those links (cap is 4.0).
        for jid in range(1, 20):
            result = a.allocate(jid, 8, bw_need=2.0)
            if result is None:
                break
        # every leaf link's accumulated bandwidth stays within the cap
        assert all(bw <= a.links.capacity + 1e-9 for bw in a.links.leaf_bw)
        assert all(bw <= a.links.capacity + 1e-9 for bw in a.links.spine_bw)

    def test_default_bw_used_when_job_silent(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=True, default_bw=2.0)
        a.allocate(1, 8)  # no bw_need given
        used = [bw for bw in a.links.leaf_bw if bw > 0]
        assert len(used) and used == pytest.approx([2.0] * len(used))

    def test_release_returns_bandwidth(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=True)
        a.allocate(1, 12, bw_need=1.5)
        a.release(1)
        assert not any(a.links.leaf_bw)
        assert not any(a.links.spine_bw)
        assert a.state.is_idle()


class TestExclusiveLC:
    def test_lc_is_isolating(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=False)
        assert a.isolating
        assert a.name == "lc"
        a1 = a.allocate(1, 8)
        a2 = a.allocate(2, 8)
        assert not set(a1.leaf_links) & set(a2.leaf_links)

    def test_lcs_is_not_isolating_but_low_interference(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=True)
        assert not a.isolating
        assert a.low_interference


class TestGeneralShapes:
    def test_sparse_cross_pod_placement(self, tree):
        """LC can place a mid-size job across pods with partial leaves —
        the placement Jigsaw's full-leaf restriction forgoes."""
        a = LeastConstrainedAllocator(tree, share_links=True)
        # leave exactly 2 free nodes on the first two leaves of 3 pods
        jid = 100
        for pod in range(tree.num_pods):
            for k, leaf in enumerate(tree.leaves_of_pod(pod)):
                keep = 2 if (k < 2 and pod < 3) else 0
                nodes = list(tree.nodes_of_leaf(leaf))[keep:]
                if nodes:
                    jid += 1
                    a.state.claim(jid, nodes)
        result = a.allocate(1, 12)
        assert result is not None
        assert isinstance(result.shape, ThreeLevelShape)
        assert result.shape.nL < tree.m1  # not a full-leaf shape
        assert check_allocation(tree, result) == []

    def test_allocations_satisfy_formal_conditions(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=True)
        for jid, size in enumerate([3, 7, 12, 20, 33, 50], start=1):
            result = a.allocate(jid, size)
            assert result is not None, size
            assert check_allocation(tree, result) == [], size


class TestBudget:
    def test_budget_exhaustion_acts_like_timeout(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=True, step_budget=3)
        assert a.allocate(1, 20) is None
        assert a.state.is_idle()

    def test_generous_budget_succeeds(self, tree):
        a = LeastConstrainedAllocator(tree, share_links=True, step_budget=100_000)
        assert a.allocate(1, 20) is not None

    def test_solution_cap_bounds_memory(self, tree):
        a = LeastConstrainedAllocator(tree, max_solutions_per_pod=2)
        sols = a._find_all_in_pod(0, LT=2, nL=2, nrL=0)
        assert len(sols) <= 2


class TestCharge:
    """``_charge(n)`` is ``n`` calls of ``_tick`` in one: the same
    ``backtrack_steps``, ``_steps_left`` and abort, also when the budget
    runs out before the ``n``-th step."""

    @staticmethod
    def _run(tree, left, spend):
        a = LeastConstrainedAllocator(tree)
        a._steps_left = left
        try:
            spend(a)
        except a.BudgetExhausted:
            aborted = True
        else:
            aborted = False
        return a.stats.backtrack_steps, a._steps_left, aborted

    @pytest.mark.parametrize("left, n", [
        (5, 0), (5, 3), (5, 4),  # below the steps left
        (5, 5), (1, 1),          # at
        (5, 6), (5, 40), (1, 3), # above
        (0, 0), (0, 2), (-2, 1), # a budget already spent
    ])
    def test_charge_equals_ticks(self, tree, left, n):
        def ticks(a):
            for _ in range(n):
                a._tick()

        charged = self._run(tree, left, lambda a: a._charge(n))
        assert charged == self._run(tree, left, ticks)
        if 0 < n and left <= n:
            assert charged[2]  # the abort fired
