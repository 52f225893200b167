"""The incremental occupancy index layer and its decision-invariance
contract.

Three families of checks:

* **index consistency** — a seeded random claim/release soak in which,
  after *every* mutation, each incremental index (`pod_free`,
  `full_free_leaves`, the >=k leaf counters, the exact-count bitmask
  buckets) is compared against its recomputed-from-scratch counterpart;
* **read-helper equivalence** — the bucket-backed candidate orders and
  vectorized pod prefilter answer exactly like brute-force scans;
* **search invariance** — every allocator reproduces the placement
  stream recorded in ``tests/data/decision_digests.json`` (recorded
  while a naive recompute-per-call search still existed and matched
  it), including under a tight LC+S step budget where the memo's
  tick-charging must make the timeout fire at exactly the same step.
"""

import random

import numpy as np
import pytest

from repro.core.registry import make_allocator
from repro.topology.fattree import FatTree
from repro.topology.state import ClusterState, mask_of
from tests.decision_digests import drive_placements, golden, search_configs


# ----------------------------------------------------------------------
# Recompute-from-scratch reference for every incremental index
# ----------------------------------------------------------------------
def assert_indexes_match_recomputed(state: ClusterState) -> None:
    tree = state.tree
    m1, m2 = tree.m1, tree.m2
    per_leaf = [
        int((state.node_owner[leaf * m1 : (leaf + 1) * m1] == -1).sum())
        for leaf in range(tree.num_leaves)
    ]
    assert per_leaf == state.free_per_leaf.tolist()
    for pod in range(tree.num_pods):
        counts = per_leaf[pod * m2 : (pod + 1) * m2]
        assert sum(counts) == int(state.pod_free[pod])
        assert counts.count(m1) == int(state.full_free_leaves[pod])
        for k in range(m1 + 1):
            assert sum(1 for c in counts if c >= k) == state.leaves_with_at_least(
                pod, k
            ), (pod, k)
        for f in range(m1 + 1):
            want = mask_of(j for j in range(m2) if counts[j] == f)
            assert want == state._leaf_buckets[pod][f], (pod, f)
        assert state.fully_free_leaf_mask(pod) == mask_of(
            j for j in range(m2) if counts[j] == m1
        )
    assert sum(per_leaf) == state.free_nodes_total
    state.audit()  # and the audit itself must agree


def random_claims(state: ClusterState, rng: random.Random, jid: int):
    """Claim a random set of free nodes; returns the claim size or 0."""
    free = np.flatnonzero(state.node_owner == -1).tolist()
    if not free:
        return 0
    size = rng.randint(1, min(len(free), state.tree.m1 * 3))
    state.claim(jid, rng.sample(free, size))
    return size


class TestIndexConsistency:
    def test_claim_release_soak(self):
        tree = FatTree.from_radix(8)
        state = ClusterState(tree)
        rng = random.Random(31)
        live = []
        jid = 0
        for _ in range(300):
            if live and (rng.random() < 0.45 or not state.free_nodes_total):
                state.release(live.pop(rng.randrange(len(live))))
            else:
                jid += 1
                if random_claims(state, rng, jid):
                    live.append(jid)
            assert_indexes_match_recomputed(state)
        while live:  # drain back to pristine
            state.release(live.pop())
            assert_indexes_match_recomputed(state)
        assert state.free_nodes_total == tree.num_nodes

    def test_fresh_state_indexes(self):
        tree = FatTree.from_radix(10)
        assert_indexes_match_recomputed(ClusterState(tree))

    def test_audit_detects_stale_leaf_ge(self):
        state = ClusterState(FatTree.from_radix(8))
        state._leaf_ge[1, 0] -= 1
        with pytest.raises(Exception, match="_leaf_ge"):
            state.audit()

    def test_audit_detects_stale_bucket(self):
        state = ClusterState(FatTree.from_radix(8))
        state._leaf_buckets[0][0] |= 1
        with pytest.raises(Exception, match="_leaf_buckets"):
            state.audit()


class TestReadOnlyView:
    def test_free_leaf_counts_mutation_raises(self):
        state = ClusterState(FatTree.from_radix(8))
        view = state.free_leaf_counts_in_pod(0)
        with pytest.raises(ValueError):
            view[0] = 0
        with pytest.raises(ValueError):
            view += 1

    def test_values_still_track_state(self):
        tree = FatTree.from_radix(8)
        state = ClusterState(tree)
        state.claim(1, [0, 1])
        assert int(state.free_leaf_counts_in_pod(0)[0]) == tree.m1 - 2


class TestReadHelperEquivalence:
    @pytest.fixture
    def state(self):
        tree = FatTree.from_radix(8)
        state = ClusterState(tree)
        rng = random.Random(7)
        jid = 0
        for _ in range(40):
            jid += 1
            random_claims(state, rng, jid)
        return state

    def test_leaf_candidates_is_best_fit_order(self, state):
        tree = state.tree
        for pod in range(tree.num_pods):
            free = state.free_leaf_counts_in_pod(pod)
            base = tree.first_leaf_of_pod(pod)
            for min_free in range(tree.m1 + 1):
                want = sorted(
                    (base + k for k in range(tree.m2) if free[k] >= min_free),
                    key=lambda leaf: (int(free[leaf - base]), leaf),
                )
                assert state.leaf_candidates(pod, min_free) == want

    def test_leaf_candidates_by_id_order(self, state):
        tree = state.tree
        for pod in range(tree.num_pods):
            free = state.free_leaf_counts_in_pod(pod)
            base = tree.first_leaf_of_pod(pod)
            for min_free in range(tree.m1 + 1):
                want = [
                    base + k for k in range(tree.m2) if free[k] >= min_free
                ]
                assert state.leaf_candidates_by_id(pod, min_free) == want

    def test_best_fit_leaf_is_candidate_head(self, state):
        tree = state.tree
        for pod in range(tree.num_pods):
            for min_free in range(tree.m1 + 1):
                cands = state.leaf_candidates(pod, min_free)
                assert state.best_fit_leaf(pod, min_free) == (
                    cands[0] if cands else None
                )

    def test_feasible_pods_matches_bruteforce(self, state):
        tree = state.tree
        rng = random.Random(5)
        for _ in range(50):
            min_free = rng.randint(0, tree.nodes_per_pod)
            k = rng.randint(0, tree.m1)
            min_leaves = rng.randint(0, tree.m2)
            min_full = rng.randint(0, tree.m2)
            got = state.feasible_pods(
                min_free, k, min_leaves, min_full
            ).tolist()
            want = []
            for pod in range(tree.num_pods):
                free = state.free_leaf_counts_in_pod(pod)
                if int(free.sum()) < min_free:
                    continue
                if min_leaves and sum(1 for f in free if f >= k) < min_leaves:
                    continue
                if min_full and sum(
                    1 for f in free if f == tree.m1
                ) < min_full:
                    continue
                want.append(pod)
            assert got == want, (min_free, k, min_leaves, min_full)


# ----------------------------------------------------------------------
# Searches must reproduce their recorded placement streams
# ----------------------------------------------------------------------
def drive_golden(name):
    """Drive one recorded allocate/release stream and hold its
    placements to the golden digest."""
    alloc, digest = drive_placements(**search_configs()[name])
    assert digest == golden("search", name), name
    return alloc, digest["failed"]


class TestSearchEquivalence:
    @pytest.mark.parametrize("scheme", ["jigsaw", "laas", "ta", "lc+s", "lc"])
    def test_small_jobs(self, scheme):
        drive_golden(f"small/{scheme}")

    @pytest.mark.parametrize("scheme", ["jigsaw", "laas", "ta", "lc+s"])
    def test_pod_spanning_jobs(self, scheme):
        drive_golden(f"pod_spanning/{scheme}")

    def test_lcs_tight_budget_timeouts_match(self):
        # A budget small enough that searches genuinely exhaust it:
        # the memo's tick-charging must reproduce the exact step at
        # which BudgetExhausted fires, or the placements diverge.
        _alloc, failed = drive_golden("lcs_tight_budget")
        assert failed, "budget never fired — test lost its teeth"

    def test_pod_memo_hit_replays_identical_cost(self):
        # A memo hit must charge the budget exactly what the original
        # call cost — otherwise BudgetExhausted fires at a different
        # step than the uncached search and decisions diverge.
        tree = FatTree.from_radix(8)
        allocator = make_allocator("lc+s", tree)
        allocator.state.claim(1, [0, 5, 17])
        allocator._steps_left = allocator.step_budget
        allocator._pod_memo.clear()

        before = allocator._steps_left
        first = allocator._find_all_in_pod(0, 2, 3, 0)
        cost = before - allocator._steps_left
        assert first and cost > 0
        assert allocator.stats.memo_hits == 0

        before = allocator._steps_left
        again = allocator._find_all_in_pod(0, 2, 3, 0)
        assert allocator.stats.memo_hits == 1
        assert again is first  # replayed, not re-searched
        assert before - allocator._steps_left == cost

        # ...and a hit still raises BudgetExhausted when the replayed
        # cost exhausts what's left, exactly like the real search would.
        allocator._steps_left = cost
        with pytest.raises(allocator.BudgetExhausted):
            allocator._find_all_in_pod(0, 2, 3, 0)
        assert allocator.stats.memo_hits == 2

    def test_search_effort_counters_populate(self):
        alloc, _failed = drive_golden("effort_counters")
        stats = alloc.stats
        assert stats.pods_pruned > 0
        assert stats.candidate_hits > 0
        assert stats.backtrack_steps > 0
