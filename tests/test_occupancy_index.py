"""The incremental occupancy index layer and its decision-invariance
contract.

Three families of checks:

* **index consistency** — a seeded random claim/release soak in which,
  after *every* mutation, each incremental index (`pod_free`,
  `full_free_leaves`, the >=k leaf counters, the exact-count bitmask
  buckets, the per-pod busy-uplink leaf masks) is compared against its
  recomputed-from-scratch counterpart;
* **read-helper equivalence** — the bucket-backed candidate orders and
  the pod prefilter answer exactly like brute-force scans;
* **search invariance** — every allocator reproduces the placement
  stream recorded in ``tests/data/decision_digests.json`` (recorded
  while a naive recompute-per-call search still existed and matched
  it), including under a tight LC+S step budget where the timeout must
  fire at exactly the same step.
"""

import random

import pytest

from repro.core.registry import make_allocator
from repro.topology.fattree import FatTree, LinkId, SpineLinkId
from repro.topology.state import ClusterState, mask_of
from tests.decision_digests import drive_placements, golden, search_configs


# ----------------------------------------------------------------------
# Recompute-from-scratch reference for every incremental index
# ----------------------------------------------------------------------
def assert_indexes_match_recomputed(state: ClusterState) -> None:
    tree = state.tree
    m1, m2 = tree.m1, tree.m2
    per_leaf = [
        state.node_owner[leaf * m1 : (leaf + 1) * m1].count(-1)
        for leaf in range(tree.num_leaves)
    ]
    assert per_leaf == state.free_per_leaf.tolist()
    busy_up = [
        tree.l2_per_pod - mask.bit_count() for mask in state.leaf_up_mask
    ]
    for pod in range(tree.num_pods):
        counts = per_leaf[pod * m2 : (pod + 1) * m2]
        assert sum(counts) == state.pod_free[pod]
        assert counts.count(m1) == state.full_free_leaves[pod]
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
        assert state.busy_uplink_leaf_mask(pod) == mask_of(
            j for j in range(m2) if busy_up[pod * m2 + j]
        )
    assert sum(per_leaf) == state.free_nodes_total
    state.audit()  # and the audit itself must agree


def free_nodes(state: ClusterState):
    return [n for n, owner in enumerate(state.node_owner) if owner == -1]


def random_claims(state: ClusterState, rng: random.Random, jid: int):
    """Claim a random set of free nodes; returns the claim size or 0."""
    free = free_nodes(state)
    if not free:
        return 0
    size = rng.randint(1, min(len(free), state.tree.m1 * 3))
    state.claim(jid, rng.sample(free, size))
    return size


# ----------------------------------------------------------------------
# Claim shapes for the soak: (nodes, leaf_links, spine_links), free only
# ----------------------------------------------------------------------
def only_free(state: ClusterState, nodes, leaf_links, spine_links):
    return (
        [n for n in nodes if state.node_owner[n] == -1],
        [l for l in leaf_links if state.leaf_up_mask[l.leaf] >> l.l2_index & 1],
        [
            s
            for s in spine_links
            if state.spine_free_mask[s.pod][s.l2_index] >> s.spine_index & 1
        ],
    )


def job_shaped(state: ClusterState, rng: random.Random):
    """Random free nodes in random order, a free uplink on some of
    their leaves and a free spine link in some of their pods."""
    tree = state.tree
    free = free_nodes(state)
    nodes = rng.sample(free, rng.randint(1, min(len(free), 3 * tree.m1)))
    leaf_links, spine_links = [], []
    for leaf in {n // tree.m1 for n in nodes}:
        if rng.random() < 0.5:
            leaf_links.append(LinkId(leaf, rng.randrange(tree.l2_per_pod)))
    for pod in {n // tree.nodes_per_pod for n in nodes}:
        if rng.random() < 0.5:
            spine_links.append(SpineLinkId(
                pod,
                rng.randrange(tree.l2_per_pod),
                rng.randrange(tree.spines_per_group),
            ))
    return only_free(state, nodes, leaf_links, spine_links)


def fault_shaped(state: ClusterState, rng: random.Random):
    """What one random fault takes out of service (the resource lists
    of ``FaultInjector.resolve``), minus what is already taken — most
    of these claim links only."""
    tree = state.tree
    kind = rng.choice(
        ["leaf-link", "spine-link", "leaf-switch", "l2-switch", "spine"]
    )
    pod = rng.randrange(tree.num_pods)
    i = rng.randrange(tree.l2_per_pod)
    j = rng.randrange(tree.spines_per_group)
    leaf = rng.choice(tree.leaves_of_pod(pod))
    nodes, leaf_links, spine_links = [], [], []
    if kind == "leaf-link":
        leaf_links = [LinkId(leaf, i)]
    elif kind == "spine-link":
        spine_links = [SpineLinkId(pod, i, j)]
    elif kind == "leaf-switch":
        nodes = list(tree.nodes_of_leaf(leaf))
        leaf_links = list(tree.leaf_links_of_leaf(leaf))
    elif kind == "l2-switch":
        leaf_links = [LinkId(l, i) for l in tree.leaves_of_pod(pod)]
        spine_links = list(tree.spine_links_of_l2(pod, i))
    else:  # spine j of group i: its cable to every pod
        spine_links = [SpineLinkId(p, i, j) for p in range(tree.num_pods)]
    return only_free(state, nodes, leaf_links, spine_links)


def interleaved(state: ClusterState, rng: random.Random):
    """Nodes of two leaves in the order a, b, a, ...: the claim leaves
    the first leaf and comes back to it."""
    tree = state.tree
    by_leaf = {}
    for n in free_nodes(state):
        by_leaf.setdefault(n // tree.m1, []).append(n)
    firsts = [leaf for leaf, ns in by_leaf.items() if len(ns) >= 2]
    if not firsts:
        return [], [], []
    a = rng.choice(firsts)
    others = [leaf for leaf in by_leaf if leaf != a]
    if not others:
        return [], [], []
    b = rng.choice(others)
    nodes = [by_leaf[a][0], by_leaf[b][0], by_leaf[a][1]] + by_leaf[b][1:2]
    return nodes, [], []


class TestIndexConsistency:
    def test_claim_release_soak(self):
        # Job-shaped, fault-shaped (mostly link-only) and interleaved
        # claims; single releases and release_many batches.  After every
        # mutation: every index against its recomputation.
        tree = FatTree.from_radix(8)
        state = ClusterState(tree)
        rng = random.Random(31)
        live = []
        jid = 0
        shapes = {"job": 0, "fault": 0, "interleaved": 0, "release_many": 0}
        for _ in range(400):
            if live and (rng.random() < 0.45 or not state.free_nodes_total):
                if len(live) >= 2 and rng.random() < 0.3:
                    rng.shuffle(live)
                    batch = live[: rng.randint(2, min(4, len(live)))]
                    del live[: len(batch)]
                    state.release_many(batch)
                    shapes["release_many"] += 1
                else:
                    state.release(live.pop(rng.randrange(len(live))))
            else:
                shape = rng.choice(["job", "job", "fault", "interleaved"])
                if shape == "fault":
                    resources = fault_shaped(state, rng)
                elif shape == "interleaved":
                    resources = interleaved(state, rng)
                else:
                    resources = (
                        job_shaped(state, rng)
                        if state.free_nodes_total
                        else ([], [], [])
                    )
                if not any(resources):
                    continue
                jid += 1
                state.claim(jid, *resources)
                live.append(jid)
                shapes[shape] += 1
            assert_indexes_match_recomputed(state)
        assert min(shapes.values()) >= 10, shapes
        while live:  # drain back to pristine
            state.release(live.pop())
            assert_indexes_match_recomputed(state)
        assert state.free_nodes_total == tree.num_nodes
        assert state.leaf_up_mask == [(1 << tree.l2_per_pod) - 1] * tree.num_leaves

    def test_fresh_state_indexes(self):
        tree = FatTree.from_radix(10)
        assert_indexes_match_recomputed(ClusterState(tree))

    def test_audit_detects_stale_leaf_ge(self):
        state = ClusterState(FatTree.from_radix(8))
        state._leaf_ge[1][0] -= 1
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


def partly_occupied(radix: int, seed: int) -> ClusterState:
    """Pods from idle (pod 0) to nearly full (the last pod): each leaf
    of pod ``p`` is claimed with probability ``p / (pods - 1)``, by one
    job taking 1..m1 of its nodes in random order."""
    tree = FatTree.from_radix(radix)
    state = ClusterState(tree)
    rng = random.Random(seed)
    for leaf in range(tree.num_leaves):
        if rng.random() < (leaf // tree.m2) / (tree.num_pods - 1):
            nodes = rng.sample(tree.nodes_of_leaf(leaf), rng.randint(1, tree.m1))
            state.claim(leaf + 1, nodes)
    return state


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

    @pytest.mark.parametrize("radix", [8, 18, 28])
    def test_feasible_pods_matches_bruteforce(self, radix):
        state = partly_occupied(radix, seed=radix)
        tree = state.tree
        rng = random.Random(5)
        answers = set()
        for trial in range(120):
            # min_leaf_free takes both extremes as often as a random value
            k = (0, tree.m1, rng.randint(0, tree.m1))[trial % 3]
            min_free = rng.randint(0, tree.nodes_per_pod)
            min_leaves = rng.choice([0, rng.randint(1, tree.m2)])
            min_full = rng.choice([0, rng.randint(1, tree.m2)])
            got = state.feasible_pods(min_free, k, min_leaves, min_full)
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
            assert type(got) is list
            assert got == want, (min_free, k, min_leaves, min_full)
            answers.add(len(want))
        # the pods span every occupancy level, so the queries split them
        assert len(answers) > 3, answers


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
        # the search must reproduce the exact step at which
        # BudgetExhausted fires, or the placements diverge.
        _alloc, failed = drive_golden("lcs_tight_budget")
        assert failed, "budget never fired — test lost its teeth"

    def test_search_effort_counters_populate(self):
        alloc, _failed = drive_golden("effort_counters")
        stats = alloc.stats
        assert stats.pods_pruned > 0
        assert stats.candidate_hits > 0
        assert stats.backtrack_steps > 0
