"""TA: containment rules, implicit reservation, Figure 2 scenarios."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ta import TopologyAwareAllocator
from repro.topology.fattree import FatTree


@pytest.fixture
def tree():
    return FatTree.from_radix(8)  # m1=m2=4, pod=16


@pytest.fixture
def alloc(tree):
    return TopologyAwareAllocator(tree)


class TestClassification:
    def test_classes(self, tree, alloc):
        assert alloc.classify(1) == "t1"
        assert alloc.classify(tree.m1) == "t1"
        assert alloc.classify(tree.m1 + 1) == "t2"
        assert alloc.classify(tree.nodes_per_pod) == "t2"
        assert alloc.classify(tree.nodes_per_pod + 1) == "t3"


class TestT1Rules:
    def test_t1_confined_to_one_leaf(self, tree, alloc):
        a = alloc.allocate(1, 3)
        assert len({n // tree.m1 for n in a.nodes}) == 1
        assert a.leaf_links == () and a.spine_links == ()

    def test_figure2_right_external_fragmentation(self, tree, alloc):
        """Figure 2 (right): three nodes are free but no single leaf has
        three, so a 3-node job cannot be placed."""
        jid = 0
        for leaf in range(tree.num_leaves):
            jid += 1
            nodes = list(tree.nodes_of_leaf(leaf))
            alloc.state.claim(jid, nodes[: tree.m1 - 1])  # leave 1 free each
        assert alloc.free_nodes == tree.num_leaves
        assert alloc.allocate(9999, 3) is None  # plenty free, none usable

    def test_t1_can_share_leaf_with_t1(self, tree, alloc):
        a1 = alloc.allocate(1, 2)
        a2 = alloc.allocate(2, 2)
        # best-fit packs the second small job onto the same leaf
        assert {n // tree.m1 for n in a1.nodes} == {n // tree.m1 for n in a2.nodes}

    def test_t1_excluded_from_reserved_leaf_when_strict(self, tree, alloc):
        t2 = alloc.allocate(1, 6)  # spans 2 leaves, reserves both
        t2_leaves = {n // tree.m1 for n in t2.nodes}
        for jid in range(2, 40):
            a = alloc.allocate(jid, 2)
            if a is None:
                break
            assert not ({n // tree.m1 for n in a.nodes} & t2_leaves)


class TestT2Rules:
    def test_t2_confined_to_one_pod(self, tree, alloc):
        a = alloc.allocate(1, 10)
        assert len({tree.pod_of_node(n) for n in a.nodes}) == 1

    def test_t2_jobs_never_share_leaves(self, tree, alloc):
        a1 = alloc.allocate(1, 6)
        a2 = alloc.allocate(2, 6)
        leaves1 = {n // tree.m1 for n in a1.nodes}
        leaves2 = {n // tree.m1 for n in a2.nodes}
        assert not leaves1 & leaves2

    def test_t2_blocked_without_clean_leaves_in_any_single_pod(self, tree, alloc):
        # Reserve one leaf per pod via a T2 job footprint of 5 nodes
        # (2 leaves), repeated so every pod has at most 2 clean leaves =
        # 8 free-on-clean nodes; then a 9-node T2 job fails everywhere.
        jid = 0
        for pod in range(tree.num_pods):
            jid += 1
            leaves = list(tree.leaves_of_pod(pod))
            nodes = list(tree.nodes_of_leaf(leaves[0])) + list(
                tree.nodes_of_leaf(leaves[1])
            )[:1]
            alloc.state.claim(jid, nodes)
            alloc._multi_owner[leaves[0]] = jid
            alloc._multi_owner[leaves[1]] = jid
            alloc._job_meta[jid] = ("t2", (leaves[0], leaves[1]), (pod,))
            alloc.allocations[jid] = None  # not used by search
        assert alloc.allocate(9999, 9) is None

    def test_release_clears_reservation(self, tree, alloc):
        a = alloc.allocate(1, 6)
        leaves = {n // tree.m1 for n in a.nodes}
        alloc.release(1)
        for leaf in leaves:
            assert alloc._multi_owner[leaf] == -1
        # the leaves are usable by another T2 again
        a2 = alloc.allocate(2, 6)
        assert a2 is not None


class TestT3Rules:
    def test_one_t3_per_pod(self, tree, alloc):
        a1 = alloc.allocate(1, tree.nodes_per_pod + 4)  # T3 across 2 pods
        pods1 = {tree.pod_of_node(n) for n in a1.nodes}
        a2 = alloc.allocate(2, tree.nodes_per_pod + 4)
        pods2 = {tree.pod_of_node(n) for n in a2.nodes}
        assert not pods1 & pods2

    def test_t3_exact_node_count(self, tree, alloc):
        a = alloc.allocate(1, tree.nodes_per_pod + 3)
        assert len(a.nodes) == tree.nodes_per_pod + 3  # no internal node frag

    def test_t3_release_frees_pods(self, tree, alloc):
        a = alloc.allocate(1, tree.nodes_per_pod + 4)
        pods = {tree.pod_of_node(n) for n in a.nodes}
        alloc.release(1)
        for pod in pods:
            assert alloc._t3_owner[pod] == -1

    def test_whole_machine_t3(self, tree, alloc):
        a = alloc.allocate(1, tree.num_nodes)
        assert a is not None
        assert len(a.nodes) == tree.num_nodes

    def test_t3_blocked_when_all_pods_have_t3(self, tree, alloc):
        # Two T3 jobs spanning 4 pods each block all 8 pods
        alloc.allocate(1, 4 * tree.nodes_per_pod - 2)
        alloc.allocate(2, 4 * tree.nodes_per_pod - 2)
        used_pods = set(p for p, o in enumerate(alloc._t3_owner) if o != -1)
        if len(used_pods) == tree.num_pods:
            assert alloc.allocate(3, tree.nodes_per_pod + 1) is None


# ----------------------------------------------------------------------
# Placement order against a written-out reference
# ----------------------------------------------------------------------
def _lowest_free(state, leaf, k):
    m1 = state.tree.m1
    return [
        n for n in range(leaf * m1, (leaf + 1) * m1) if state.node_owner[n] == -1
    ][:k]


def _emptiest_first(state, leaves, usable, size):
    """Take ``size`` nodes from ``leaves``: most free first, then lowest
    leaf id, lowest node ids on each leaf."""
    nodes = []
    for free, leaf in sorted(
        ((usable[leaf], leaf) for leaf in leaves if usable[leaf]),
        key=lambda fl: (-fl[0], fl[1]),
    ):
        nodes += _lowest_free(state, leaf, min(free, size - len(nodes)))
        if len(nodes) == size:
            return tuple(nodes)
    return None


def _reference(state, size, reserved, t3_pods):
    """TA's placement, recomputed from ``free_per_leaf`` and the
    test's own record of reserved leaves and T3-held pods."""
    tree = state.tree
    m1, m2 = tree.m1, tree.m2
    usable = [
        0 if leaf in reserved else f for leaf, f in enumerate(state.free_per_leaf)
    ]
    if size <= m1:  # T1: fewest free nodes, then lowest leaf id
        fits = sorted((f, leaf) for leaf, f in enumerate(usable) if f >= size)
        return tuple(_lowest_free(state, fits[0][1], size)) if fits else None
    pods = range(tree.num_pods)
    if size <= tree.nodes_per_pod:  # T2: the first pod that can host it
        for pod in pods:
            leaves = range(pod * m2, (pod + 1) * m2)
            if sum(usable[leaf] for leaf in leaves) >= size:
                return _emptiest_first(state, leaves, usable, size)
        return None
    # T3: free pods in order until their usable total covers the job
    leaves = []
    for pod in pods:
        if pod not in t3_pods:
            leaves += range(pod * m2, (pod + 1) * m2)
            if sum(usable[leaf] for leaf in leaves) >= size:
                return _emptiest_first(state, leaves, usable, size)
    return None


@pytest.mark.parametrize("radix", [8, 18])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_placements_match_sorted_reference(radix, seed):
    tree = FatTree.from_radix(radix)
    alloc = TopologyAwareAllocator(tree)
    rng = random.Random(seed)
    npod = tree.nodes_per_pod
    reserved = {}  # leaf -> multi-leaf job id
    t3_pods = {}  # pod -> T3 job id
    live = []
    for jid in range(1, 80):
        if live and rng.random() < 0.35:
            victim = live.pop(rng.randrange(len(live)))
            alloc.release(victim)
            reserved = {l: j for l, j in reserved.items() if j != victim}
            t3_pods = {p: j for p, j in t3_pods.items() if j != victim}
            continue
        size = rng.choice([
            rng.randint(1, tree.m1),
            rng.randint(tree.m1 + 1, npod),
            rng.randint(npod + 1, 3 * npod),
        ])
        want = _reference(alloc.state, size, reserved, t3_pods)
        got = alloc.allocate(jid, size)
        assert (got.nodes if got else None) == want, (radix, seed, jid, size)
        if got is None:
            continue
        live.append(jid)
        if size > tree.m1:
            for n in got.nodes:
                reserved[n // tree.m1] = jid
        if size > npod:
            for n in got.nodes:
                t3_pods[tree.pod_of_node(n)] = jid
