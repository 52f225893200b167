"""Baseline: unconstrained node-only allocation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import BaselineAllocator
from repro.topology.fattree import FatTree


@pytest.fixture
def tree():
    return FatTree.from_radix(8)


@pytest.fixture
def alloc(tree):
    return BaselineAllocator(tree)


def test_no_links_ever(alloc):
    a = alloc.allocate(1, 50)
    assert a.leaf_links == () and a.spine_links == ()


def test_never_fails_with_enough_nodes(tree, alloc):
    """The defining property: any free-node count is fully usable."""
    jid = 0
    sizes = [7, 13, 1, 29, 5, 3, 17, 11, 2, 19]
    total = 0
    while True:
        size = sizes[jid % len(sizes)]
        if total + size > tree.num_nodes:
            break
        jid += 1
        assert alloc.allocate(jid, size) is not None
        total += size
    assert alloc.free_nodes == tree.num_nodes - total
    # exactly the remaining count succeeds; one more fails
    if alloc.free_nodes:
        assert alloc.allocate(9998, alloc.free_nodes) is not None
    assert alloc.allocate(9999, 1) is None


def test_best_fit_fills_partial_leaves_first(tree, alloc):
    alloc.allocate(1, 2)  # breaks one leaf
    a2 = alloc.allocate(2, 2)  # should fill the same leaf
    leaves1 = {n // tree.m1 for n in alloc.allocations[1].nodes}
    leaves2 = {n // tree.m1 for n in a2.nodes}
    assert leaves1 == leaves2


def test_flags(alloc):
    assert not alloc.isolating
    assert not alloc.low_interference


def test_release(tree, alloc):
    alloc.allocate(1, tree.num_nodes)
    assert alloc.free_nodes == 0
    alloc.release(1)
    assert alloc.free_nodes == tree.num_nodes


def _reference(state, size):
    """Best fit over the whole machine, from ``free_per_leaf``: the
    fullest non-empty leaves first (fewest free nodes, then lowest leaf
    id), lowest free node ids on each leaf."""
    if size > state.free_nodes_total:
        return None
    m1 = state.tree.m1
    nodes = []
    for free, leaf in sorted(
        (f, leaf) for leaf, f in enumerate(state.free_per_leaf) if f
    ):
        take = min(free, size - len(nodes))
        nodes += [
            n for n in range(leaf * m1, (leaf + 1) * m1)
            if state.node_owner[n] == -1
        ][:take]
        if len(nodes) == size:
            return tuple(nodes)


@pytest.mark.parametrize("radix", [8, 18])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_placements_match_sorted_reference(radix, seed):
    tree = FatTree.from_radix(radix)
    alloc = BaselineAllocator(tree)
    rng = random.Random(seed)
    live = []
    for jid in range(1, 80):
        if live and rng.random() < 0.35:
            alloc.release(live.pop(rng.randrange(len(live))))
            continue
        npod = tree.nodes_per_pod
        size = rng.randint(1, rng.choice([tree.m1, npod, 4 * npod]))
        want = _reference(alloc.state, size)
        got = alloc.allocate(jid, size)
        assert (got.nodes if got else None) == want, (radix, seed, jid, size)
        if got is not None:
            live.append(jid)
