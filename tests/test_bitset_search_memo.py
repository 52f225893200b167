"""Bitset shape search and its hot-path fixes.

The invariants, as regression and property tests:

* a leaf-uplink fault on an otherwise-free leaf must never crash the
  three-level claim (the search now requires *usable* full leaves:
  all nodes free AND all uplinks free);
* a durable-failure floor recorded while hardware was failed must not
  outlive the repair — the job must schedule after the repair;
* ``batch_screen`` agrees with the search over every size — exactly
  for baseline and ta, soundly for jigsaw and laas, whose verdicts
  also match a recount of the screen's definition — and screen
  survivors claim/release cleanly under link faults;
* the two-level bucket-row scorer is decision-identical to the per-pod
  scored walk it replaced.
"""

import random
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.conditions import check_allocation
from repro.core.registry import make_allocator
from repro.core.shapes import TwoLevelShape
from repro.topology.fattree import FatTree, LinkId
from repro.topology.faults import FaultInjector

TREE8 = FatTree.from_radix(8)

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Satellite 1: leaf-uplink faults vs the three-level full-leaf claim
# ----------------------------------------------------------------------
class TestUsableLeafFault:
    """A dead uplink on a fully-free leaf used to crash mid-claim:
    ``_build_three_level`` claims every uplink of every full leaf, but
    the search never checked them."""

    @pytest.mark.parametrize("scheme", ["jigsaw", "laas"])
    def test_fault_does_not_crash_three_level(self, scheme):
        tree = TREE8
        alloc = make_allocator(scheme, tree)
        inj = FaultInjector(alloc)
        inj.fail_leaf_link(LinkId(0, 0))
        # Cross-pod job: on the old code pod 0 ranks first, leaf 0 is
        # "full" by node count, and the claim raises AllocationError.
        a = alloc.allocate(1, 2 * tree.nodes_per_pod)
        assert a is not None
        assert check_allocation(
            tree, a, exact_nodes=(scheme != "laas")
        ) == []
        assert all(link.leaf != 0 for link in a.leaf_links)
        alloc.state.audit()

    @pytest.mark.parametrize("scheme", ["jigsaw", "laas"])
    def test_floor_does_not_survive_repair(self, scheme):
        tree = TREE8
        alloc = make_allocator(scheme, tree)
        inj = FaultInjector(alloc)
        ticket = inj.fail_leaf_link(LinkId(0, 0))
        size = tree.num_nodes  # needs every leaf, including leaf 0
        # Fails cleanly (no AllocationError) and records the durable
        # failure in the floor/cache machinery.
        assert alloc.allocate(1, size) is None
        eff = alloc.effective_size(size)
        assert (eff, None) in alloc._failed_keys
        inj.repair(ticket)
        # The repaired link restores feasibility; a floor recorded under
        # the fault must not skip the now-feasible job.
        a = alloc.allocate(2, size)
        assert a is not None
        assert check_allocation(
            tree, a, exact_nodes=(scheme != "laas")
        ) == []
        alloc.release(2)
        alloc.state.audit()


# ----------------------------------------------------------------------
# batch_screen against the search and against a recount of its definition
# ----------------------------------------------------------------------
def _screen_recount(scheme, tree, free, eff):
    """The jigsaw/laas screen verdict for ``eff``, recounted from the
    per-leaf free counts: per-pod sums, fully-free leaves and (jigsaw)
    leaves with at least the remainder free."""
    m1, m2 = tree.m1, tree.m2
    pod_max = max(
        sum(free[p * m2:(p + 1) * m2]) for p in range(tree.num_pods)
    )
    full_leaves = sum(1 for f in free if f == m1)
    if eff <= pod_max:
        return False
    if scheme == "laas":
        return -(-eff // m1) > full_leaves
    full, rem = divmod(eff, m1)
    if full > full_leaves:
        return True
    if rem == 0:
        return False
    return sum(1 for f in free if f >= rem) < full + 1


@common
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_batch_screen_sound_against_scalar_search(seed):
    for scheme in ("baseline", "ta", "jigsaw", "laas"):
        _check_screen_over_every_size(scheme, seed)


def _check_screen_over_every_size(scheme, seed):
    """Drive one scheme into a seeded, fault-injected state, then hold
    its screen to the search over every size the cluster could host."""
    rng = random.Random(seed)
    tree = TREE8
    alloc = make_allocator(scheme, tree)
    inj = FaultInjector(alloc)
    jid = 0
    live = []
    for _ in range(60):
        r = rng.random()
        if r < 0.55:
            a = alloc.allocate(jid, rng.randint(1, tree.num_nodes // 3))
            if a is not None:
                live.append(jid)
            jid += 1
        elif r < 0.75 and live:
            alloc.release(live.pop(rng.randrange(len(live))))
        else:
            kind = rng.choice(["node", "leaf-link"])
            try:
                if kind == "node":
                    node = rng.randrange(tree.num_nodes)
                    if int(alloc.state.node_owner[node]) != -1:
                        continue
                    inj.fail_node(node)
                else:
                    inj.fail_leaf_link(LinkId(
                        rng.randrange(tree.num_leaves),
                        rng.randrange(tree.l2_per_pod),
                    ))
            except Exception:
                continue
    # Every size the cluster could host, as the list the scheduling
    # pass hands over.
    sizes = range(1, tree.num_nodes + 1)
    effs = [alloc.effective_size(s) for s in sizes]
    screen = alloc.batch_screen(effs)
    assert isinstance(screen, list) and len(screen) == len(effs)
    if scheme in ("jigsaw", "laas"):
        # The recount catches a screen that rejects less than its
        # definition allows, which soundness alone cannot see.
        free = alloc.state.free_per_leaf.tolist()
        assert screen == [
            _screen_recount(scheme, tree, free, eff) for eff in effs
        ], (scheme, seed)
    for size, screened in zip(sizes, screen):
        found = alloc._search(-1, size, None)
        if scheme in ("baseline", "ta"):
            # Exact screens: rejected iff the search fails.
            assert screened == (found is None), (scheme, seed, size)
        elif screened:
            # Screened-out == provably infeasible: the search must
            # agree.
            assert found is None, (scheme, seed, size)
        if not screened and found is not None:
            # Screen survivor that the search placed: the claim must
            # round-trip even under the injected link faults.
            probe = alloc.allocate(jid, size)
            assert probe is not None, (scheme, seed, size)
            alloc.release(jid)
            jid += 1
    alloc.state.audit()


# ----------------------------------------------------------------------
# Two-level bucket-row scorer vs the per-pod scored walk
# ----------------------------------------------------------------------
#: radix 16 (m1 = m2 = 8): enough free-count buckets for the greedy to
#: span several of them and for both remainder branches to run
TREE16 = FatTree.from_radix(16)


def _walk_two_level(self, alloc_size):
    """Reference: the scored walk the bucket-row scorer replaced — fit
    every prefiltered (shape, pod) pair with the per-pod backtracking,
    score it, and stop at the first ``(0, 0)`` score."""
    best = None
    for shape in self._two_level_shape_iter(alloc_size):
        for pod in self._two_level_pods(alloc_size, shape):
            found = self._find_two_level_in_pod(pod, shape)
            if found is None:
                continue
            score = self._score_two_level(shape, found)
            if best is None or score < best[0]:
                best = (score, shape, found)
                if score[:2] == (0, 0):
                    return shape, found
    return None if best is None else best[1:]


def _walk_shape(alloc, shape, pods):
    """Reference ``(score, pod)`` of one shape over ``pods``."""
    best = None
    for pod in pods:
        found = alloc._find_two_level_in_pod(pod, shape)
        if found is None:
            continue
        score = alloc._score_two_level(shape, found)
        if score[:2] == (0, 0):
            return score, pod
        if best is None or score < best[0]:
            best = (score, pod)
    return best


@common
@given(
    scheme=st.sampled_from(["jigsaw", "laas"]),
    tree=st.sampled_from([TREE8, TREE16]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_two_level_scorer_matches_scalar_walk(scheme, tree, seed):
    rng = random.Random(seed)
    alloc = make_allocator(scheme, tree)
    ref = make_allocator(scheme, tree)
    ref._search_two_level = types.MethodType(_walk_two_level, ref)
    injectors = (FaultInjector(alloc), FaultInjector(ref))
    jid = 0
    live = []
    for _ in range(80):
        r = rng.random()
        if r < 0.6:
            size = rng.randint(1, tree.nodes_per_pod)
            a = alloc.allocate(jid, size)
            b = ref.allocate(jid, size)
            assert (a is None) == (b is None), (scheme, seed, jid, size)
            if a is not None:
                assert a.shape == b.shape, (scheme, seed, jid)
                assert sorted(a.nodes) == sorted(b.nodes), (scheme, seed)
                assert sorted(a.leaf_links) == sorted(b.leaf_links)
                live.append(jid)
            jid += 1
        elif r < 0.9 and live:
            victim = live.pop(rng.randrange(len(live)))
            alloc.release(victim)
            ref.release(victim)
        else:
            # An uplink fault sends its pod down the per-pod fit.
            link = LinkId(
                rng.randrange(tree.num_leaves), rng.randrange(tree.l2_per_pod)
            )
            if alloc.state.leaf_up_mask[link.leaf] >> link.l2_index & 1:
                for inj in injectors:
                    inj.fail_leaf_link(link)
    alloc.state.audit()


def _pod_layout(inj, pod, free_counts):
    """Fail nodes so that leaf ``j`` of ``pod`` keeps ``free_counts[j]``
    free nodes."""
    tree = inj.state.tree
    for j, free in enumerate(free_counts):
        leaf = pod * tree.m2 + j
        for node in range(leaf * tree.m1 + free, (leaf + 1) * tree.m1):
            inj.fail_node(node)


class TestBucketRowScorer:
    """Directed pod states for :meth:`JigsawAllocator._score_shape_pods`
    on the radix-16 tree, each checked against the per-pod fit."""

    @pytest.mark.parametrize("free, shape, score, rem_free", [
        # remainder from [nrL, nL): the 3-free leaf precedes the chosen
        # 5- and 6-free leaves in best-fit order
        ([8, 8, 6, 5, 3, 2, 0, 0], TwoLevelShape(2, 5, 3), (0, 1, 0), 3),
        # (LT+1)-th candidate, in the bucket of the last chosen leaf
        ([8, 8, 6, 6, 6, 1, 0, 0], TwoLevelShape(2, 6, 2), (0, 4, 0), 6),
        # (LT+1)-th candidate in the next non-empty bucket (7 is empty),
        # which breaks a fully-free leaf
        ([8, 8, 6, 6, 1, 0, 0, 0], TwoLevelShape(2, 6, 2), (1, 6, 0), 8),
        # chosen leaves span buckets 6 and 7; remainder in the next one
        ([8, 7, 6, 1, 0, 0, 0, 0], TwoLevelShape(2, 6, 2), (1, 7, 0), 8),
    ])
    def test_remainder_branches(self, free, shape, score, rem_free):
        alloc = make_allocator("jigsaw", TREE16)
        _pod_layout(FaultInjector(alloc), 0, free)
        steps = alloc.stats.backtrack_steps
        # Scored from the bucket row: no per-pod fit, no step.
        assert alloc._score_shape_pods(shape, [0]) == (score, 0, None)
        assert alloc.stats.backtrack_steps == steps
        assert _walk_shape(alloc, shape, [0]) == (score, 0)
        _, (_full, _s, rem_leaf, _sr) = alloc._materialize_two_level(
            shape, 0, None
        )
        assert alloc.state.free_nodes_on_leaf(rem_leaf) == rem_free

    @staticmethod
    def _two_perfect_pods(busy_pod):
        alloc = make_allocator("jigsaw", TREE16)
        inj = FaultInjector(alloc)
        for pod in (0, 1):
            _pod_layout(inj, pod, [5, 5, 0, 0, 0, 0, 0, 0])
        # A fault on an uplink of an exhausted leaf makes the pod busy
        # without changing what it can host.
        inj.fail_leaf_link(LinkId(busy_pod * TREE16.m2 + 2, 0))
        assert alloc.state.busy_uplink_leaf_mask(busy_pod)
        assert not alloc.state.busy_uplink_leaf_mask(1 - busy_pod)
        return alloc

    def test_busy_pod_below_clean_perfect_pod_wins(self):
        alloc = self._two_perfect_pods(busy_pod=0)
        shape = TwoLevelShape(2, 5, 0)
        score, pod, found = alloc._score_shape_pods(shape, [0, 1])
        assert (score, pod) == ((0, 0, 0), 0) == _walk_shape(alloc, shape, [0, 1])
        # The per-pod fit's own solution is carried to the winner.
        assert found is not None and found[0] == [0, 1]

    def test_busy_pod_after_first_perfect_fit_is_not_fitted(self):
        alloc = self._two_perfect_pods(busy_pod=1)
        shape = TwoLevelShape(2, 5, 0)
        steps = alloc.stats.backtrack_steps
        assert alloc._score_shape_pods(shape, [0, 1]) == ((0, 0, 0), 0, None)
        assert alloc.stats.backtrack_steps == steps

    def test_shape_no_offered_pod_can_host(self):
        alloc = make_allocator("jigsaw", TREE16)
        inj = FaultInjector(alloc)
        shape = TwoLevelShape(2, 6, 2)
        for pod in (0, 1):
            _pod_layout(inj, pod, [7, 7, 1, 0, 0, 0, 0, 0])
        inj.fail_leaf_link(LinkId(TREE16.m2 + 3, 0))  # pod 1 is busy
        # Both pass the prefilter (15 free nodes, two leaves with >= 6)
        # but neither has a third leaf with >= 2 free nodes.
        assert {0, 1} <= set(alloc._two_level_pods(shape.size, shape))
        assert alloc._score_shape_pods(shape, [0, 1]) is None
        assert _walk_shape(alloc, shape, [0, 1]) is None
