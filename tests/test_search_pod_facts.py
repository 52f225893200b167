"""The per-search pod facts of the Jigsaw-family searches.

A Jigsaw, LaaS or LC search reads the pods with room for the whole job
once (``_host_pods``), and each two-level shape filters only those by
its leaf demand (``_two_level_pods``).  Jigsaw's and LaaS's three-level
loop (``_search_three_level``) sorts the per-pod fully-free leaf counts
once and rejects a shape by bisection when fewer than ``T`` pods hold
``LT`` of them; only the other shapes reach ``_find_three_level``.

The tests hold each fact to the per-shape prefilter it replaced,
``ClusterState.feasible_pods``, under random allocate/release streams
with node, leaf-link and spine-link faults and repairs.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.registry import make_allocator
from repro.topology.fattree import FatTree, LinkId, SpineLinkId
from repro.topology.faults import FaultInjector
from repro.topology.state import AllocationError

TREES = (FatTree.from_radix(8), FatTree.from_radix(16))

common = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _churn(alloc, seed, steps):
    """Drive ``alloc`` through ``steps`` seeded allocations, releases,
    faults (nodes, leaf links, spine links) and repairs; fewer steps
    leave an emptier cluster."""
    rng = random.Random(seed)
    tree = alloc.tree
    inj = FaultInjector(alloc)
    live = []
    for jid in range(steps):
        r = rng.random()
        if r < 0.5:
            if alloc.allocate(jid, rng.randint(1, tree.num_nodes // 4)):
                live.append(jid)
        elif r < 0.7 and live:
            alloc.release(live.pop(rng.randrange(len(live))))
        elif r < 0.8 and inj.active_faults:
            inj.repair(rng.choice(inj.active_faults))
        else:
            kind = rng.choice(["node", "leaf-link", "spine-link"])
            try:
                if kind == "node":
                    inj.fail_node(rng.randrange(tree.num_nodes))
                elif kind == "leaf-link":
                    inj.fail_leaf_link(LinkId(
                        rng.randrange(tree.num_leaves),
                        rng.randrange(tree.l2_per_pod),
                    ))
                else:
                    inj.fail_spine_link(SpineLinkId(
                        rng.randrange(tree.num_pods),
                        rng.randrange(tree.l2_per_pod),
                        rng.randrange(tree.spines_per_group),
                    ))
            except AllocationError:
                pass  # the target is held by a job or an earlier fault


def _spy(alloc, method, record):
    """Record ``(args, result)`` of every call of ``alloc.<method>``."""
    real = getattr(alloc, method)

    def spy(*args):
        out = real(*args)
        record.append((args, out))
        return out

    setattr(alloc, method, spy)


@common
@given(
    scheme=st.sampled_from(["jigsaw", "laas", "lc+s"]),
    tree=st.sampled_from(TREES),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=5, max_value=60),
)
def test_two_level_pods_match_feasible_pods(scheme, tree, seed, steps):
    alloc = make_allocator(scheme, tree)
    _churn(alloc, seed, steps)
    state = alloc.state
    calls = []
    _spy(alloc, "_two_level_pods", calls)
    for size in range(1, tree.nodes_per_pod + 1):
        shapes = alloc._two_level_shape_iter(size)
        # Every shape's list, straight from the per-search host list.
        hosts = alloc._host_pods(size)
        assert hosts == state.feasible_pods(size)
        for shape in shapes:
            want = state.feasible_pods(size, shape.nL, shape.LT)
            assert alloc._two_level_pods(hosts, shape) == want, (size, shape)
        # The walk itself: the shapes it visits, in order, and the pods
        # it reads for each.
        calls.clear()
        alloc._steps_left = alloc.step_budget
        alloc._search_two_level(size)
        walked = [args[1] for args, _pods in calls]
        assert walked == list(shapes[: len(walked)])
        if not hosts:
            assert walked == []
        for (_hosts, shape), pods in calls:
            assert pods == state.feasible_pods(size, shape.nL, shape.LT)


@common
@given(
    scheme=st.sampled_from(["jigsaw", "laas"]),
    tree=st.sampled_from(TREES),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=5, max_value=60),
)
def test_three_level_bisection_matches_feasible_pods(scheme, tree, seed, steps):
    alloc = make_allocator(scheme, tree)
    _churn(alloc, seed, steps)
    state = alloc.state
    # A failing fit for every shape lets the loop walk the whole list.
    fitted = []
    alloc._find_three_level = fitted.append
    for size in range(tree.nodes_per_pod + 1, tree.num_nodes + 1):
        shapes = list(alloc._three_level_shape_iter(size))
        full_pods = {
            s.LT: state.feasible_pods(0, min_full_leaves=s.LT) for s in shapes
        }
        short = [s for s in shapes if len(full_pods[s.LT]) < s.T]
        fitted.clear()
        assert alloc._search_three_level(size) is None
        # Bisection passes exactly the shapes with T pods of LT fully
        # free leaves on to the fit.
        assert fitted == [s for s in shapes if s not in short], size


@pytest.mark.parametrize(
    "scheme,kwargs",
    [("jigsaw", {}), ("jigsaw", {"strategy": "first"}), ("laas", {}),
     ("lc+s", {}), ("lc", {})],
    ids=["jigsaw", "jigsaw-first", "laas", "lc+s", "lc"],
)
def test_search_without_host_pod_walks_no_shape(scheme, kwargs):
    tree = FatTree.from_radix(8)
    alloc = make_allocator(scheme, tree, **kwargs)
    inj = FaultInjector(alloc)
    for pod in range(tree.num_pods):  # one failed node in every pod
        inj.fail_node(pod * tree.nodes_per_pod)
    state, stats = alloc.state, alloc.stats
    size = tree.nodes_per_pod
    shapes = alloc._two_level_shape_iter(size)
    # Every shape's per-shape prefilter is empty.
    assert shapes
    assert all(not state.feasible_pods(size, s.nL, s.LT) for s in shapes)
    calls = []
    _spy(alloc, "_two_level_pods", calls)
    alloc._steps_left = alloc.step_budget
    steps = stats.backtrack_steps
    assert alloc._search_two_level(size) is None
    assert calls == []
    assert stats.backtrack_steps == steps


@pytest.mark.parametrize("scheme", ["jigsaw", "laas", "lc+s"])
def test_job_larger_than_pod_reads_no_host_list(scheme):
    tree = FatTree.from_radix(8)
    alloc = make_allocator(scheme, tree)
    size = tree.nodes_per_pod + 1
    assert not alloc._two_level_shape_iter(size)
    calls = []
    _spy(alloc, "_host_pods", calls)
    alloc._steps_left = alloc.step_budget
    assert alloc._search_two_level(size) is None
    assert calls == []
