"""Property-based tests (hypothesis) for the core invariants.

The paper's central formal claims, as properties over random inputs:

* every shape enumerated reconstructs its size and respects its bounds;
* every allocation any condition-bound scheme produces satisfies the
  formal conditions — under arbitrary interleavings of allocate/release;
* every legal allocation routes every permutation one-flow-per-link
  (rearrangeable non-blocking, Theorem 6);
* cluster state claim/release round-trips exactly.
"""

import random as _random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.conditions import check_allocation
from repro.core.registry import make_allocator
from repro.core.shapes import three_level_shapes, two_level_shapes
from repro.routing.rearrange import route_permutation, verify_one_flow_per_link
from repro.sched.metrics import InstantHistogram
from repro.topology.fattree import FatTree
from repro.topology.state import ClusterState, indices_of, lowest_bits, mask_of

TREES = {8: FatTree.from_radix(8), 6: FatTree.from_radix(6)}

common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Bitmask helpers
# ----------------------------------------------------------------------
@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mask_roundtrip(indices):
    assert set(indices_of(mask_of(indices))) == indices


@given(st.integers(min_value=0, max_value=2**20 - 1), st.integers(0, 20))
def test_lowest_bits_subset_and_count(mask, k):
    if mask.bit_count() < k:
        return
    low = lowest_bits(mask, k)
    assert low & mask == low
    assert low.bit_count() == k
    # they really are the lowest ones
    if low:
        highest_low = low.bit_length() - 1
        below = mask & ((1 << highest_low) - 1)
        assert below & ~low == 0


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
@common
@given(
    size=st.integers(min_value=1, max_value=64),
    m1=st.integers(min_value=1, max_value=10),
    m2=st.integers(min_value=1, max_value=10),
)
def test_two_level_shapes_reconstruct_size(size, m1, m2):
    for shape in two_level_shapes(size, m1, m2):
        assert shape.size == size
        assert 1 <= shape.nL <= m1
        assert shape.num_leaves <= m2
        assert 0 <= shape.nrL < shape.nL


@common
@given(
    size=st.integers(min_value=1, max_value=200),
    m1=st.integers(min_value=1, max_value=8),
    m2=st.integers(min_value=1, max_value=8),
    m3=st.integers(min_value=1, max_value=10),
    full=st.booleans(),
)
def test_three_level_shapes_reconstruct_size(size, m1, m2, m3, full):
    for shape in three_level_shapes(size, m1, m2, m3, full_leaves_only=full):
        assert shape.size == size
        assert shape.nrT < shape.nT
        assert shape.num_pods <= m3
        assert shape.LT <= m2
        if full:
            assert shape.nL == m1


# ----------------------------------------------------------------------
# State round-trips
# ----------------------------------------------------------------------
@common
@given(st.lists(st.integers(min_value=0, max_value=127), min_size=1,
                max_size=40, unique=True))
def test_claim_release_roundtrip(nodes):
    tree = TREES[8]
    state = ClusterState(tree)
    state.claim(1, nodes)
    state.audit()
    state.release(1)
    state.audit()
    assert state.is_idle()
    assert state.free_nodes_total == tree.num_nodes


# ----------------------------------------------------------------------
# Allocator conditions under arbitrary interleavings
# ----------------------------------------------------------------------
@st.composite
def workload(draw):
    """A random allocate/release interleaving."""
    ops = []
    live = []
    jid = 0
    for _ in range(draw(st.integers(5, 35))):
        if live and draw(st.booleans()):
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append(("release", victim))
        else:
            jid += 1
            size = draw(st.integers(1, 40))
            ops.append(("allocate", jid, size))
            live.append(jid)
    return ops


@common
@given(ops=workload(), scheme=st.sampled_from(["jigsaw", "laas", "lc+s", "lc"]))
def test_allocations_always_satisfy_conditions(ops, scheme):
    tree = TREES[8]
    allocator = make_allocator(scheme, tree)
    placed = set()
    for op in ops:
        if op[0] == "allocate":
            _, jid, size = op
            alloc = allocator.allocate(jid, size)
            if alloc is not None:
                placed.add(jid)
                violations = check_allocation(
                    tree, alloc, exact_nodes=(scheme != "laas")
                )
                assert violations == [], (scheme, size, violations)
        else:
            _, jid = op
            if jid in placed:
                allocator.release(jid)
                placed.discard(jid)
    allocator.state.audit()


@common
@given(ops=workload())
def test_ta_isolation_invariants(ops):
    """TA never lets two multi-leaf jobs share a leaf, nor two
    machine-spanning jobs share a pod."""
    tree = TREES[8]
    allocator = make_allocator("ta", tree)
    placed = set()
    for op in ops:
        if op[0] == "allocate":
            _, jid, size = op
            if allocator.allocate(jid, size) is not None:
                placed.add(jid)
        else:
            _, jid = op
            if jid in placed:
                allocator.release(jid)
                placed.discard(jid)
        # invariant: each leaf reserved by at most one multi-leaf job
        leaf_owners = {}
        pod_owners = {}
        for job_id, alloc in allocator.allocations.items():
            cls = allocator.classify(alloc.size)
            if cls == "t1":
                continue
            for leaf in {n // tree.m1 for n in alloc.nodes}:
                assert leaf not in leaf_owners, "two multi-leaf jobs on a leaf"
                leaf_owners[leaf] = job_id
            if cls == "t3":
                for pod in {tree.pod_of_node(n) for n in alloc.nodes}:
                    assert pod not in pod_owners, "two T3 jobs in a pod"
                    pod_owners[pod] = job_id


# ----------------------------------------------------------------------
# Rearrangeable non-blocking (Theorem 6)
# ----------------------------------------------------------------------
@common
@given(
    size=st.integers(min_value=2, max_value=100),
    prefill=st.lists(st.integers(1, 20), max_size=6),
    seed=st.integers(0, 10**6),
)
def test_any_jigsaw_allocation_routes_any_permutation(size, prefill, seed):
    tree = TREES[8]
    allocator = make_allocator("jigsaw", tree)
    for i, s in enumerate(prefill, start=1000):
        allocator.allocate(i, s)
    alloc = allocator.allocate(1, size)
    if alloc is None:
        return  # nothing to check: not placeable in this state
    rng = _random.Random(seed)
    nodes = sorted(alloc.nodes)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    perm = dict(zip(nodes, shuffled))
    assignments = route_permutation(tree, alloc, perm)
    assert verify_one_flow_per_link(tree, alloc, assignments) == []


# ----------------------------------------------------------------------
# LaaS and Jigsaw agree wherever LaaS's reduction is lossless
# ----------------------------------------------------------------------
@common
@given(size=st.integers(min_value=1, max_value=16))
def test_laas_matches_jigsaw_within_one_pod(size):
    """On an empty machine, any job that fits one subtree gets an exact
    (padding-free) allocation from LaaS, same as Jigsaw — the reduction
    only costs when the job must span subtrees."""
    tree = TREES[8]
    laas = make_allocator("laas", tree)
    jig = make_allocator("jigsaw", tree)
    a1 = laas.allocate(1, size)
    a2 = jig.allocate(1, size)
    assert a1 is not None and a2 is not None
    assert a1.padding == 0
    assert len(a1.nodes) == len(a2.nodes) == size


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=200))
def test_histogram_conserves_samples(values):
    h = InstantHistogram()
    for v in values:
        h.add(v)
    assert h.total == len(values)
    assert sum(h.counts.values()) == len(values)


@common
@given(
    jobs=st.lists(
        st.tuples(
            st.integers(1, 20),                      # size
            st.floats(0.0, 50.0),                    # start
            st.floats(0.1, 60.0),                    # duration
        ),
        min_size=1,
        max_size=25,
    ),
    buckets=st.integers(1, 17),
)
def test_utilization_timeline_conserves_node_seconds(jobs, buckets):
    """The bucketed series integrates back to the exact node-seconds."""
    from repro.core.allocator import AllocatorStats
    from repro.sched.metrics import (
        InstantHistogram,
        JobRecord,
        SimResult,
        utilization_timeline,
    )

    records = [
        JobRecord(i, size, 0.0, start, start + dur)
        for i, (size, start, dur) in enumerate(jobs)
    ]
    makespan = max(r.end for r in records)
    result = SimResult(
        scheme="s", trace_name="t", system_nodes=100, jobs=records,
        makespan=makespan, busy_area=0.0, demand_area=1.0,
        total_busy_area=0.0, instant=InstantHistogram(),
        stats=AllocatorStats(),
    )
    series = utilization_timeline(result, buckets=buckets)
    width = makespan / buckets
    integrated = sum(u / 100.0 * 100 * width for _, u in series)
    exact = sum(r.size * (r.end - r.start) for r in records)
    assert integrated == pytest.approx(exact, rel=1e-6, abs=1e-6)
