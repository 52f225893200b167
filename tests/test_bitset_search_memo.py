"""Bitset shape search, cross-pass memoization and the hot-path fixes.

The PR's invariants, as regression and property tests:

* a leaf-uplink fault on an otherwise-free leaf must never crash the
  three-level claim (the search now requires *usable* full leaves:
  all nodes free AND all uplinks free);
* a durable-failure floor recorded while hardware was failed must not
  outlive the repair — the job must schedule after the repair;
* ``batch_screen`` is sound at its edges against the scalar search,
  and screen survivors claim/release cleanly under link faults;
* the cross-pass negative memo changes no placement and no budget
  trajectory: memo-on and memo-off runs produce identical job records,
  with ``backtrack_steps + xpass_memo_replayed_steps`` equal to the
  memo-off step count, across schemes, queue orders and fault
  timelines (memo-off = every memo lookup patched to miss);
* the vectorized two-level scored search is decision-identical to the
  scalar walk it replaces.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.conditions import check_allocation
from repro.core.jigsaw import JigsawAllocator
from repro.core.registry import make_allocator
from repro.experiments.runner import paper_setup, run_scheme
from repro.topology.fattree import FatTree, LinkId
from repro.topology.faults import FaultInjector

TREE8 = FatTree.from_radix(8)

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _records(result):
    return [
        (r.job_id, r.size, r.arrival, r.start, r.end) for r in result.jobs
    ]


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
# Satellite 2: batch_screen soundness at the edges, with claim round-trip
# ----------------------------------------------------------------------
@common
@given(
    scheme=st.sampled_from(["jigsaw", "laas", "ta"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batch_screen_sound_against_scalar_search(scheme, seed):
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
    # Edge sweep: the rem==0 / rem>0 crossover, sub-leaf sizes, pod
    # capacity and beyond.
    m1, npod = tree.m1, tree.nodes_per_pod
    sweep = sorted({
        1, 2, m1 - 1, m1, m1 + 1, 2 * m1, 2 * m1 + 1,
        npod - 1, npod, npod + 1, 2 * npod, tree.num_nodes,
    })
    effs = np.array([alloc.effective_size(s) for s in sweep], np.int64)
    screen = alloc.batch_screen(effs)
    assert screen is not None
    for i, size in enumerate(sweep):
        found = alloc._search(-1, size, None)
        if screen[i]:
            # Screened-out == provably infeasible: the scalar search
            # must agree.
            assert found is None, (scheme, seed, size)
        elif found is not None:
            # Screen survivor that the search placed: the claim must
            # round-trip even under the injected link faults.
            probe = alloc.allocate(jid, size)
            assert probe is not None, (scheme, seed, size)
            alloc.release(jid)
            jid += 1
    alloc.state.audit()


# ----------------------------------------------------------------------
# Cross-pass memo: decision and budget invariance
# ----------------------------------------------------------------------
SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
QUEUE_ORDERS = ("fifo", "sjf", "smallest", "largest")


def _run_pair(monkeypatch, scheme, **kwargs):
    """One run with the cross-pass memo and one without, same inputs.

    The memo-off reference patches every memo lookup to miss: entries
    are still recorded but never replayed, so each sub-search runs."""
    on = run_scheme(paper_setup("Synth-16", scale=0.004), scheme, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(
            JigsawAllocator, "_xpass_memo_lookup", lambda self, key: None
        )
        off = run_scheme(
            paper_setup("Synth-16", scale=0.004), scheme, **kwargs
        )
    return on, off


def _assert_memo_invariant(on, off, context):
    assert _records(on) == _records(off), context
    assert on.unscheduled == off.unscheduled, context
    assert on.memo_hits == off.memo_hits, context
    assert off.xpass_memo_hits == 0, context
    assert off.xpass_memo_replayed_steps == 0, context
    # Replayed steps account for exactly the walk the memo skipped.
    assert (
        on.backtrack_steps + on.xpass_memo_replayed_steps
        == off.backtrack_steps
    ), context


@pytest.mark.parametrize("queue_order", QUEUE_ORDERS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_xpass_memo_invariant_across_queue_orders(
    monkeypatch, scheme, queue_order
):
    on, off = _run_pair(monkeypatch, scheme, queue_order=queue_order)
    _assert_memo_invariant(on, off, (scheme, queue_order))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_xpass_memo_invariant_under_faults(monkeypatch, scheme):
    kwargs = dict(
        mttf=20_000.0, fault_seed=1,
        fault_victim_policy="requeue-remaining",
        checkpoint_interval=600.0,
    )
    on, off = _run_pair(monkeypatch, scheme, **kwargs)
    assert on.faults_injected == off.faults_injected > 0, scheme
    _assert_memo_invariant(on, off, (scheme, "faulted"))


# ----------------------------------------------------------------------
# Vectorized two-level scored search vs the scalar walk
# ----------------------------------------------------------------------
@common
@given(
    scheme=st.sampled_from(["jigsaw", "laas"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_vector_two_level_matches_scalar(scheme, seed):
    rng = random.Random(seed)
    tree = TREE8
    vec = make_allocator(scheme, tree)
    ref = make_allocator(scheme, tree)
    ref.vector_two_level = False
    assert vec.vector_two_level is True
    jid = 0
    live = []
    for _ in range(80):
        r = rng.random()
        if r < 0.6:
            size = rng.randint(1, tree.nodes_per_pod)
            a = vec.allocate(jid, size)
            b = ref.allocate(jid, size)
            assert (a is None) == (b is None), (scheme, seed, jid, size)
            if a is not None:
                assert sorted(a.nodes) == sorted(b.nodes), (scheme, seed)
                assert sorted(a.leaf_links) == sorted(b.leaf_links)
                live.append(jid)
            jid += 1
        elif live:
            victim = live.pop(rng.randrange(len(live)))
            vec.release(victim)
            ref.release(victim)
    vec.state.audit()
