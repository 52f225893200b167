"""Decision invariance of the scheduling pass.

The pass promises fixed decisions — every placement, every charged
allocator attempt, every leftover job — across all five schemes, every
queue order, both drive modes and faulted replay.  Each configuration
is held to its golden digest
(``tests/data/decision_digests.json``), recorded while a second, scalar
implementation of the pass still existed and reproduced every digest.
A property test checks the feasibility cache's floor directly (a size
it condemns must be one the allocator's real search also rejects), and
another checks run invariants on randomized traces.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import check_allocation
from repro.core.registry import make_allocator
from repro.sched.job import Job
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree
from tests.decision_digests import (
    QUEUE_ORDERS,
    SCHEMES,
    STEP_MODES,
    golden,
    pass_configs,
    pass_digest,
    pass_name,
    run_pass,
)


def _assert_golden(name):
    """Replay one pass configuration and compare it to its digest."""
    result = run_pass(**pass_configs()[name])
    assert pass_digest(result) == golden("pass", name)
    return result


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("queue_order", QUEUE_ORDERS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_easy_twin(scheme, queue_order, step_interval):
    _assert_golden(pass_name("easy", scheme, queue_order, step_interval))


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_conservative_twin(scheme, step_interval):
    _assert_golden(
        pass_name("conservative", scheme, step_interval=step_interval)
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_faulted_twin(scheme):
    result = _assert_golden(pass_name("faulted", scheme))
    assert result.faults_injected > 0  # the timeline actually fired


def test_prefilter_actually_fires():
    """On a contended trace the pass must skip real work: the prefilter
    counter moves, and the attempts it replaces stay equal to the
    recorded digest (checked by ``_assert_golden`` elsewhere)."""
    result = run_pass("ta")
    assert result.stats.queue_prefiltered > 0
    assert result.stats.cache_hits > 0
    assert result.stats.queue_prefiltered >= result.stats.cache_hits


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_size_cut_soundness(data):
    """Any size the feasibility cache's floor condemns is one the real
    search also rejects — over random occupancy states of every scheme.
    The search runs on a fresh allocator holding the same claims, whose
    own floor is flushed before each probe, so only a search answers."""
    scheme = data.draw(st.sampled_from(SCHEMES))
    tree = FatTree.from_radix(8)
    alloc = make_allocator(scheme, tree)
    jid = 0
    for _ in range(data.draw(st.integers(min_value=5, max_value=40))):
        jid += 1
        alloc.allocate(jid, data.draw(st.integers(min_value=1, max_value=40)))
    fresh = make_allocator(scheme, tree)
    for a in alloc.allocations.values():
        fresh._claim(a, None)
        fresh.allocations[a.job_id] = a
    for size in range(1, tree.num_nodes + 1):
        if alloc.cut_infeasible(alloc.effective_size(size), None):
            fresh.invalidate_feasibility_cache()
            assert not fresh.can_allocate(size), (scheme, size)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheme=st.sampled_from(SCHEMES),
    order=st.sampled_from(QUEUE_ORDERS),
)
def test_twin_property_random_traces(seed, scheme, order):
    """Run invariants on randomized traces: every jigsaw/laas placement
    satisfies the formal conditions, every job ends in exactly one
    terminal state, and the occupancy indexes audit clean."""
    rng = random.Random(seed)
    jobs, arrival = [], 0.0
    for i in range(rng.randint(20, 80)):
        arrival += rng.expovariate(1 / 30)
        jobs.append(Job(
            id=i, size=rng.randint(1, 128),
            runtime=rng.uniform(1.0, 300.0), arrival=arrival,
        ))
    tree = FatTree.from_radix(8)
    alloc = make_allocator(scheme, tree)
    allocate = alloc.allocate

    def checked(job_id, size, bw_need=None):
        a = allocate(job_id, size, bw_need=bw_need)
        if a is not None and scheme in ("jigsaw", "laas"):
            assert check_allocation(
                tree, a, exact_nodes=(scheme != "laas")
            ) == [], (scheme, seed, job_id)
        return a

    alloc.allocate = checked
    result = Simulator(alloc, queue_order=order).run(jobs, "prop")
    terminal = [r.job_id for r in result.jobs] + list(result.unscheduled)
    assert sorted(terminal) == [job.id for job in jobs]
    assert alloc.state.is_idle()
    alloc.state.audit()
