"""Twin-driver equivalence: the columnar event drain vs its scalar twin.

The columnar drain promises *identical decisions and metrics* — every
placement, every area accumulator bit, every histogram count — while
retiring allocations through one ``release_many`` per completion batch
and enqueuing arrivals as a bulk transition.  These tests run each
configuration through both drains and hold them to it, and property
tests audit ``release_many`` against sequential ``release`` over random
occupancy states (the full incremental-index state must match).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_allocator
from repro.sched.job import Job
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator, _RunState
from repro.topology.fattree import FatTree, LinkId
from repro.topology.state import AllocationError, ClusterState

SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
QUEUE_ORDERS = ("fifo", "sjf", "smallest", "largest")
STEP_MODES = (None, 300.0)  # event-driven and batch-step


def _jobs(n=250, seed=0):
    rng = random.Random(seed)
    jobs, arrival = [], 0.0
    for i in range(n):
        arrival += rng.expovariate(1 / 20)
        jobs.append(Job(
            id=i,
            size=rng.randint(1, 100),
            runtime=rng.uniform(10.0, 400.0),
            arrival=arrival,
        ))
    return jobs


def _run(scheme, use_columnar_events, **sim_kwargs):
    tree = FatTree.from_radix(8)
    sim = Simulator(
        make_allocator(scheme, tree),
        use_columnar_events=use_columnar_events,
        **sim_kwargs,
    )
    result = sim.run(_jobs(), "twin")
    return sim, result


def _assert_twin(scheme, **sim_kwargs):
    """Run both drains and assert identical decisions *and* metrics.

    Unlike the scheduling-pass twins, the event drains promise
    bit-identical area accumulators and histogram counts too — the
    per-event float-accumulation order is preserved by construction.
    """
    csim, col = _run(scheme, True, **sim_kwargs)
    ssim, sca = _run(scheme, False, **sim_kwargs)
    assert [(j.job_id, j.start, j.end) for j in col.jobs] == [
        (j.job_id, j.start, j.end) for j in sca.jobs
    ]
    assert col.makespan == sca.makespan
    assert col.busy_area == sca.busy_area
    assert col.demand_area == sca.demand_area
    assert col.total_busy_area == sca.total_busy_area
    assert col.instant.counts == sca.instant.counts
    assert col.stats.attempts == sca.stats.attempts
    assert col.unscheduled == sca.unscheduled
    assert col.resubmissions == sca.resubmissions
    assert col.wasted_node_seconds == sca.wasted_node_seconds
    assert col.degraded_node_seconds == sca.degraded_node_seconds
    assert csim.peak_queue_len == ssim.peak_queue_len
    return col, sca


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("queue_order", QUEUE_ORDERS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_easy_twin(scheme, queue_order, step_interval):
    _assert_twin(
        scheme, queue_order=queue_order, step_interval=step_interval
    )


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_conservative_twin(scheme, step_interval):
    _assert_twin(
        scheme, backfill_policy="conservative", step_interval=step_interval
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_faulted_twin(scheme):
    timeline = FaultTimeline.synthetic(
        128, mttf=40_000.0, mttr=4_000.0, horizon=20_000.0, seed=1
    )
    col, _ = _assert_twin(
        scheme,
        fault_timeline=timeline,
        fault_victim_policy="requeue-remaining",
        checkpoint_interval=600.0,
    )
    assert col.faults_injected > 0  # the timeline actually fired


def test_columnar_drain_actually_taken(monkeypatch):
    """Batch-step rounds batch their completions — and the scalar
    knob, per-event telemetry, or the env variable all force the twin.
    (Event-driven rounds drain one timestamp at a time and so take the
    small-round scalar fallback; decisions are identical either way.)
    """
    calls = {"batch": 0}
    orig = _RunState.complete_batch

    def counting(self, times, slots):
        calls["batch"] += 1
        return orig(self, times, slots)

    monkeypatch.setattr(_RunState, "complete_batch", counting)
    _run("jigsaw", True, step_interval=300.0)
    assert calls["batch"] > 0

    calls["batch"] = 0
    _run("jigsaw", False, step_interval=300.0)  # explicit scalar twin
    assert calls["batch"] == 0

    from repro.obs.sampler import TimeSeriesSampler

    calls["batch"] = 0
    _run("jigsaw", True, step_interval=300.0,
         sampler=TimeSeriesSampler(600.0))
    assert calls["batch"] == 0  # per-event telemetry forces scalar


def test_env_knob_selects_scalar_events(monkeypatch):
    monkeypatch.setenv("REPRO_NAIVE_EVENTS", "1")
    sim, _ = _run("jigsaw", True)  # env overrides the argument
    assert not sim.use_columnar_events
    monkeypatch.setenv("REPRO_NAIVE_EVENTS", "0")
    sim, _ = _run("jigsaw", True)  # "0" does not
    assert sim.use_columnar_events


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheme=st.sampled_from(SCHEMES),
    order=st.sampled_from(QUEUE_ORDERS),
)
def test_twin_property_random_traces(seed, scheme, order):
    """Columnar and scalar drains agree on randomized traces too."""
    rng = random.Random(seed)
    jobs, arrival = [], 0.0
    for i in range(rng.randint(20, 80)):
        arrival += rng.expovariate(1 / 30)
        jobs.append(Job(
            id=i, size=rng.randint(1, 128),
            runtime=rng.uniform(1.0, 300.0), arrival=arrival,
        ))
    results = []
    for columnar in (True, False):
        tree = FatTree.from_radix(8)
        sim = Simulator(
            make_allocator(scheme, tree),
            queue_order=order,
            use_columnar_events=columnar,
        )
        results.append(sim.run(list(jobs), "prop"))
    col, sca = results
    assert [(j.job_id, j.start, j.end) for j in col.jobs] == [
        (j.job_id, j.start, j.end) for j in sca.jobs
    ]
    assert col.busy_area == sca.busy_area
    assert col.demand_area == sca.demand_area
    assert col.stats.attempts == sca.stats.attempts


# -- release_many vs sequential release ---------------------------------

def _random_claims(state, tree, rng, max_jobs=12):
    """Claim random node sets (plus some leaf links) for a few jobs."""
    free = list(range(tree.num_nodes))
    rng.shuffle(free)
    pos = 0
    job_ids = []
    for job_id in range(rng.randint(1, max_jobs)):
        k = rng.randint(1, 10)
        if pos + k > len(free):
            break
        nodes = free[pos:pos + k]
        pos += k
        links = []
        for leaf in sorted({n // tree.m1 for n in nodes}):
            i = rng.randrange(tree.m2)
            if state.leaf_up_mask[leaf] & (1 << i):
                links.append(LinkId(leaf, i))
        state.claim(job_id, nodes, tuple(links))
        job_ids.append(job_id)
    return job_ids


def _index_snapshot(state):
    """A copy of every occupancy index (later mutations cannot reach it)."""
    return (
        list(state.node_owner),
        list(state.free_per_leaf),
        list(state.pod_free),
        list(state.full_free_leaves),
        [list(row) for row in state._leaf_ge],
        [list(row) for row in state._leaf_buckets],
        list(state.leaf_up_mask),
        [list(row) for row in state.spine_free_mask],
        state.free_nodes_total,
        sorted(state._claims),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    subset_seed=st.integers(min_value=0, max_value=100_000),
)
def test_release_many_matches_sequential_release(seed, subset_seed):
    """``release_many`` leaves every occupancy index in exactly the
    state N sequential ``release`` calls produce, and passes the full
    consistency audit."""
    tree = FatTree.from_radix(8)
    rng = random.Random(seed)
    bulk = ClusterState(tree)
    job_ids = _random_claims(bulk, tree, rng)
    seq = ClusterState(tree)
    _random_claims(seq, tree, random.Random(seed))
    victims = random.Random(subset_seed).sample(
        job_ids, random.Random(subset_seed).randint(0, len(job_ids))
    )
    recs_bulk = bulk.release_many(victims)
    recs_seq = [seq.release(v) for v in victims]
    assert [r.job_id for r in recs_bulk] == [r.job_id for r in recs_seq]
    assert [r.nodes for r in recs_bulk] == [r.nodes for r in recs_seq]
    assert _index_snapshot(bulk) == _index_snapshot(seq)
    bulk.audit()


def test_release_many_validates_before_mutating():
    tree = FatTree.from_radix(8)
    state = ClusterState(tree)
    state.claim(1, [0, 1])
    state.claim(2, [2, 3])
    before = _index_snapshot(state)
    with pytest.raises(AllocationError):
        state.release_many([1, 99])  # unknown id
    with pytest.raises(AllocationError):
        state.release_many([1, 1])  # duplicate id
    assert _index_snapshot(state) == before
    state.release_many([2, 1])
    assert state.is_idle()
    state.audit()


def test_allocator_release_many_groups_invalidation():
    """One batch release = one cache invalidation (when the cache held
    proven failures), same ``releases`` count as N scalar calls."""
    tree = FatTree.from_radix(8)
    alloc = make_allocator("jigsaw", tree)
    ids = []
    for job_id in range(1, 5):
        assert alloc.allocate(job_id, 30) is not None
        ids.append(job_id)
    # Prove a failure so the cache has something to invalidate.
    assert alloc.allocate(99, tree.num_nodes) is None
    assert alloc.feasibility_cache_size > 0
    inv_before = alloc.stats.cache_invalidations
    rel_before = alloc.stats.releases
    alloc.release_many(ids)
    assert alloc.stats.cache_invalidations == inv_before + 1
    assert alloc.stats.releases == rel_before + len(ids)
    assert alloc.feasibility_cache_size == 0
    assert alloc.state.is_idle()
