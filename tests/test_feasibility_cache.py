"""The allocator's cross-pass feasibility cache.

A durable failure lowers a floor keyed by (cut class, bw_need): that
effective size and every larger one in its class stay infeasible until
capacity grows — release(), or FaultInjector.repair().  These tests
pin the counter semantics, every invalidation path, the non-durability
of budget-limited (timed-out) failures, and — via a random
interleaving of allocate/release/fault/repair — that every size a floor
condemns is one a search on a fresh allocator replaying the same live
claims also rejects.
"""

import random

import pytest

from repro.core.baseline import BaselineAllocator
from repro.core.jigsaw import JigsawAllocator
from repro.core.lcs import LeastConstrainedAllocator
from repro.topology.fattree import FatTree
from repro.topology.faults import FaultInjector


@pytest.fixture
def tree():
    return FatTree.from_radix(8)  # 128 nodes


def fill(allocator, job_id=1000):
    """Claim the whole cluster with one job; returns the job id."""
    assert allocator.allocate(job_id, allocator.tree.num_nodes) is not None
    return job_id


class TestCounters:
    def test_repeated_failure_is_served_from_cache(self, tree):
        alloc = JigsawAllocator(tree)
        filler = fill(alloc)
        base_misses = alloc.stats.cache_misses
        assert alloc.allocate(1, 4) is None
        assert alloc.stats.cache_misses == base_misses + 1
        assert alloc.stats.cache_hits == 0
        assert alloc.feasibility_cache_size == 1
        # Same key again: no search, one hit, attempts still recorded.
        attempts = alloc.stats.attempts
        assert alloc.allocate(2, 4) is None
        assert alloc.stats.cache_hits == 1
        assert alloc.stats.cache_misses == base_misses + 1
        assert alloc.stats.attempts == attempts + 1
        assert alloc.feasibility_cache_keys() == ((4, None),)
        del filler

    def test_floor_serves_larger_sizes_and_searches_smaller(self, tree):
        alloc = JigsawAllocator(tree)
        fill(alloc)
        misses = alloc.stats.cache_misses
        assert alloc.allocate(1, 4) is None
        # A larger size sits above the floor: served without a search.
        assert alloc.allocate(2, 5) is None
        assert alloc.stats.cache_hits == 1
        assert alloc.feasibility_cache_keys() == ((4, None),)
        # A smaller one is searched, and its failure lowers the floor.
        assert alloc.allocate(3, 3) is None
        assert alloc.stats.cache_misses == misses + 2
        assert alloc.feasibility_cache_keys() == ((3, None),)
        assert alloc.feasibility_cache_size == 1

    def test_success_is_never_cached(self, tree):
        alloc = JigsawAllocator(tree)
        assert alloc.allocate(1, 4) is not None
        assert alloc.feasibility_cache_size == 0
        assert alloc.stats.cache_misses == 1
        assert alloc.stats.cache_hits == 0

    def test_can_allocate_consults_and_populates(self, tree):
        alloc = JigsawAllocator(tree)
        fill(alloc)
        assert not alloc.can_allocate(4)
        assert alloc.feasibility_cache_size == 1
        assert not alloc.can_allocate(4)
        assert alloc.stats.cache_hits == 1
        # A probe's cached verdict also serves a real attempt.
        assert alloc.allocate(1, 4) is None
        assert alloc.stats.cache_hits == 2

    def test_hit_rate(self, tree):
        alloc = JigsawAllocator(tree)
        assert alloc.stats.cache_hit_rate == 0.0  # never consulted
        fill(alloc)
        alloc.allocate(1, 4)
        alloc.allocate(2, 4)
        rate = alloc.stats.cache_hit_rate
        assert 0.0 < rate < 1.0
        assert rate == alloc.stats.cache_hits / (
            alloc.stats.cache_hits + alloc.stats.cache_misses
        )


class TestInvalidation:
    def test_release_clears_cache(self, tree):
        alloc = JigsawAllocator(tree)
        filler = fill(alloc)
        assert alloc.allocate(1, 4) is None
        assert alloc.feasibility_cache_size == 1
        alloc.release(filler)
        assert alloc.feasibility_cache_size == 0
        assert alloc.stats.cache_invalidations == 1
        # The previously-infeasible size now succeeds (a stale cache
        # would have wrongly refused it).
        assert alloc.allocate(2, 4) is not None

    def test_release_with_empty_cache_counts_nothing(self, tree):
        alloc = JigsawAllocator(tree)
        assert alloc.allocate(1, 4) is not None
        alloc.release(1)
        assert alloc.stats.cache_invalidations == 0

    def test_fault_repair_invalidates(self, tree):
        alloc = JigsawAllocator(tree)
        injector = FaultInjector(alloc)
        ticket = injector.fail_node(0)
        # With one node down, a full-machine job is infeasible — and the
        # verdict is cached.
        assert alloc.allocate(1, tree.num_nodes) is None
        assert alloc.feasibility_cache_size == 1
        injector.repair(ticket)
        assert alloc.feasibility_cache_size == 0
        assert alloc.stats.cache_invalidations == 1
        assert alloc.allocate(2, tree.num_nodes) is not None

    def test_direct_state_release_is_caught_by_watermark(self, tree):
        # Tests and diagnostics sometimes return nodes by mutating
        # state directly; the free-node watermark must flush the cache
        # at the next consult so stale verdicts cannot refuse a job.
        alloc = JigsawAllocator(tree)
        filler = fill(alloc)
        assert alloc.allocate(1, 4) is None
        assert alloc.feasibility_cache_size == 1
        alloc.state.release(filler)  # bypasses Allocator.release
        del alloc.allocations[filler]
        assert alloc.allocate(2, 4) is not None

    def test_manual_invalidation_is_idempotent(self, tree):
        alloc = JigsawAllocator(tree)
        fill(alloc)
        alloc.allocate(1, 4)
        alloc.invalidate_feasibility_cache()
        alloc.invalidate_feasibility_cache()
        assert alloc.stats.cache_invalidations == 1


class TestDurability:
    def test_timed_out_failure_is_not_cached(self, tree):
        # A multi-leaf job (size 8 > m1=4 nodes per leaf) needs the
        # backtracking search, and step_budget=1 makes that search give
        # up immediately even though the job is feasible.  A timeout
        # proves nothing, so nothing may enter the cache.
        alloc = LeastConstrainedAllocator(tree, step_budget=1)
        assert alloc.allocate(1, 8) is None
        assert alloc.feasibility_cache_size == 0
        # ... and the next identical attempt runs the search again
        # (a miss, not a hit).
        assert alloc.allocate(2, 8) is None
        assert alloc.stats.cache_hits == 0
        assert alloc.stats.cache_misses == 2

    def test_shortfall_after_timeout_is_cached(self, tree):
        # A free-node shortfall proves infeasibility whatever the
        # previous search did: the timeout of the call before must not
        # make it look non-durable.
        alloc = LeastConstrainedAllocator(tree, step_budget=1)
        alloc.state.claim(999, range(100))  # 28 nodes stay free
        assert alloc.allocate(1, 8) is None
        assert alloc.stats.budget_aborts == 1
        assert alloc.feasibility_cache_keys() == ()
        assert alloc.allocate(2, 64) is None
        assert alloc.stats.budget_aborts == 1
        assert alloc.feasibility_cache_keys() == ((64, None),)

    def test_exhaustive_failure_is_cached_under_budget(self, tree):
        # A generous budget lets the search fail *exhaustively*, which
        # is a durable proof even for the budget-limited scheme.
        alloc = LeastConstrainedAllocator(tree, step_budget=10_000_000)
        fill(alloc)
        assert alloc.allocate(1, 4, bw_need=1.0) is None
        assert alloc.feasibility_cache_size == 1
        assert alloc.allocate(2, 4, bw_need=1.0) is None
        assert alloc.stats.cache_hits == 1

    def test_bw_need_is_part_of_the_key(self, tree):
        alloc = LeastConstrainedAllocator(tree, step_budget=10_000_000)
        fill(alloc)
        assert alloc.allocate(1, 4, bw_need=1.0) is None
        assert alloc.allocate(2, 4, bw_need=2.0) is None
        assert alloc.feasibility_cache_size == 2


def assert_floors_sound(alloc, fresh):
    """Every size up to the free-node count that ``alloc``'s floors
    condemn is one a search on ``fresh`` — the same live claims — also
    rejects.  ``fresh``'s own floors are flushed before each probe, so
    only a search can answer it."""
    for bw_need in {bw for _, bw in alloc.feasibility_cache_keys()}:
        for size in range(1, alloc.state.free_nodes_total + 1):
            if not alloc.cut_infeasible(alloc.effective_size(size), bw_need):
                continue
            fresh.invalidate_feasibility_cache()
            assert not fresh.can_allocate(size, bw_need), (
                f"cache says {size} nodes (bw {bw_need}) are infeasible "
                f"but a fresh search succeeds"
            )


class TestStatefulInterleaving:
    """Random allocate/release/fault/repair against Jigsaw; after every
    step the derived-state audit must pass and every size the floors
    condemn must be rejected by a *fresh* allocator replaying the same
    live claims."""

    def _fresh_replica(self, tree, alloc, fault_claims):
        fresh = JigsawAllocator(tree)
        for a in alloc.allocations.values():
            fresh.state.claim(a.job_id, a.nodes, a.leaf_links, a.spine_links)
        for fault_id, node in fault_claims.items():
            fresh.state.claim(fault_id, [node])
        return fresh

    def _check(self, tree, alloc, fault_claims):
        alloc.state.audit()
        if alloc.feasibility_cache_size:
            assert_floors_sound(
                alloc, self._fresh_replica(tree, alloc, fault_claims)
            )

    def test_interleaved_operations(self):
        tree = FatTree.from_radix(6)  # 54 nodes
        rng = random.Random(20210601)
        alloc = JigsawAllocator(tree)
        injector = FaultInjector(alloc)
        live = []
        fault_claims = {}  # fault_id -> node
        tickets = {}
        next_id = 0
        for _ in range(250):
            op = rng.random()
            if op < 0.45:
                next_id += 1
                size = rng.randint(1, tree.num_nodes)
                got = alloc.allocate(next_id, size)
                # The cache and a fresh exhaustive probe must agree on
                # the attempt we just made.
                fresh = self._fresh_replica(tree, alloc, fault_claims)
                if got is not None:
                    live.append(next_id)
                    fresh.state.release(next_id)  # probe pre-claim state
                    assert fresh.can_allocate(size)
                else:
                    assert not fresh.can_allocate(size)
            elif op < 0.75 and live:
                alloc.release(live.pop(rng.randrange(len(live))))
            elif op < 0.9:
                free = [n for n in range(tree.num_nodes)
                        if alloc.state.node_owner[n] == -1]
                if free:
                    node = rng.choice(free)
                    ticket = injector.fail_node(node)
                    tickets[ticket.fault_id] = ticket
                    fault_claims[ticket.fault_id] = node
            elif tickets:
                fault_id = rng.choice(list(tickets))
                injector.repair(tickets.pop(fault_id))
                del fault_claims[fault_id]
            self._check(tree, alloc, fault_claims)
        # The sequence must actually have exercised the cache.
        assert alloc.stats.cache_hits + alloc.stats.cache_misses > 0
        assert alloc.stats.cache_invalidations > 0

    def test_baseline_scheme_same_contract(self):
        # The cache lives in the base class; a quick sweep on the
        # contiguous-range baseline catches base-class regressions that
        # Jigsaw's richer search might mask.
        tree = FatTree.from_radix(6)
        rng = random.Random(7)
        alloc = BaselineAllocator(tree)
        live = []
        next_id = 0
        for _ in range(150):
            if rng.random() < 0.6 or not live:
                next_id += 1
                if alloc.allocate(next_id, rng.randint(1, 30)) is not None:
                    live.append(next_id)
            else:
                alloc.release(live.pop(rng.randrange(len(live))))
            alloc.state.audit()
            fresh = BaselineAllocator(tree)
            for a in alloc.allocations.values():
                fresh.state.claim(a.job_id, a.nodes,
                                  a.leaf_links, a.spine_links)
            assert_floors_sound(alloc, fresh)
