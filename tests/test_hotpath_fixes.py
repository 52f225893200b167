"""Regression tests for the scheduler hot-path fixes.

Covers: the waiting queue's bound (started jobs leave it, so it stays
as small as the trace's backlog on long traces), unscheduled jobs
being reported as ids and logged, LinkCapacityState clamping only the
links a release touched, and ClusterState.claim rejecting out-of-range
node ids with AllocationError instead of a raw IndexError (or silent
negative-index wrap-around).
"""

from collections import Counter

import pytest

from repro.core.baseline import BaselineAllocator
from repro.sched.job import Job
from repro.sched.log import ScheduleLog
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree
from repro.topology.faults import FaultInjector
from repro.topology.state import AllocationError, ClusterState, LinkCapacityState


@pytest.fixture
def tree():
    return FatTree.from_radix(8)  # 128 nodes


class TestBoundedQueueBookkeeping:
    """The waiting queue holds only jobs that are waiting: a job leaves
    it in the pass that starts it, whether from the head or by
    backfill.  Its high-water mark on these traces is therefore the
    largest backlog the trace ever builds, a few jobs."""

    def test_fifo_queue_stays_bounded_on_long_trace(self, tree):
        # 2000 jobs, each starting as the previous one completes: the
        # backlog never exceeds a couple of jobs.
        n_jobs = 2000
        jobs = [
            Job(id=i, size=1, runtime=1.0, arrival=float(i))
            for i in range(n_jobs)
        ]
        sim = Simulator(BaselineAllocator(tree))
        result = sim.run(jobs)
        assert len(result.jobs) == n_jobs
        assert not result.unscheduled
        assert sim.peak_queue_len <= 2, (
            f"waiting queue grew to {sim.peak_queue_len} entries "
            f"for a trace whose backlog never exceeds a couple of jobs"
        )

    def test_started_out_of_order_is_pruned(self, tree):
        # Each round: a blocker fills 120 nodes, a same-size job queues
        # behind it as the blocked head, and two small jobs backfill
        # into the 8 spare nodes.  The backfilled jobs must leave the
        # queue when they start, so it never holds more than one
        # round's jobs.
        jobs = []
        jid = 0
        rounds = 200
        for r in range(rounds):
            t = r * 30.0
            jid += 1
            jobs.append(Job(id=jid, size=120, runtime=10.0, arrival=t))
            jid += 1
            jobs.append(Job(id=jid, size=120, runtime=5.0, arrival=t + 1.0))
            for k in range(2):
                jid += 1
                jobs.append(
                    Job(id=jid, size=4, runtime=2.0, arrival=t + 1.5 + 0.1 * k)
                )
        log = ScheduleLog()
        sim = Simulator(BaselineAllocator(tree), event_log=log)
        result = sim.run(jobs)
        assert len(result.jobs) == len(jobs)
        # Backfills must actually have happened for this test to mean
        # anything.
        assert log.start_mechanisms()["backfill"] >= rounds
        assert sim.peak_queue_len <= 4, (
            f"waiting queue grew to {sim.peak_queue_len} entries "
            f"across {rounds} rounds of four jobs"
        )

    def _backfill_heavy_trace(self):
        # Every round a blocker occupies the machine, a same-size job
        # waits as the blocked head, and two small-but-long jobs sort
        # *behind* the head under "largest" (by size) and "sjf" (by
        # estimate) yet fit the spare nodes — so they backfill out of
        # priority order.
        jobs = []
        jid = 0
        for r in range(150):
            t = r * 30.0
            jid += 1
            jobs.append(Job(id=jid, size=120, runtime=10.0, arrival=t))
            jid += 1
            jobs.append(Job(id=jid, size=120, runtime=5.0, arrival=t + 1.0))
            for k in range(2):
                jid += 1
                jobs.append(
                    Job(id=jid, size=4, runtime=12.0, arrival=t + 1.5 + 0.1 * k)
                )
        return jobs

    def test_priority_heap_stale_entries_stay_bounded(self, tree):
        # Jobs backfilled out of priority order must leave the priority
        # queue when they start, not linger until they reach its front.
        jobs = self._backfill_heavy_trace()
        log = ScheduleLog()
        sim = Simulator(
            BaselineAllocator(tree), queue_order="largest", event_log=log
        )
        result = sim.run(jobs)
        assert len(result.jobs) == len(jobs)
        # Backfills must actually have happened for this test to bite.
        assert log.start_mechanisms()["backfill"] >= 100
        assert sim.peak_queue_len <= 4, (
            f"priority queue grew to {sim.peak_queue_len} entries"
        )

    def test_compaction_mid_backfill_pass_cannot_revive_entries(self, tree):
        # Regression: under the old lazily-deleted priority heap, a
        # backfill inside a window pass could make an already-started
        # job look waiting again, and it was started a second time,
        # silently losing other jobs.  A dense all-at-zero mixed-size
        # queue under a *constrained* allocator (fragmentation blocks
        # the head while backfills keep landing) interleaves many
        # started jobs with waiting ones in every window.
        from repro.core.jigsaw import JigsawAllocator

        jobs = [
            Job(id=i, size=(i * 5) % 30 + 1, runtime=5.0 + i % 7)
            for i in range(200)
        ]
        backfills = 0
        for order in ("sjf", "smallest", "largest"):
            log = ScheduleLog()
            sim = Simulator(
                JigsawAllocator(tree), queue_order=order, event_log=log
            )
            result = sim.run(jobs)
            starts = Counter(e.job_id for e in log.events if e.kind == "start")
            assert starts == Counter(job.id for job in jobs), order
            assert len(result.jobs) == len(jobs), order
            backfills += log.start_mechanisms()["backfill"]
        # Out-of-order starts must actually have happened (sjf and
        # largest backfill here; smallest starts everything in order).
        assert backfills > 0


class TestUnscheduledJobs:
    def test_unscheduled_ids_and_log(self, tree):
        # With one node down, a full-machine job can never start; the
        # simulator must drain it as unscheduled (reporting the *id*)
        # and log the decision.
        log = ScheduleLog()
        sim = Simulator(BaselineAllocator(tree), event_log=log)
        FaultInjector(sim.allocator).fail_node(0)
        result = sim.run([Job(id=7, size=tree.num_nodes, runtime=5.0)])
        assert result.unscheduled == [7]
        assert all(isinstance(j, int) for j in result.unscheduled)
        assert not result.jobs
        events = [e for e in log.events if e.kind == "unscheduled"]
        assert len(events) == 1
        assert events[0].job_id == 7
        assert events[0].size == tree.num_nodes


class TestLinkReleaseClamp:
    def test_float_residue_is_clamped_on_touched_links(self, tree):
        links = LinkCapacityState(tree)
        # 0.3 and 0.6 have no exact binary representation: 0.3 + 0.6 -
        # 0.6 - 0.3 is a tiny *negative* number in floats, which must be
        # clamped to exactly zero on the touched link.
        link = (0, 0)
        links.claim(1, [link], [], need=0.3)
        links.claim(2, [link], [], need=0.6)
        links.release(2)
        links.release(1)
        assert links.leaf_bw[0] == 0.0

    def test_untouched_links_are_left_alone(self, tree):
        # The old code clamped the *entire* arrays on every release,
        # masking accounting bugs on links the job never used.  Plant a
        # negative value on an untouched link and check a release
        # elsewhere does not launder it.
        links = LinkCapacityState(tree)
        links.claim(1, [(0, 0)], [(0, 0, 0)], need=0.5)
        # flat indexes of leaf link (3, 1) and spine link (1, 0, 0)
        leaf_3_1 = 3 * tree.l2_per_pod + 1
        spine_1_0_0 = tree.l2_per_pod * tree.spines_per_group
        links.leaf_bw[leaf_3_1] = -1e-12
        links.spine_bw[spine_1_0_0] = -1e-12
        links.release(1)
        assert links.leaf_bw[0] == 0.0
        assert links.spine_bw[0] == 0.0
        assert links.leaf_bw[leaf_3_1] == -1e-12
        assert links.spine_bw[spine_1_0_0] == -1e-12


class TestClaimBounds:
    def test_node_id_past_the_end(self, tree):
        state = ClusterState(tree)
        with pytest.raises(AllocationError, match="outside the cluster"):
            state.claim(1, [tree.num_nodes])
        state.audit()
        assert state.free_nodes_total == tree.num_nodes

    def test_negative_node_id(self, tree):
        # indexing would silently wrap -1 to the last node; the claim must
        # be rejected instead.
        state = ClusterState(tree)
        with pytest.raises(AllocationError, match="outside the cluster"):
            state.claim(1, [-1])
        state.audit()
        assert state.free_nodes_total == tree.num_nodes
        assert state.node_owner[tree.num_nodes - 1] == -1

    def test_partial_claim_not_applied(self, tree):
        # A claim that mixes valid and invalid ids must not leave the
        # valid prefix claimed.
        state = ClusterState(tree)
        with pytest.raises(AllocationError):
            state.claim(1, [0, 1, tree.num_nodes + 5])
        state.audit()
        assert state.free_nodes_total == tree.num_nodes
        assert state.node_owner[0] == -1
