"""Queue hygiene for fault-requeued jobs, property-style.

A ``requeue-remaining`` victim can be killed repeatedly (overlapping
faults hit it every time it restarts).  After *every* kill the run's
bookkeeping must hold:

* ``work_frac`` is monotone non-increasing per job (checkpointed work
  never un-saves itself);
* the killed job is in the waiting queue exactly once — never twice
  (a second entry would let the pass offer a running job to the
  allocator);
* the waiting queue holds no running job.

The checks are wrapped around ``_RunState.kill_job`` and evaluated on
seeded fault timelines across all four queue orders.
"""

import pytest

from repro.core.baseline import BaselineAllocator
from repro.sched.job import Job
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator, _RunState
from repro.topology.fattree import FatTree

SEEDS = (1, 2)


def _jobs(n=120):
    return [
        Job(
            id=i + 1,
            size=(i * 13) % 48 + 1,
            runtime=1500.0 + (i * 97) % 1100,
            arrival=i * 25.0,
        )
        for i in range(n)
    ]


def _check_structures(state, victim):
    """The victim waits in the queue exactly once, and no running job
    is queued."""
    assert sum(1 for j in state.queue if j is victim) == 1
    assert not any(j.id in state.running for j in state.queue)


@pytest.mark.parametrize("queue_order", Simulator.QUEUE_ORDERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_requeue_hygiene_under_overlapping_faults(
    monkeypatch, queue_order, seed
):
    tree = FatTree.from_radix(8)
    timeline = FaultTimeline.synthetic(
        tree.num_nodes, mttf=3000.0, mttr=300.0, horizon=20_000.0,
        seed=seed,
    )
    kills_per_job = {}
    frac_seen = {}

    orig_kill = _RunState.kill_job

    def checked_kill(self, job, now, **kw):
        orig_kill(self, job, now, **kw)
        kills_per_job[job.id] = kills_per_job.get(job.id, 0) + 1
        frac = self.work_frac.get(job.id, 1.0)
        assert frac <= frac_seen.get(job.id, 1.0) + 1e-12
        assert 0.0 <= frac <= 1.0
        frac_seen[job.id] = frac
        assert job.id not in self.running
        assert job.id not in self.live_comp
        _check_structures(self, job)

    monkeypatch.setattr(_RunState, "kill_job", checked_kill)

    jobs = _jobs()
    sim = Simulator(
        BaselineAllocator(tree),
        queue_order=queue_order,
        fault_timeline=timeline,
        fault_victim_policy="requeue-remaining",
        checkpoint_interval=600.0,
    )
    result = sim.run(jobs)

    assert kills_per_job, "timeline never killed a job — scenario too tame"
    # The scenario must actually exercise repeat victims, or the
    # monotonicity/liveness checks above are vacuous.
    assert any(n >= 2 for n in kills_per_job.values()), (
        "no job was killed twice; strengthen the timeline"
    )
    # Every kill was resubmitted and (with repairs active) finished.
    assert result.resubmissions == sum(kills_per_job.values())
    assert len(result.jobs) == len(jobs)
    assert not result.unscheduled
