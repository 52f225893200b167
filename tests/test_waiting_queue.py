"""The waiting queue holds exactly the waiting jobs, in queue order.

``_RunState.queue`` is what the scheduling pass reads: the head is
``queue[0]`` and a backfill window is a slice of it.  So a job that
started, from the head or by backfill, must have left it, and a job
that waits must be in it once.  After every scheduling pass and every
fault kill, for every queue order and backfill policy, both drive
modes and faulted ``requeue-remaining`` replays:

* the queue holds each job whose job-table state is ``QUEUED`` exactly
  once, and no other job;
* under a priority order, the jobs' keys are non-decreasing.
"""

from collections import Counter

import pytest

from repro.core.registry import make_allocator
from repro.sched.eventcore import JobTable
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator, _RunState
from repro.topology.fattree import FatTree
from tests.decision_digests import QUEUE_ORDERS, STEP_MODES, pass_jobs


def _faulted(queue_order):
    return dict(
        queue_order=queue_order,
        fault_timeline=FaultTimeline.synthetic(
            128, mttf=20_000.0, mttr=2_000.0, horizon=20_000.0, seed=1
        ),
        fault_victim_policy="requeue-remaining",
        checkpoint_interval=600.0,
    )


CONFIGS = {
    **{
        f"easy/{order}/{step}": dict(queue_order=order, step_interval=step)
        for order in QUEUE_ORDERS
        for step in STEP_MODES
    },
    **{
        f"conservative/{step}": dict(
            backfill_policy="conservative", step_interval=step
        )
        for step in STEP_MODES
    },
    **{f"faulted/{order}": _faulted(order) for order in QUEUE_ORDERS},
}


def check_queue(state):
    """The queue is exactly the ``QUEUED`` jobs, each once, in key
    order under a priority queue order."""
    table = state.table
    waiting = table.ids[table.state == JobTable.QUEUED]
    assert sorted(job.id for job in state.queue) == sorted(waiting.tolist())
    if state.priority_key is not None:
        keys = [state.priority_key(job) for job in state.queue]
        assert all(a <= b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("name", CONFIGS)
def test_queue_holds_exactly_the_waiting_jobs(monkeypatch, name):
    calls = {"schedule": 0, "kill_job": 0}

    def checked(method):
        original = getattr(_RunState, method)

        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            calls[method] += 1
            check_queue(self)
            return out

        monkeypatch.setattr(_RunState, method, wrapper)

    checked("schedule")
    checked("kill_job")
    # Starts by mechanism, counted without an event log so the run
    # keeps its columnar event drain.
    starts = Counter()
    try_start = _RunState.try_start

    def counted_try_start(self, job, now, via="fifo"):
        started = try_start(self, job, now, via=via)
        starts[via] += started
        return started

    monkeypatch.setattr(_RunState, "try_start", counted_try_start)
    sim = Simulator(
        make_allocator("jigsaw", FatTree.from_radix(8)), **CONFIGS[name]
    )
    jobs = pass_jobs()
    result = sim.run(jobs, name)

    assert calls["schedule"] == result.scheduling_rounds
    assert len(result.jobs) == len(jobs)
    # For the checks to bite, jobs must have waited behind one another
    # and started out of queue order (except smallest-first, under
    # which this trace never lets a job pass a blocked smaller one),
    # and a faulted replay must have killed jobs.
    assert sim.peak_queue_len > 1
    if CONFIGS[name].get("queue_order") != "smallest":
        assert starts["backfill"] + starts["reserved"] > 0
    if name.startswith("faulted/"):
        assert calls["kill_job"] == result.resubmissions > 0
