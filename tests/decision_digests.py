"""Golden decision digests: the recorded output every decision test holds
the current code to.

Each configuration below is replayed and reduced to a digest of its
decisions.  ``tests/data/decision_digests.json`` stores the digests as
recorded when the scheduling pass and the allocator searches each still
had a second, independently written implementation; both
implementations reproduced every digest, so a decision change now fails
against that recorded output instead of against a second copy of the
code.

Three families:

* ``pass`` — whole simulations on a radix-8 tree: five schemes × four
  queue orders × {event-driven, Δt=300} under EASY, the conservative
  policy × {event-driven, Δt=300}, and a faulted replay.  Digest: the
  job records, makespan, charged allocator attempts and leftovers.
* ``search`` — random allocate/release streams straight against one
  allocator.  Digest: the per-step placement stream (nodes, links and
  shape of every placement, ``None`` for every failure), plus the
  backtracking steps of the LC family, Jigsaw and LaaS (and the LC
  family's budget aborts).
* ``provenance`` — the per-job provenance ledger of a Synth-16 replay
  per scheme.

Regenerate (only when a decision change is intended)::

    PYTHONPATH=src python -m tests.decision_digests --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.core.conditions import check_allocation
from repro.core.registry import make_allocator
from repro.experiments.runner import paper_setup, run_scheme
from repro.sched.job import Job
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree

DATA = Path(__file__).parent / "data" / "decision_digests.json"

SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
QUEUE_ORDERS = ("fifo", "sjf", "smallest", "largest")
STEP_MODES = (None, 300.0)  # event-driven and batch-step

#: columns of the provenance ledger that break a skip down by reason;
#: the ledger digest keeps only their sum
SKIP_COLUMNS = ("skip_cache", "skip_screen", "skip_search", "skip_budget")


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Scheduling-pass configurations
# ----------------------------------------------------------------------
def pass_name(policy, scheme, queue_order="fifo", step_interval=None):
    if policy == "faulted":
        return f"faulted/{scheme}"
    step = "event" if step_interval is None else f"dt{step_interval:g}"
    if policy == "conservative":
        return f"conservative/{scheme}/{step}"
    return f"easy/{scheme}/{queue_order}/{step}"


def pass_configs():
    """``name -> Simulator keyword arguments`` for every pass config."""
    out = {}
    for scheme in SCHEMES:
        for order in QUEUE_ORDERS:
            for step in STEP_MODES:
                out[pass_name("easy", scheme, order, step)] = dict(
                    scheme=scheme, queue_order=order, step_interval=step,
                )
        for step in STEP_MODES:
            out[pass_name("conservative", scheme, step_interval=step)] = dict(
                scheme=scheme, backfill_policy="conservative",
                step_interval=step,
            )
        out[pass_name("faulted", scheme)] = dict(
            scheme=scheme,
            fault_timeline=FaultTimeline.synthetic(
                128, mttf=40_000.0, mttr=4_000.0, horizon=20_000.0, seed=1
            ),
            fault_victim_policy="requeue-remaining",
            checkpoint_interval=600.0,
        )
    return out


def pass_jobs():
    rng = random.Random(0)
    jobs, arrival = [], 0.0
    for i in range(250):
        arrival += rng.expovariate(1 / 20)
        jobs.append(Job(
            id=i,
            size=rng.randint(1, 100),
            runtime=rng.uniform(10.0, 400.0),
            arrival=arrival,
        ))
    return jobs


def run_pass(scheme, **sim_kwargs):
    """Replay the pass trace; returns its ``SimResult``."""
    sim = Simulator(make_allocator(scheme, FatTree.from_radix(8)),
                    **sim_kwargs)
    return sim.run(pass_jobs(), "digest")


def pass_digest(result) -> dict:
    return {
        "records_sha256": _sha(
            [(j.job_id, j.start, j.end) for j in result.jobs]
        ),
        "makespan": result.makespan,
        "alloc_attempts": result.stats.attempts,
        "unscheduled": list(result.unscheduled),
    }


# ----------------------------------------------------------------------
# Allocator-search configurations
# ----------------------------------------------------------------------
def search_configs():
    """``name -> drive_placements keyword arguments``."""
    tree = FatTree.from_radix(8)
    out = {}
    for scheme in ("jigsaw", "laas", "ta", "lc+s", "lc"):
        out[f"small/{scheme}"] = dict(
            scheme=scheme, seed=11, steps=120, max_size=10)
    for scheme in ("jigsaw", "laas", "ta", "lc+s"):
        out[f"pod_spanning/{scheme}"] = dict(
            scheme=scheme, seed=12, steps=80,
            max_size=tree.nodes_per_pod + tree.m1)
    # A budget small enough that LC+S searches genuinely time out.
    out["lcs_tight_budget"] = dict(
        scheme="lc+s", seed=13, steps=100,
        max_size=tree.nodes_per_pod + 2 * tree.m1, step_budget=40)
    out["effort_counters"] = dict(
        scheme="jigsaw", seed=14, steps=100, max_size=20)
    return out


def _placement(alloc):
    if alloc is None:
        return None
    return [
        [int(n) for n in alloc.nodes],
        [[int(x) for x in link] for link in alloc.leaf_links],
        [[int(x) for x in link] for link in alloc.spine_links],
        repr(alloc.shape),
    ]


def drive_placements(scheme, seed, steps, max_size, **kwargs):
    """One random allocate/release stream against a fresh allocator.

    Every jigsaw/laas placement must satisfy the formal conditions and
    the occupancy indexes must audit clean at the end.  The LC family's
    digest also pins its step count and budget aborts: its step budget
    binds, so the step at which a search times out is a decision.
    Jigsaw's and LaaS's digests pin their ``backtrack_steps``: it
    decides nothing, but a search-path rewrite must spend exactly the
    recorded steps.  Returns ``(allocator, digest)``.
    """
    tree = FatTree.from_radix(8)
    alloc = make_allocator(scheme, tree, **kwargs)
    rng = random.Random(seed)
    live, stream = [], []
    jid = placed = failed = 0
    for _ in range(steps):
        if live and rng.random() < 0.4:
            alloc.release(live.pop(rng.randrange(len(live))))
            continue
        jid += 1
        a = alloc.allocate(jid, rng.randint(1, max_size))
        stream.append(_placement(a))
        if a is None:
            failed += 1
            continue
        if scheme in ("jigsaw", "laas"):
            assert check_allocation(
                tree, a, exact_nodes=(scheme != "laas")
            ) == [], (scheme, jid)
        live.append(jid)
        placed += 1
    assert placed, "workload never placed a job — not a meaningful test"
    alloc.state.audit()
    digest = {
        "placements_sha256": _sha(stream),
        "placed": placed,
        "failed": failed,
    }
    if scheme in ("lc+s", "lc"):
        digest["backtrack_steps"] = alloc.stats.backtrack_steps
        digest["budget_aborts"] = alloc.stats.budget_aborts
    elif scheme in ("jigsaw", "laas"):
        digest["backtrack_steps"] = alloc.stats.backtrack_steps
    return alloc, digest


# ----------------------------------------------------------------------
# Provenance-ledger configurations
# ----------------------------------------------------------------------
def run_provenance(scheme):
    setup = paper_setup("Synth-16", scale=0.004)
    return run_scheme(setup, scheme, provenance=True)


def provenance_digest(result) -> dict:
    """Per-job lifecycle and total considerations.  The skip breakdown
    by reason is left out: it describes how a failure was proven, not
    what was decided."""
    ledger = [
        {**{k: r[k] for k in r if k not in SKIP_COLUMNS},
         "skips": sum(r[c] for c in SKIP_COLUMNS)}
        for r in result.provenance
    ]
    return {
        "ledger_sha256": _sha(ledger),
        "alloc_attempts": result.stats.attempts,
    }


# ----------------------------------------------------------------------
# Golden file
# ----------------------------------------------------------------------
def compute_all() -> dict:
    out = {"pass": {}, "search": {}, "provenance": {}}
    for name, kw in pass_configs().items():
        out["pass"][name] = pass_digest(run_pass(**kw))
    for name, kw in search_configs().items():
        out["search"][name] = drive_placements(**kw)[1]
    for scheme in SCHEMES:
        out["provenance"][scheme] = provenance_digest(run_provenance(scheme))
    return out


def golden(family: str, name: str) -> dict:
    """The recorded digest of one configuration."""
    return json.loads(DATA.read_text())[family][name]


if __name__ == "__main__":
    digests = compute_all()
    if "--write" in sys.argv:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, digests.values()))} digests to {DATA}")
    else:
        recorded = json.loads(DATA.read_text())
        bad = [
            f"{family}/{name}"
            for family, entries in digests.items()
            for name, digest in entries.items()
            if recorded.get(family, {}).get(name) != digest
        ]
        print("\n".join(f"MISMATCH {b}" for b in bad) or "DIGESTS-IDENTICAL")
        sys.exit(1 if bad else 0)
