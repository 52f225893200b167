"""Micro-benchmarks: raw allocate/release cost per scheme.

Unlike the table/figure benches (one full simulation, ``rounds=1``),
these use pytest-benchmark's normal repeated timing: a cluster is
pre-filled to a steady-state-like occupancy, then one allocate/release
pair is timed.  This isolates Table 3's quantity — allocator cost — from
simulation overhead, and tracks regressions in the search code.
"""

import random
import time

import pytest

from repro import FatTree, make_allocator
from repro.obs.bench import GATE_SCALE, environment, make_bench_result

SIZES = [1, 3, 5, 8, 13, 20, 33, 48, 70]

#: fixed timed-cycle count for the gate document (pytest-benchmark's
#: adaptive iteration counts are nondeterministic; the gate needs the
#: same work every run so its counters compare exactly)
GATE_CYCLES = 120


def _counters(allocator) -> str:
    """Search-effort and cache counters, one line per bench run."""
    s = allocator.stats
    return (
        f"steps={s.backtrack_steps} "
        f"cache={s.cache_hits}/{s.cache_hits + s.cache_misses}"
    )


def _prefill(allocator, occupancy: float, seed: int = 7):
    """Fill the cluster to roughly ``occupancy`` with a random job mix."""
    rng = random.Random(seed)
    total = allocator.tree.num_nodes
    jid = 0
    while allocator.free_nodes > (1 - occupancy) * total:
        jid += 1
        if allocator.allocate(jid, rng.choice(SIZES)) is None:
            break
    return jid


def bench_payload(scale: float = GATE_SCALE) -> dict:
    """The ``BENCH_allocator_micro.json`` document: fixed-cycle
    allocate/release cost per scheme on a radix-18 cluster at 85%
    occupancy.  ``scale`` only labels the environment (the micro runs
    no trace); the cycle count is pinned at :data:`GATE_CYCLES`."""
    quantities, counters = {}, {}
    for scheme in ("baseline", "ta", "laas", "jigsaw", "lc+s"):
        tree = FatTree.from_radix(18)
        allocator = make_allocator(scheme, tree)
        _prefill(allocator, occupancy=0.85)
        job_id = [10**6]

        def one_cycle():
            job_id[0] += 1
            if allocator.allocate(job_id[0], 13) is not None:
                allocator.release(job_id[0])

        one_cycle()  # warm-up
        t0 = time.perf_counter()
        for _ in range(GATE_CYCLES):
            one_cycle()
        us = 1e6 * (time.perf_counter() - t0) / GATE_CYCLES
        quantities[f"us_per_cycle.{scheme}"] = {"value": us, "unit": "us"}
        s = allocator.stats
        counters[f"attempts.{scheme}"] = s.attempts
        counters[f"backtrack_steps.{scheme}"] = s.backtrack_steps
    return make_bench_result(
        "allocator_micro", quantities, counters,
        repetitions=GATE_CYCLES, env=environment(scale),
    )


@pytest.mark.parametrize("scheme", ["baseline", "jigsaw", "laas", "ta", "lc+s"])
def bench_allocate_release(benchmark, scheme):
    tree = FatTree.from_radix(18)
    allocator = make_allocator(scheme, tree)
    _prefill(allocator, occupancy=0.85)
    job_id = [10**6]

    def one_cycle():
        job_id[0] += 1
        if allocator.allocate(job_id[0], 13) is not None:
            allocator.release(job_id[0])

    benchmark(one_cycle)
    print(f"\n[{scheme}] search effort: {_counters(allocator)}")


@pytest.mark.parametrize("radix", [16, 18, 22, 28])
def bench_jigsaw_by_cluster_size(benchmark, radix):
    """Jigsaw's scaling with cluster size (Table 3's size axis)."""
    tree = FatTree.from_radix(radix)
    allocator = make_allocator("jigsaw", tree)
    _prefill(allocator, occupancy=0.85)
    job_id = [10**6]

    def one_cycle():
        job_id[0] += 1
        if allocator.allocate(job_id[0], 2 * tree.m1 + 3) is not None:
            allocator.release(job_id[0])

    benchmark(one_cycle)
    print(f"\n[jigsaw r{radix}] search effort: {_counters(allocator)}")


def bench_allocator_micro_summary(save_result, save_bench):
    """Per-cycle cost with the search-effort counters.

    Times one allocate/release cycle with ``perf_counter`` (the
    pytest-benchmark fixtures above track regressions; this one writes
    the committed record) and saves it under
    ``benchmarks/results/allocator_micro.txt``.  Radix 28 is the paper's
    largest cluster (Synth-28).
    """
    lines = [
        "Allocator micro-benchmark: one allocate/release cycle at 85% "
        "occupancy (us/cycle).",
        "Counters are the run's totals (prefill + timed cycles).",
        "",
    ]
    for radix, schemes, cycles in (
        (18, ("baseline", "ta", "laas", "jigsaw", "lc+s"), 300),
        (28, ("jigsaw", "lc+s"), 60),
    ):
        for scheme in schemes:
            tree = FatTree.from_radix(radix)
            allocator = make_allocator(scheme, tree)
            _prefill(allocator, occupancy=0.85)
            size = 13 if radix == 18 else 2 * tree.m1 + 3
            job_id = [10**6]

            def one_cycle():
                job_id[0] += 1
                if allocator.allocate(job_id[0], size) is not None:
                    allocator.release(job_id[0])

            one_cycle()  # warm-up
            t0 = time.perf_counter()
            for _ in range(cycles):
                one_cycle()
            us = 1e6 * (time.perf_counter() - t0) / cycles
            lines.append(
                f"radix {radix:>2} {scheme:>8}: {us:8.1f} us  "
                f"[{_counters(allocator)}]"
            )
    save_result("allocator_micro", "\n".join(lines))
    save_bench(bench_payload())
