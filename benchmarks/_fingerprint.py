"""Decision-invariance fingerprint: hash every SimResult field that must
not change across performance work (job records, makespan, utilization).

Usage::

    PYTHONPATH=src python benchmarks/_fingerprint.py out.json [--scale 0.02]

writes one section per drive mode in :data:`VARIANTS` — ``event/``,
``batch/`` (``step_interval=300``) and ``faulted/`` (seeded MTTF
timeline) — keyed ``<section>/<trace>/<scheme>``.  Compare two dumps
with ``diff`` — they must be identical.

Baseline comparison::

    PYTHONPATH=src python benchmarks/_fingerprint.py --compare FILE [--scale 0.02]

re-runs whichever sections FILE holds (unprefixed keys count as
``event``) and prints one ``FINGERPRINTS-IDENTICAL`` line per section
on a match.  Comparisons are schema-tolerant: only the decision keys
are diffed, so a dump written before a diagnostic counter was added
still compares.  The committed baseline is
``benchmarks/results/fingerprint_scale0.005.json``.

Parallel invariance::

    PYTHONPATH=src python benchmarks/_fingerprint.py --selfcheck [--scale 0.02]

runs the grid serially and across a 2-worker process pool and asserts
the fingerprints are identical — the grid engine's core guarantee.
``--workers N`` fingerprints through an N-worker pool (for diffing a
parallel dump against a serial one).

Event-drain invariance::

    PYTHONPATH=src python benchmarks/_fingerprint.py --vs-scalar-events [--scale 0.02]

same shape for the event drain: every scheme twice — once on the
columnar drain (bulk ``release_many`` completions, batched arrivals)
and once on the one-event-at-a-time twin (``REPRO_NAIVE_EVENTS=1``) —
asserting byte-identical decisions in event-driven, batch-step and
faulted replay.

Telemetry invariance::

    PYTHONPATH=src python benchmarks/_fingerprint.py --obs [--scale 0.02]

runs every scheme twice — telemetry off and fully on (enabled tracer,
time-series sampler, schedule log, metric registry) — and asserts
byte-identical scheduling decisions: observation must be strictly
passive (the contract of :mod:`repro.obs`).

Profiler/provenance invariance::

    PYTHONPATH=src python benchmarks/_fingerprint.py --prof [--scale 0.02]

runs every scheme twice — once plain and once with the stage profiler
and per-job provenance recording enabled — and asserts byte-identical
scheduling decisions (:mod:`repro.obs.prof` and the provenance columns
are strictly passive).  ``--compare FILE --with-prof`` checks a saved
dump against a profiled+provenance run for the same guarantee.

Resilience invariance::

    PYTHONPATH=src python benchmarks/_fingerprint.py --empty-faults [--scale 0.02]
    PYTHONPATH=src python benchmarks/_fingerprint.py --faults [--scale 0.02]

``--empty-faults`` runs every scheme with no fault machinery and again
with an explicitly-empty ``FaultTimeline`` and asserts byte-identical
decisions (an empty timeline must be a no-op).  ``--faults`` runs a
seeded MTTF timeline serially and through a 2-worker pool and asserts
the faulted fingerprints are identical — the timeline and its outcomes
must thread through the process pool deterministically.

Batch-step invariance::

    PYTHONPATH=src python benchmarks/_fingerprint.py --batch [--scale 0.02]

runs every scheme in batch-step mode (``step_interval=300``) serially
and through a 2-worker pool and asserts the fingerprints are identical:
the batch drive mode must be exactly as deterministic and
pool-invariant as event-driven replay (its *fidelity* against
event-driven replay is a separate question —
``benchmarks/bench_batch_fidelity.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Optional

from repro.experiments.grid import run_sim_grid, sim_cell

TRACES = ("Synth-16", "Thunder", "Sep-Cab")
SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")

#: the fields a comparison must hold identical — everything that encodes
#: a scheduling decision.  Other dump fields (diagnostic counters like
#: ``queue_prefiltered``) are informational and may legitimately differ
#: across code paths that decide identically, so diffs ignore them.
DECISION_KEYS = (
    "jobs", "records_sha256", "makespan", "steady_state_utilization",
    "overall_utilization", "alloc_attempts", "unscheduled",
)

#: the drive modes a default dump and the twin checks cover, as
#: ``(section label, run_scheme keyword arguments)``
VARIANTS = (
    ("event", {}),
    ("batch", dict(step_interval=300.0)),
    ("faulted", dict(
        mttf=20_000.0, fault_seed=1,
        fault_victim_policy="requeue-remaining",
        checkpoint_interval=600.0,
    )),
)


def _decisions(fp: dict) -> dict:
    """Project a fingerprint dict onto its decision keys."""
    return {
        run: {k: v for k, v in entry.items() if k in DECISION_KEYS}
        for run, entry in fp.items()
    }


def fingerprint(
    scale: float, workers: Optional[int] = None, **run_kwargs
) -> dict:
    cells = [
        sim_cell(trace=trace, scheme=scheme, scale=scale, seed=0,
                 **run_kwargs)
        for trace in TRACES
        for scheme in SCHEMES
    ]
    results = iter(run_sim_grid(cells, workers=workers))
    out = {}
    for trace in TRACES:
        for scheme in SCHEMES:
            result = next(results)
            records = [
                (r.job_id, r.size, r.arrival, r.start, r.end)
                for r in result.jobs
            ]
            digest = hashlib.sha256(
                json.dumps(records, sort_keys=True).encode()
            ).hexdigest()
            out[f"{trace}/{scheme}"] = {
                "jobs": len(result.jobs),
                "records_sha256": digest,
                "makespan": result.makespan,
                "steady_state_utilization": result.steady_state_utilization,
                "overall_utilization": result.overall_utilization,
                "alloc_attempts": result.stats.attempts,
                "unscheduled": list(result.unscheduled),
                # Diagnostic counters (not decision keys; see above).
                "queue_prefiltered": result.stats.queue_prefiltered,
                "cache_hits": result.stats.cache_hits,
            }
    return out


def selfcheck(scale: float, workers: int = 2) -> None:
    """Assert the serial and parallel fingerprints are identical."""
    serial = fingerprint(scale, workers=1)
    parallel = fingerprint(scale, workers=workers)
    mismatches = [key for key in serial if serial[key] != parallel.get(key)]
    if mismatches or serial.keys() != parallel.keys():
        for key in mismatches:
            print(f"MISMATCH {key}:")
            print(f"  serial:   {serial[key]}")
            print(f"  parallel: {parallel.get(key)}")
        raise SystemExit(
            f"serial vs {workers}-worker fingerprints differ "
            f"({len(mismatches)} of {len(serial)} runs)"
        )
    print(
        f"selfcheck ok: {len(serial)} fingerprints identical "
        f"(serial vs {workers} workers, scale {scale})"
    )


def _diff(label_a: str, a: dict, label_b: str, b: dict) -> int:
    """Print mismatching fingerprints; return the mismatch count."""
    mismatches = [key for key in a if a[key] != b.get(key)]
    mismatches += [key for key in b if key not in a]
    for key in mismatches:
        print(f"MISMATCH {key}:")
        print(f"  {label_a}: {a.get(key)}")
        print(f"  {label_b}: {b.get(key)}")
    return len(mismatches)


def vs_scalar_events(scale: float) -> None:
    """Assert the columnar and one-event-at-a-time drains decide
    identically — event-driven, batch-step and faulted replay."""
    prev = os.environ.pop("REPRO_NAIVE_EVENTS", None)
    try:
        for label, kwargs in VARIANTS:
            os.environ.pop("REPRO_NAIVE_EVENTS", None)
            columnar = _decisions(fingerprint(scale, **kwargs))
            os.environ["REPRO_NAIVE_EVENTS"] = "1"
            scalar = _decisions(fingerprint(scale, **kwargs))
            bad = _diff(
                f"columnar[{label}]", columnar,
                f"scalar-events[{label}]", scalar,
            )
            if bad:
                raise SystemExit(
                    f"FINGERPRINTS-DIFFER: columnar vs scalar events "
                    f"({label}: {bad} of {len(columnar)} runs)"
                )
            print(
                f"FINGERPRINTS-IDENTICAL ({len(columnar)}/{len(columnar)} "
                f"{label} runs, columnar vs scalar events, scale {scale})"
            )
    finally:
        if prev is None:
            os.environ.pop("REPRO_NAIVE_EVENTS", None)
        else:
            os.environ["REPRO_NAIVE_EVENTS"] = prev


def vs_obs(scale: float) -> None:
    """Assert that full telemetry changes no scheduling decision."""
    from repro.sched.log import ScheduleLog

    plain = fingerprint(scale)
    traced = fingerprint(
        scale, traced=True, sample_interval=1800.0, event_log=ScheduleLog()
    )
    bad = _diff("plain", plain, "traced", traced)
    if bad:
        raise SystemExit(
            f"plain vs traced fingerprints differ "
            f"({bad} of {len(plain)} runs)"
        )
    print(
        f"obs ok: {len(plain)} fingerprints identical "
        f"(telemetry off vs on, scale {scale})"
    )


def vs_prof(scale: float) -> None:
    """Assert that the stage profiler and provenance recording change
    no scheduling decision (the passivity contract of
    :mod:`repro.obs.prof` and the provenance columns)."""
    plain = fingerprint(scale)
    profiled = fingerprint(scale, profiled=True, provenance=True)
    bad = _diff("plain", _decisions(plain),
                "profiled", _decisions(profiled))
    if bad:
        raise SystemExit(
            f"FINGERPRINTS-DIFFER: plain vs profiled+provenance "
            f"({bad} of {len(plain)} runs)"
        )
    print(
        f"FINGERPRINTS-IDENTICAL ({len(plain)}/{len(plain)} runs, "
        f"profiler+provenance off vs on, scale {scale})"
    )


def vs_empty_faults(scale: float) -> None:
    """Assert an explicitly-empty fault timeline changes nothing."""
    from repro.sched.resilience import FaultTimeline

    plain = fingerprint(scale)
    empty = fingerprint(scale, fault_timeline=FaultTimeline())
    bad = _diff("plain", plain, "empty-timeline", empty)
    if bad:
        raise SystemExit(
            f"plain vs empty-timeline fingerprints differ "
            f"({bad} of {len(plain)} runs)"
        )
    print(
        f"empty-faults ok: {len(plain)} fingerprints identical "
        f"(no resilience vs empty timeline, scale {scale})"
    )


def faulted_selfcheck(scale: float, workers: int = 2) -> None:
    """Assert a seeded-MTTF faulted sweep is pool-invariant.

    The faulted runs also double as resilience accounting checks: the
    timeline must actually fire, and injects/repairs/goodput must agree
    between the serial and parallel runs (they are part of the
    fingerprint here).
    """
    kwargs = dict(VARIANTS)["faulted"]

    def faulted(n):
        out = {}
        cells = [
            sim_cell(trace=trace, scheme=scheme, scale=scale, seed=0,
                     **kwargs)
            for trace in TRACES
            for scheme in SCHEMES
        ]
        results = iter(run_sim_grid(cells, workers=n))
        for trace in TRACES:
            for scheme in SCHEMES:
                result = next(results)
                records = [
                    (r.job_id, r.size, r.arrival, r.start, r.end)
                    for r in result.jobs
                ]
                digest = hashlib.sha256(
                    json.dumps(records, sort_keys=True).encode()
                ).hexdigest()
                out[f"{trace}/{scheme}"] = {
                    "jobs": len(result.jobs),
                    "records_sha256": digest,
                    "makespan": result.makespan,
                    "faults_injected": result.faults_injected,
                    "faults_repaired": result.faults_repaired,
                    "resubmissions": result.resubmissions,
                    "wasted_node_seconds": result.wasted_node_seconds,
                    "degraded_node_seconds": result.degraded_node_seconds,
                }
        return out

    serial = faulted(1)
    parallel = faulted(workers)
    fired = sum(v["faults_injected"] for v in serial.values())
    if not fired:
        raise SystemExit("faulted selfcheck injected no faults — "
                         "the timeline never fired")
    bad = _diff("serial", serial, "parallel", parallel)
    if bad:
        raise SystemExit(
            f"serial vs {workers}-worker faulted fingerprints differ "
            f"({bad} of {len(serial)} runs)"
        )
    print(
        f"faults ok: {len(serial)} faulted fingerprints identical "
        f"({fired} faults fired; serial vs {workers} workers, "
        f"scale {scale})"
    )


def batch_selfcheck(
    scale: float, workers: int = 2, step_interval: float = 300.0
) -> None:
    """Assert batch-step fingerprints are serial/parallel invariant."""
    serial = fingerprint(scale, workers=1, step_interval=step_interval)
    parallel = fingerprint(
        scale, workers=workers, step_interval=step_interval
    )
    bad = _diff("serial", serial, "parallel", parallel)
    if bad:
        raise SystemExit(
            f"serial vs {workers}-worker batch-step fingerprints differ "
            f"({bad} of {len(serial)} runs)"
        )
    print(
        f"batch ok: {len(serial)} batch-step fingerprints identical "
        f"(dt={step_interval:g}s, serial vs {workers} workers, "
        f"scale {scale})"
    )


def dump(
    scale: float, workers: Optional[int] = None, sections=None, **run_kwargs
) -> dict:
    """Fingerprints of every :data:`VARIANTS` section (or only the
    labels in ``sections``), keyed ``<section>/<trace>/<scheme>``."""
    out = {}
    for label, kwargs in VARIANTS:
        if sections is not None and label not in sections:
            continue
        fp = fingerprint(scale, workers=workers, **kwargs, **run_kwargs)
        out.update((f"{label}/{key}", entry) for key, entry in fp.items())
    return out


def compare(
    path: str, scale: float, workers: Optional[int], **run_kwargs
) -> None:
    """Fingerprint the current code and diff against a saved dump.

    Re-runs whichever sections the saved file holds; unprefixed keys
    (a dump written before sections existed) count as ``event``.  Only
    the decision keys are compared (schema-tolerant: a dump written
    before a diagnostic counter existed still compares, and a newer
    dump's extra counters are ignored by older code).  Extra keyword
    arguments (e.g. ``profiled=True, provenance=True`` from
    ``--with-prof``) thread into the runs being fingerprinted.
    """
    labels = [label for label, _ in VARIANTS]
    with open(path) as fh:
        saved = {
            key if key.split("/", 1)[0] in labels else f"event/{key}": entry
            for key, entry in json.load(fh).items()
        }
    sections = [
        label for label in labels
        if any(key.startswith(f"{label}/") for key in saved)
    ]
    current = dump(scale, workers, sections, **run_kwargs)
    bad = _diff("saved", _decisions(saved), "current", _decisions(current))
    if bad:
        raise SystemExit(
            f"FINGERPRINTS-DIFFER ({bad} of {len(current)} runs vs {path})"
        )
    for label in sections:
        n = sum(key.startswith(f"{label}/") for key in current)
        print(f"FINGERPRINTS-IDENTICAL ({n}/{n} {label} runs vs {path})")


if __name__ == "__main__":
    scale = 0.02
    if "--scale" in sys.argv:
        scale = float(sys.argv[sys.argv.index("--scale") + 1])
    workers = None
    if "--workers" in sys.argv:
        workers = int(sys.argv[sys.argv.index("--workers") + 1])
    if "--selfcheck" in sys.argv:
        selfcheck(scale, workers=workers or 2)
        sys.exit(0)
    if "--vs-scalar-events" in sys.argv:
        vs_scalar_events(scale)
        sys.exit(0)
    if "--obs" in sys.argv:
        vs_obs(scale)
        sys.exit(0)
    if "--prof" in sys.argv:
        vs_prof(scale)
        sys.exit(0)
    if "--empty-faults" in sys.argv:
        vs_empty_faults(scale)
        sys.exit(0)
    if "--faults" in sys.argv:
        faulted_selfcheck(scale, workers=workers or 2)
        sys.exit(0)
    if "--batch" in sys.argv:
        batch_selfcheck(scale, workers=workers or 2)
        sys.exit(0)
    if "--compare" in sys.argv:
        extra = {}
        if "--with-prof" in sys.argv:
            extra = dict(profiled=True, provenance=True)
        compare(sys.argv[sys.argv.index("--compare") + 1], scale, workers,
                **extra)
        sys.exit(0)
    path = sys.argv[1]
    data = dump(scale, workers=workers)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    print(f"wrote {len(data)} fingerprints to {path}")
