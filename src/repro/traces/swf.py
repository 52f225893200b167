"""Standard Workload Format (SWF) IO.

The Thunder and Atlas logs the paper uses come from Feitelson's Parallel
Workloads Archive [12], which distributes them in SWF: one line of 18
whitespace-separated fields per job.  This module reads archive files —
so real logs can replace the synthetic equivalents whenever they are
available — and writes our traces back out in the same format.

Field reference (1-based, as in the archive docs):
1 job number, 2 submit time, 3 wait time, 4 run time, 5 allocated
processors, 6 average CPU time, 7 used memory, 8 requested processors,
9 requested time, 10 requested memory, 11 status, 12 user, 13 group,
14 executable, 15 queue, 16 partition, 17 preceding job, 18 think time.
Missing values are -1; comment/header lines start with ``;``.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

from repro.sched.job import Job
from repro.traces.trace import Trace

_FIELDS = 18


def read_swf(
    source: Union[str, Path, TextIO],
    name: Optional[str] = None,
    cores_per_node: int = 1,
    system_nodes: Optional[int] = None,
    keep_arrivals: bool = True,
) -> Trace:
    """Parse an SWF file into a :class:`Trace`.

    ``cores_per_node`` converts processor counts to node counts (archive
    logs report processors).  Jobs with non-positive size or run time,
    and cancelled jobs that never ran, are skipped — the archive's own
    recommendation for simulation use.  Any other bad row (wrong field
    count, unparsable or non-finite field, a value ``Job`` rejects, a
    job id already kept) raises ``ValueError`` naming its line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            return read_swf(fh, name or Path(source).stem, cores_per_node,
                            system_nodes, keep_arrivals)
    jobs: List[Job] = []
    first_line: Dict[int, int] = {}  # job id -> line of its kept row
    max_procs = 0
    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if len(parts) < _FIELDS:
            raise ValueError(
                f"SWF line {lineno}: expected {_FIELDS} fields, got {len(parts)}"
            )
        try:
            job_id = int(parts[0])
            submit = float(parts[1])
            run_time = float(parts[3])
            procs = int(parts[4])
            if procs <= 0:
                procs = int(parts[7])  # fall back to requested processors
        except ValueError as exc:
            raise ValueError(f"SWF line {lineno}: {exc}") from None
        if not (math.isfinite(submit) and math.isfinite(run_time)):
            raise ValueError(
                f"SWF line {lineno}: non-finite submit or run time "
                f"({parts[1]!r}, {parts[3]!r})"
            )
        if procs <= 0 or run_time <= 0:
            continue  # cancelled or malformed job
        if job_id in first_line:
            raise ValueError(
                f"SWF line {lineno}: duplicate job id {job_id} "
                f"(first on line {first_line[job_id]})"
            )
        size = max(1, -(-procs // cores_per_node))  # ceil division
        max_procs = max(max_procs, procs)
        try:
            job = Job(
                id=job_id,
                size=size,
                runtime=run_time,
                arrival=submit if keep_arrivals else 0.0,
            )
        except ValueError as exc:
            raise ValueError(f"SWF line {lineno}: {exc}") from None
        first_line[job_id] = lineno
        jobs.append(job)
    if not jobs:
        raise ValueError("SWF source contained no usable jobs")
    return Trace(
        name=name or "swf",
        jobs=jobs,
        system_nodes=system_nodes,
        has_arrivals=keep_arrivals,
        description=f"parsed from SWF ({cores_per_node} cores/node)",
    )


def write_swf(trace: Trace, target: Union[str, Path, TextIO]) -> None:
    """Write ``trace`` as SWF (one processor per node)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_swf(trace, fh)
            return
    target.write(f"; SWF export of trace {trace.name}\n")
    target.write(f"; MaxNodes: {trace.system_nodes or '-'}\n")
    for job in trace.jobs:
        fields = [-1] * _FIELDS
        fields[0] = job.id
        fields[1] = int(job.arrival)
        fields[2] = -1  # wait time: a simulation output, not an input
        fields[3] = int(round(job.runtime))
        fields[4] = job.size
        fields[7] = job.size
        fields[8] = int(round(job.runtime))  # requested time = perfect estimate
        fields[10] = 1  # status: completed
        target.write(" ".join(str(f) for f in fields) + "\n")


def swf_roundtrip(trace: Trace) -> Trace:
    """Write then re-read ``trace`` (used by tests to pin the format)."""
    buf = io.StringIO()
    write_swf(trace, buf)
    buf.seek(0)
    return read_swf(buf, name=trace.name, system_nodes=trace.system_nodes)
