"""Validate the telemetry artifacts a traced simulation emits.

Usage::

    PYTHONPATH=src python benchmarks/_check_obs_schema.py \
        [--trace t.json] [--samples s.jsonl] [--metrics m.prom]

Each given file is checked against its format contract (hand-rolled —
no external schema libraries):

* ``--trace`` — Chrome ``trace_event`` JSON: a ``traceEvents`` list of
  objects with ``name``/``ph``/``ts``/``pid``/``tid``; ``"X"`` events
  carry a non-negative ``dur``; span names come from the documented
  taxonomy (``docs/observability.md``).
* ``--samples`` — time-series JSONL: every line a JSON object carrying
  every field of :data:`repro.obs.sampler.ROW_FIELDS` with sane types
  and monotonically non-decreasing ``t`` per (trace, scheme) stream.
* ``--metrics`` — Prometheus text exposition 0.0.4: ``# HELP``/
  ``# TYPE`` pairs, valid metric/label names, parseable values, and
  histogram ``_bucket`` series cumulative in ``le``.
* ``--bench`` — a ``BENCH_<name>.json`` document against the
  ``repro.bench/v1`` schema (:mod:`repro.obs.bench`): quantities carry
  value/unit, counters are non-negative ints, the environment records
  interpreter/platform/scale.
* ``--provenance`` — per-job scheduling-provenance JSONL
  (:mod:`repro.sched.metrics`): every line carries the full column
  catalog, skip counts never exceed attempts, started jobs carry
  consistent start/end/wait, unstarted jobs carry none.

Exits non-zero with a per-file error listing on any violation.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Dict, List, Tuple

#: the span/instant names the instrumentation may emit
KNOWN_SPANS = {
    "sched.pass", "sched.round", "backfill.window", "alloc.search",
    "grid.cell", "netsim.converge",
}
KNOWN_INSTANTS = {
    "sched.start", "sched.complete", "sched.kill",
    "fault.inject", "fault.repair",
}

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def check_trace(path: str) -> List[str]:
    errors: List[str] = []
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: no traceEvents list"]
    if not events:
        errors.append(f"{path}: traceEvents is empty")
    seen_names = set()
    for i, e in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in e:
                errors.append(f"{where}: missing {key!r}")
        ph = e.get("ph")
        if ph not in ("X", "i"):
            errors.append(f"{where}: unexpected phase {ph!r}")
        if ph == "X" and not (
            isinstance(e.get("dur"), (int, float)) and e["dur"] >= 0
        ):
            errors.append(f"{where}: 'X' event needs non-negative dur")
        ts = e.get("ts")
        if not (isinstance(ts, (int, float)) and ts >= 0):
            errors.append(f"{where}: bad ts {ts!r}")
        name = e.get("name")
        known = KNOWN_SPANS if ph == "X" else KNOWN_INSTANTS
        if name not in known:
            errors.append(f"{where}: unknown {'span' if ph == 'X' else 'instant'} name {name!r}")
        seen_names.add(name)
    return errors


def check_samples(path: str) -> List[str]:
    from repro.obs.sampler import ROW_FIELDS

    errors: List[str] = []
    last_t: Dict[Tuple[str, str], float] = {}
    count = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            count += 1
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: not JSON ({exc})")
                continue
            for field in ROW_FIELDS:
                if field not in row:
                    errors.append(f"{where}: missing {field!r}")
            util = row.get("util_pct")
            if not (
                isinstance(util, (int, float)) and 0.0 <= util <= 100.0
            ):
                errors.append(f"{where}: util_pct {util!r} outside [0, 100]")
            for field in ("queue_depth", "running_jobs", "free_nodes",
                          "fully_free_leaves", "shard_free_nodes",
                          "padding_nodes", "degraded_nodes"):
                v = row.get(field)
                if not (isinstance(v, int) and v >= 0):
                    errors.append(f"{where}: {field} {v!r} not a non-negative int")
            lag = row.get("step_lag")
            if not (isinstance(lag, (int, float)) and lag >= 0.0):
                errors.append(
                    f"{where}: step_lag {lag!r} not a non-negative number"
                )
            stream = (str(row.get("trace", "")), str(row.get("scheme", "")))
            t = row.get("t")
            if isinstance(t, (int, float)):
                if stream in last_t and t < last_t[stream]:
                    errors.append(
                        f"{where}: t {t} went backwards within stream {stream}"
                    )
                last_t[stream] = t
            else:
                errors.append(f"{where}: bad t {t!r}")
    if count == 0:
        errors.append(f"{path}: no sample rows")
    return errors


def check_metrics(path: str) -> List[str]:
    errors: List[str] = []
    helped, typed = set(), {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    samples = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            where = f"{path}:{lineno}"
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    errors.append(f"{where}: malformed TYPE line")
                else:
                    typed[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            m = _METRIC_LINE.match(line)
            if m is None:
                errors.append(f"{where}: unparseable sample line {line!r}")
                continue
            samples += 1
            labels = {}
            raw = m.group("labels")
            if raw:
                for pair in _split_labels(raw):
                    pm = _LABEL_PAIR.match(pair)
                    if pm is None:
                        errors.append(f"{where}: bad label pair {pair!r}")
                    else:
                        labels[pm.group(1)] = pm.group(2)
            try:
                value = float(m.group("value"))
            except ValueError:
                errors.append(f"{where}: bad value {m.group('value')!r}")
                continue
            name = m.group("name")
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in typed:
                    base = name[: -len(suffix)]
            if base not in typed:
                errors.append(f"{where}: sample {name!r} has no # TYPE")
            if base not in helped:
                errors.append(f"{where}: sample {name!r} has no # HELP")
            if typed.get(base) == "counter" and base == name and (
                value < 0 or math.isnan(value)
            ):
                errors.append(f"{where}: counter {name!r} value {value}")
            if name.endswith("_bucket") and "le" in labels:
                le = (
                    math.inf if labels["le"] == "+Inf" else float(labels["le"])
                )
                key = name + json.dumps(
                    {k: v for k, v in sorted(labels.items()) if k != "le"}
                )
                buckets.setdefault(key, []).append((le, value))
    for key, series in buckets.items():
        series.sort()
        if series[-1][0] != math.inf:
            errors.append(f"{path}: {key}: no +Inf bucket")
        counts = [c for _, c in series]
        if counts != sorted(counts):
            errors.append(f"{path}: {key}: buckets not cumulative")
    if samples == 0:
        errors.append(f"{path}: no metric samples")
    return errors


def check_bench(path: str) -> List[str]:
    errors: List[str] = []
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"{path}: not JSON ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path}: not a JSON object"]
    if doc.get("schema") != "repro.bench/v1":
        errors.append(f"{path}: schema {doc.get('schema')!r} != "
                      "'repro.bench/v1'")
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        errors.append(f"{path}: missing or empty name")
    reps = doc.get("repetitions")
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        errors.append(f"{path}: repetitions {reps!r} not a positive int")
    quantities = doc.get("quantities")
    if not isinstance(quantities, dict) or not quantities:
        errors.append(f"{path}: quantities missing or empty")
    else:
        for label, q in quantities.items():
            where = f"{path}: quantities[{label!r}]"
            if not isinstance(q, dict) or set(q) != {"value", "unit"}:
                errors.append(f"{where}: needs exactly value/unit keys")
                continue
            if not isinstance(q["value"], (int, float)) or isinstance(
                q["value"], bool
            ) or math.isnan(q["value"]):
                errors.append(f"{where}: bad value {q['value']!r}")
            if not isinstance(q["unit"], str) or not q["unit"]:
                errors.append(f"{where}: bad unit {q['unit']!r}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{path}: counters missing")
    else:
        for label, v in counters.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(
                    f"{path}: counters[{label!r}] {v!r} not a "
                    "non-negative int"
                )
    env = doc.get("environment")
    if not isinstance(env, dict):
        errors.append(f"{path}: environment missing")
    else:
        for key in ("python", "platform", "scale"):
            if key not in env:
                errors.append(f"{path}: environment missing {key!r}")
    return errors


def check_provenance(path: str) -> List[str]:
    from repro.sched.metrics import PROVENANCE_COLUMNS

    skip_cols = ("skip_cache", "skip_screen", "skip_search", "skip_budget")
    states = {"pending", "queued", "running", "completed", "unscheduled"}
    errors: List[str] = []
    count = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            count += 1
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: not JSON ({exc})")
                continue
            missing = [c for c in PROVENANCE_COLUMNS if c not in row]
            if missing:
                errors.append(f"{where}: missing columns {missing}")
                continue
            extra = set(row) - set(PROVENANCE_COLUMNS)
            if extra:
                errors.append(f"{where}: unknown columns {sorted(extra)}")
            for col in ("attempts",) + skip_cols:
                v = row[col]
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    errors.append(
                        f"{where}: {col} {v!r} not a non-negative int"
                    )
                    break
            else:
                skips = sum(row[c] for c in skip_cols)
                if skips > row["attempts"]:
                    errors.append(
                        f"{where}: {skips} skips exceed "
                        f"{row['attempts']} attempts"
                    )
            if row["state"] not in states:
                errors.append(f"{where}: unknown state {row['state']!r}")
            started = row["start"] is not None
            if started:
                for col in ("end", "wait"):
                    if row[col] is None:
                        errors.append(
                            f"{where}: started job missing {col}"
                        )
                if row["wait"] is not None and (
                    abs((row["start"] - row["arrival"]) - row["wait"])
                    > 1e-9
                ):
                    errors.append(
                        f"{where}: wait {row['wait']} != "
                        "start - arrival"
                    )
                if row["first_eligible"] is None:
                    errors.append(
                        f"{where}: started job never marked eligible"
                    )
                elif row["attempts"] < 1:
                    errors.append(f"{where}: started job with 0 attempts")
            else:
                for col in ("end", "wait"):
                    if row[col] is not None:
                        errors.append(
                            f"{where}: unstarted job carries {col}"
                        )
                if row["state"] in ("running", "completed"):
                    errors.append(
                        f"{where}: state {row['state']} without a start"
                    )
    if count == 0:
        errors.append(f"{path}: no provenance rows")
    return errors


def _split_labels(raw: str) -> List[str]:
    """Split a label body on commas outside quoted values."""
    out, depth, cur = [], False, []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == '"' and (i == 0 or raw[i - 1] != "\\"):
            depth = not depth
        if ch == "," and not depth:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
        i += 1
    if cur:
        out.append("".join(cur))
    return out


if __name__ == "__main__":
    argv = sys.argv[1:]
    checks = {"--trace": check_trace, "--samples": check_samples,
              "--metrics": check_metrics, "--bench": check_bench,
              "--provenance": check_provenance}
    all_errors: List[str] = []
    ran = 0
    for flag, fn in checks.items():
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            ran += 1
            found = fn(path)
            all_errors.extend(found)
            status = "ok" if not found else f"{len(found)} errors"
            print(f"{flag[2:]:>8} {path}: {status}")
    if ran == 0:
        print(__doc__)
        sys.exit(2)
    for err in all_errors:
        print("ERROR:", err)
    sys.exit(1 if all_errors else 0)
