"""Span tracer: where does a simulated second of scheduling time go?

A :class:`Tracer` records **spans** — named intervals with a wall-clock
duration, the simulated time at which they ran, and arbitrary
attributes.  The instrumented sites form a fixed taxonomy (see
``docs/observability.md``):

========================  ==================================================
span                      meaning
========================  ==================================================
``sched.pass``            one scheduling pass after an event batch
``backfill.window``       the EASY window scan inside a pass
``alloc.search``          one allocator placement attempt
``grid.cell``             one experiment-grid cell in its worker
``netsim.converge``       one max-min fair-rate progressive filling
========================  ==================================================

Disabled tracing must be free: every simulator-level hot call site
guards with a single ``tracer.enabled`` attribute check (cool sites may
use the ``with tracer.span(...)`` form, which early-returns a shared
no-op).  The allocator layer carries no tracer at all:
:func:`trace_allocator` wraps an allocator's entry points from outside
for the length of a traced run.  Tracing is strictly passive — it never
influences a scheduling decision; ``benchmarks/_fingerprint.py --obs``
holds it to that.

Exports: Chrome ``trace_event`` JSON (open in Perfetto or
``chrome://tracing``) and raw JSONL, plus :func:`summarize_trace` for a
terminal report (the ``obs summarize`` CLI subcommand).
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Union,
)


class Span:
    """One finished (or in-flight) span.  Mutable so call sites can add
    attributes discovered mid-span via :meth:`set`."""

    __slots__ = ("name", "t0", "dur", "sim_time", "attrs", "depth")

    def __init__(
        self,
        name: str,
        t0: float,
        sim_time: Optional[float],
        attrs: Optional[Dict[str, Any]],
        depth: int,
    ):
        self.name = name
        self.t0 = t0
        self.dur = 0.0
        self.sim_time = sim_time
        self.attrs = attrs
        self.depth = depth

    def __bool__(self) -> bool:
        return True

    def set(self, **attrs: Any) -> None:
        """Attach attributes (e.g. an outcome known only at the end)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSONL line)."""
        d: Dict[str, Any] = {
            "name": self.name,
            "t0": self.t0,
            "dur": self.dur,
            "depth": self.depth,
        }
        if self.sim_time is not None:
            d["sim_time"] = self.sim_time
        if self.attrs:
            d["attrs"] = self.attrs
        return d


class _NoopSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopSpan()


class _SpanCtx:
    """Context manager driving one live span on an enabled tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._span)


class Tracer:
    """Collects spans and instant events; disabled by default.

    The simulator publishes the current simulated time through
    :attr:`sim_time`; spans snapshot it when they begin, so a trace can
    be read along either clock (wall or simulated).
    """

    def __init__(self, enabled: bool = False, max_events: int = 1_000_000):
        self.enabled = enabled
        #: simulated "now", maintained by whoever drives the clock
        self.sim_time: Optional[float] = None
        self.max_events = max_events
        #: events recorded past ``max_events`` are counted, not stored
        self.dropped = 0
        self.events: List[Dict[str, Any]] = []
        self._epoch = time.perf_counter()
        self._depth = 0

    # -- recording ------------------------------------------------------
    def begin(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span (hot-path form; pair with :meth:`end`).

        Callers on hot paths must guard with ``if tracer.enabled:`` so a
        disabled tracer costs exactly one attribute check.
        """
        span = Span(
            name, time.perf_counter() - self._epoch, self.sim_time,
            attrs, self._depth,
        )
        self._depth += 1
        return span

    def end(self, span: Span) -> None:
        """Close a span opened with :meth:`begin` and record it."""
        span.dur = time.perf_counter() - self._epoch - span.t0
        self._depth -= 1
        self._record(span.as_dict())

    def span(self, name: str, **attrs: Any):
        """Context-manager span (cool-path form).

        >>> tracer = Tracer(enabled=True)
        >>> with tracer.span("sched.pass", queue=3):
        ...     pass
        >>> tracer.events[0]["name"]
        'sched.pass'
        """
        if not self.enabled:
            return _NOOP
        return _SpanCtx(self, self.begin(name, attrs or None))

    def instant(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record a zero-duration event (e.g. one scheduling decision)."""
        if not self.enabled:
            return
        d: Dict[str, Any] = {
            "name": name,
            "t0": time.perf_counter() - self._epoch,
            "instant": True,
        }
        if self.sim_time is not None:
            d["sim_time"] = self.sim_time
        if attrs:
            d["attrs"] = attrs
        self._record(d)

    def _record(self, event: Dict[str, Any]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._depth = 0

    # -- export ---------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` document (the JSON object format,
        with spans as complete ``"X"`` events in microseconds)."""
        trace_events: List[Dict[str, Any]] = []
        for e in self.events:
            args = dict(e.get("attrs") or {})
            if "sim_time" in e:
                args["sim_time"] = e["sim_time"]
            out: Dict[str, Any] = {
                "name": e["name"],
                "cat": e["name"].partition(".")[0],
                "ph": "i" if e.get("instant") else "X",
                "ts": round(e["t0"] * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": args,
            }
            if not e.get("instant"):
                out["dur"] = round(e["dur"] * 1e6, 3)
            else:
                out["s"] = "t"  # instant scope: thread
            trace_events.append(out)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }

    def write_chrome_trace(self, target: Union[str, Path, TextIO]) -> None:
        """Write :meth:`to_chrome_trace` as JSON."""
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as fh:
                self.write_chrome_trace(fh)
                return
        json.dump(self.to_chrome_trace(), target)

    def write_jsonl(self, target: Union[str, Path, TextIO]) -> None:
        """Write the raw events, one JSON object per line."""
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as fh:
                self.write_jsonl(fh)
                return
        for e in self.events:
            target.write(json.dumps(e, sort_keys=True))
            target.write("\n")


# ----------------------------------------------------------------------
# The process-global tracer (disabled unless someone enables tracing)
# ----------------------------------------------------------------------
_ACTIVE = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer consulted by module-level call sites
    (the grid engine, the network simulator)."""
    return _ACTIVE


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global one; returns the
    previous tracer so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextlib.contextmanager
def trace_allocator(tracer: Tracer, allocator) -> Iterator[Tracer]:
    """Record one ``alloc.search`` span per placement attempt of
    ``allocator`` while the block runs.

    Wraps the instance's ``allocate`` and ``charge_skip`` (on top of
    any wrappers already installed there) and restores them exactly on
    exit.  Each span carries ``scheme``, ``job``, ``size``, ``eff``
    (the effective size), ``outcome`` — ``cache_hit`` when the call was
    answered by the feasibility cache, else ``placed``/``failed`` for
    ``allocate`` and ``prefiltered:<reason>`` for ``charge_skip`` —
    ``steps_used`` and ``budget_exhausted`` (the call's own change in
    ``backtrack_steps`` and ``budget_aborts``, so 0 and ``False`` for a
    call that ran no search), the scheme's ``_trace_attrs``,
    ``bw_need`` when given, and
    ``level``/``nodes`` for a placed job.  A call that raises records
    no span.
    """
    from repro.core.shapes import ThreeLevelShape

    stats = allocator.stats
    allocate = allocator.allocate
    charge_skip = allocator.charge_skip

    def observe(call, job_id, size, bw_need, miss):
        span = tracer.begin("alloc.search")
        hits = stats.cache_hits
        steps = stats.backtrack_steps
        aborts = stats.budget_aborts
        try:
            alloc = call()
        except BaseException:
            tracer._depth -= 1  # drop the span; a raising call records none
            raise
        if stats.cache_hits != hits:
            outcome = "cache_hit"
        else:
            outcome = miss if alloc is None else "placed"
        span.set(
            scheme=allocator.name, job=job_id, size=size,
            eff=allocator.effective_size(size), outcome=outcome,
            steps_used=stats.backtrack_steps - steps,
            budget_exhausted=stats.budget_aborts != aborts,
            **allocator._trace_attrs(size),
        )
        if bw_need is not None:
            span.set(bw_need=bw_need)
        if alloc is not None:
            span.set(
                level=3 if isinstance(alloc.shape, ThreeLevelShape) else 2,
                nodes=len(alloc.nodes),
            )
        tracer.end(span)
        return alloc

    def traced_allocate(job_id, size, bw_need=None):
        return observe(lambda: allocate(job_id, size, bw_need=bw_need),
                       job_id, size, bw_need, "failed")

    def traced_charge_skip(job_id, size, bw_need=None, reason="cache"):
        observe(lambda: charge_skip(job_id, size, bw_need, reason),
                job_id, size, bw_need, f"prefiltered:{reason}")

    wrappers = {
        "allocate": traced_allocate, "charge_skip": traced_charge_skip,
    }
    with wrap_methods(allocator, wrappers):
        yield tracer


@contextlib.contextmanager
def wrap_methods(obj, wrappers: Dict[str, Callable]) -> Iterator[None]:
    """Install ``wrappers`` (``{name: callable}``) as instance
    attributes of ``obj`` for the block, then restore its instance dict
    exactly: a name that already was an instance attribute (another
    observer's wrapper, say) gets its old value back, the rest are
    removed so the class methods show through again."""
    own = vars(obj)
    saved = {name: own[name] for name in wrappers if name in own}
    own.update(wrappers)
    try:
        yield
    finally:
        for name in wrappers:
            if name in saved:
                own[name] = saved[name]
            else:
                own.pop(name, None)


# ----------------------------------------------------------------------
# Trace-file analysis (the ``obs summarize`` subcommand)
# ----------------------------------------------------------------------
def load_trace_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load span events from a Chrome trace JSON or a raw JSONL file.

    Returns events in the *raw* form (``name``/``t0``/``dur`` seconds),
    whichever format the file is in.
    """
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        return []
    doc = None
    if text[0] == "{":
        # Chrome documents are one JSON object; JSONL lines are each an
        # object too, so only a whole-text parse distinguishes them.
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
    if isinstance(doc, dict) and "traceEvents" not in doc:
        return [doc]  # a single-event JSONL file
    if doc is not None:
        events = []
        for e in doc.get("traceEvents", []):
            raw: Dict[str, Any] = {
                "name": e.get("name", "?"),
                "t0": e.get("ts", 0.0) / 1e6,
            }
            if e.get("ph") == "i":
                raw["instant"] = True
            else:
                raw["dur"] = e.get("dur", 0.0) / 1e6
            args = e.get("args") or {}
            if "sim_time" in args:
                raw["sim_time"] = args["sim_time"]
            attrs = {k: v for k, v in args.items() if k != "sim_time"}
            if attrs:
                raw["attrs"] = attrs
            events.append(raw)
        return events
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def read_dropped_count(path: Union[str, Path]) -> int:
    """The ``dropped_events`` counter of a Chrome trace file (0 when the
    file is JSONL or predates the counter)."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text or text[0] != "{":
        return 0
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return 0
    if not isinstance(doc, dict):
        return 0
    other = doc.get("otherData")
    if not isinstance(other, dict):
        return 0
    return int(other.get("dropped_events", 0))


def _quantile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank quantile (ceil(q*n)-th order statistic) of an
    ascending non-empty list."""
    n = len(sorted_vals)
    rank = min(n - 1, max(0, int(math.ceil(q * n)) - 1))
    return sorted_vals[rank]


def summarize_trace(
    events: Iterable[Dict[str, Any]], dropped: Optional[int] = None
) -> str:
    """Per-span-name rollup of a trace: count, total/mean/p50/p95/p99/max
    wall time, and the simulated-time range covered.

    ``dropped`` is the tracer's ring-buffer overflow counter (from
    :attr:`Tracer.dropped` or :func:`read_dropped_count`); when positive
    the report warns that the rollup undercounts.
    """
    rollup: Dict[str, List[float]] = {}
    instants: Dict[str, int] = {}
    sim_lo: Optional[float] = None
    sim_hi: Optional[float] = None
    for e in events:
        st = e.get("sim_time")
        if st is not None:
            sim_lo = st if sim_lo is None else min(sim_lo, st)
            sim_hi = st if sim_hi is None else max(sim_hi, st)
        name = e.get("name", "?")
        if e.get("instant"):
            instants[name] = instants.get(name, 0) + 1
            continue
        rollup.setdefault(name, []).append(float(e.get("dur", 0.0)))
    lines = [
        "span                     count    total ms     mean ms"
        "      p50 ms      p95 ms      p99 ms      max ms"
    ]
    totals = {name: sum(durs) for name, durs in rollup.items()}
    for name in sorted(rollup, key=lambda n: -totals[n]):
        durs = sorted(rollup[name])
        count = len(durs)
        total = totals[name]
        mean = total / count if count else 0.0
        lines.append(
            f"{name:<22} {count:>7} "
            f"{total * 1e3:>11.3f} {mean * 1e3:>11.3f} "
            f"{_quantile(durs, 0.5) * 1e3:>11.3f} "
            f"{_quantile(durs, 0.95) * 1e3:>11.3f} "
            f"{_quantile(durs, 0.99) * 1e3:>11.3f} "
            f"{durs[-1] * 1e3:>11.3f}"
        )
    if not rollup:
        lines.append("(no spans)")
    for name in sorted(instants):
        lines.append(f"{name:<22} {instants[name]:>7}  (instant events)")
    if sim_lo is not None:
        lines.append(
            f"simulated time covered: {sim_lo:.0f}s .. {sim_hi:.0f}s"
        )
    if dropped:
        lines.append(
            f"WARNING: {dropped} events dropped (tracer max_events "
            "reached) — totals and counts undercount the run"
        )
    return "\n".join(lines)
