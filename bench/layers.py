"""Outside-in per-layer timing for the traced replay.

The traced replay wraps the public entry point of each simulator layer
from the benchmark's own code — allocator instance methods, the
allocator's ``ClusterState`` instance, and methods of ``_RunState``,
``EventStreams`` and ``ResilienceManager`` patched for the duration of
the replay — and
records, per layer, its calls, inclusive durations and self time (a
wrapper's duration minus the time its nested wrappers cover).

It deliberately uses nothing from ``repro.obs``: an enabled tracer,
sampler or event log makes the simulator take its scalar event drain
(see ``_RunState.columnar_drain``), so the trace would time a different
program from the one the untraced replays time.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.sched import simulator as simulator_module
from repro.sched.eventcore import EventStreams
from repro.sched.resilience import ResilienceManager

#: rounds with at least this many events take the columnar drain path
#: (``_RunState.drain_columnar`` falls back to the scalar loop below it)
COLUMNAR_MIN_EVENTS = 16


class LayerTimer:
    """Span stack plus per-layer call counts, self time and durations."""

    def __init__(self):
        self._stack: List[list] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: layer-specific tallies (placements, released jobs, events)
        self.tally: Counter = Counter()

    def wrap(
        self, layer: str, fn: Callable,
        note: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as one span of ``layer``; ``note(args, result)``
        runs after the span closes.  A call made while ``layer`` is
        already the innermost open span (``drain_columnar`` delegating
        to ``drain_scalar``) belongs to the open span."""
        stack = self._stack

        def timed(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[layer] += 1
                self.self_s[layer] += dt - frame[1]
                self.durations[layer].append(dt)
            if note is not None:
                note(args, out)
            return out

        return timed

    def attach_allocator(self, allocator) -> None:
        """Wrap one allocator's and its cluster state's entry points."""
        tally = self.tally

        def placed(args, out):
            if out is not None:
                tally["alloc.placed"] += 1

        def released(args, out):
            tally["release.jobs"] += 1

        def released_many(args, out):
            tally["release.jobs"] += len(args[0])

        for name, layer, note in (
            ("allocate", "alloc", placed),
            ("charge_skip", "skip", None),
            ("batch_screen", "screen", None),
            ("release", "release", released),
            ("release_many", "release", released_many),
        ):
            setattr(allocator, name,
                    self.wrap(layer, getattr(allocator, name), note))
        state = allocator.state
        state.claim = self.wrap("state.claim", state.claim)
        state.release = self.wrap("state.release", state.release)
        state.release_many = self.wrap("state.release", state.release_many)

    @contextlib.contextmanager
    def patched(self):
        """Wrap the run-state, event-queue and resilience methods for the
        duration."""
        tally = self.tally

        def columnar(args, out):  # (self, times, kinds, payloads)
            tally["drain.events"] += len(args[1])
            if len(args[1]) >= COLUMNAR_MIN_EVENTS:
                tally["drain.columnar_calls"] += 1

        def scalar(args, out):
            tally["drain.events"] += len(args[1])
            tally["drain.scalar_path"] += 1

        run_state = simulator_module._RunState
        targets = (
            (EventStreams, "take_round", "drain.take", None),
            (run_state, "schedule", "pass", None),
            (run_state, "drain_columnar", "drain", columnar),
            (run_state, "drain_scalar", "drain", scalar),
            (run_state, "result", "book", None),
            (ResilienceManager, "inject", "fault", None),
            (ResilienceManager, "repair", "fault", None),
        )
        saved = [(cls, name, cls.__dict__[name]) for cls, name, _, _ in targets]
        try:
            for cls, name, layer, note in targets:
                setattr(cls, name, self.wrap(layer, getattr(cls, name), note))
            yield self
        finally:
            for cls, name, original in saved:
                setattr(cls, name, original)

    def self_ms(self, layer: str) -> float:
        return 1e3 * self.self_s.get(layer, 0.0)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def nearest_rank(values: List[float], q: float) -> float:
    """The ``ceil(q*n)``-th smallest value (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]
