"""Observers attach from outside: the stage profiler and the span tracer
wrap allocator methods for the length of a block and leave nothing
behind (``StageProfiler.attach``, ``trace_allocator``)."""

import ast
import contextlib
from collections import Counter
from pathlib import Path

import pytest

import repro.core
from repro.core.baseline import BaselineAllocator
from repro.core.registry import make_allocator
from repro.obs.prof import StageProfiler
from repro.obs.tracer import Tracer, trace_allocator
from repro.sched import simulator as simulator_module
from repro.sched.job import Job
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree, LinkId
from repro.topology.faults import FaultInjector

SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
TREE = FatTree.from_radix(8)


def _round(allocator):
    """Two placements, one vector-pass skip, both release paths."""
    assert allocator.allocate(1, 5) is not None
    assert allocator.allocate(2, 7) is not None
    allocator.charge_skip(3, 3, None, "screen")
    allocator.release(1)
    allocator.release_many([2])


@contextlib.contextmanager
def _observed(allocator):
    """Both observers attached at once; yields (profiler, tracer)."""
    prof, tracer = StageProfiler(), Tracer(enabled=True)
    with prof.attach(allocator), trace_allocator(tracer, allocator):
        yield prof, tracer


class TestAttachContract:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_detach_restores_instance_dict(self, scheme):
        allocator = make_allocator(scheme, TREE)
        _round(allocator)  # caches reach their steady shape
        before = dict(vars(allocator))
        with _observed(allocator) as (prof, tracer):
            assert vars(allocator).keys() > before.keys()
            _round(allocator)
        assert vars(allocator) == before
        stacks = {s["stack"] for s in prof.snapshot()["stages"]}
        assert {"search", "claim", "release"} <= stacks
        assert [e["name"] for e in tracer.events] == ["alloc.search"] * 3

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_prior_wrappers_keep_running(self, scheme):
        # The benchmark oracle's placement recorder wraps these three
        # methods on the instance before any observer attaches.
        allocator = make_allocator(scheme, TREE)
        seen = Counter()

        def install(name):
            inner = getattr(allocator, name)

            def recorded(*args, **kwargs):
                seen[name] += 1
                return inner(*args, **kwargs)

            setattr(allocator, name, recorded)
            return recorded

        installed = {
            name: install(name)
            for name in ("allocate", "release", "release_many")
        }
        with _observed(allocator) as (_prof, tracer):
            _round(allocator)
        assert seen == {"allocate": 2, "release": 1, "release_many": 1}
        assert len(tracer.events) == 3
        for name, fn in installed.items():
            assert vars(allocator)[name] is fn
        _round(allocator)
        assert seen == {"allocate": 4, "release": 2, "release_many": 2}

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_unwinding_call_closes_frames(self, scheme):
        allocator = make_allocator(scheme, TREE)

        def broken_claim(alloc, bw_need):
            raise RuntimeError("claim failed")

        allocator._claim = broken_claim
        with _observed(allocator) as (prof, tracer):
            with pytest.raises(RuntimeError):
                allocator.allocate(1, 5)
            assert prof._stack == []
            assert tracer._depth == 0
            assert tracer.events == []  # a raising call records no span
        stacks = {s["stack"] for s in prof.snapshot()["stages"]}
        assert {"search", "claim"} <= stacks
        assert vars(allocator)["_claim"] is broken_claim

    def test_budget_abort_leaves_stack_empty(self):
        # LC+S's step budget raises BudgetExhausted deep inside the
        # three-level pod enumeration; the frames it unwinds through
        # must close and the stack must be balanced for the next call.
        allocator = make_allocator("lc+s", TREE, step_budget=10)
        for jid in range(1, TREE.num_nodes // TREE.m1 + 1):
            allocator.allocate(jid, 1)  # one busy node on every leaf
        prof = StageProfiler()
        with prof.attach(allocator):
            assert allocator.allocate(999, 40) is None
            assert allocator._budget_exhausted
            assert prof._stack == []
            allocator.release(1)
        stacks = {s["stack"] for s in prof.snapshot()["stages"]}
        assert "search;three_level;pod_enum" in stacks
        assert "release" in stacks

    def test_missing_stage_method_raises(self):
        class TierlessTA(BaselineAllocator):
            name = "ta"  # claims TA's stage table without its tiers

        allocator = TierlessTA(TREE)
        before = dict(vars(allocator))
        with pytest.raises(ValueError, match="_search_t1, _search_t2, _search_t3"):
            with StageProfiler().attach(allocator):
                pass
        assert vars(allocator) == before

    def test_unlisted_scheme_gets_base_stages(self):
        class Custom(BaselineAllocator):
            name = "custom"

        allocator = Custom(TREE)
        prof = StageProfiler()
        with prof.attach(allocator):
            _round(allocator)
        stacks = {s["stack"] for s in prof.snapshot()["stages"]}
        assert stacks == {"search", "claim", "release"}

    def test_core_imports_no_observer(self):
        core = Path(repro.core.__file__).parent
        observers = ("repro.obs.tracer", "repro.obs.prof")
        for path in sorted(core.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    # the package root re-exports both observers
                    assert module != "repro.obs", path.name
                    names = [module] + [
                        f"{module}.{a.name}" for a in node.names
                    ]
                else:
                    continue
                for name in names:
                    assert not name.startswith(observers), (path.name, name)


class TestAllocSpans:
    def test_skip_outcomes(self):
        allocator = make_allocator("jigsaw", TREE)
        tracer = Tracer(enabled=True)
        with trace_allocator(tracer, allocator):
            allocator.charge_skip(1, 9, 1.5, "screen")
            allocator.charge_skip(2, 9, 1.5, "cache")
            allocator.allocate(3, 9, bw_need=1.5)
        outcomes = [e["attrs"]["outcome"] for e in tracer.events]
        assert outcomes == ["prefiltered:screen", "cache_hit", "cache_hit"]
        first = tracer.events[0]["attrs"]
        assert first["bw_need"] == 1.5 and first["eff"] == 9
        assert "level" not in first and "steps_used" in first
        assert {e["depth"] for e in tracer.events} == {0}

    def test_steps_used_counts_the_call_alone(self):
        # Every pod but one full, and one dead uplink per leaf of the
        # last: any two of its leaves share only two free uplinks, so an
        # 8-node search fits that pod shape by shape and fails.
        allocator = make_allocator("jigsaw", TREE)
        inj = FaultInjector(allocator)
        for jid in range(1, TREE.num_pods):
            assert allocator.allocate(jid, TREE.nodes_per_pod) is not None
        (pod,) = allocator.state.feasible_pods(1)
        for j in range(TREE.m2):
            inj.fail_leaf_link(LinkId(pod * TREE.m2 + j, j))
        size = 2 * TREE.m1
        tracer = Tracer(enabled=True)
        with trace_allocator(tracer, allocator):
            assert allocator.allocate(100, size) is None
            assert allocator.allocate(101, size) is None
            allocator.charge_skip(102, size, None, "screen")
        attrs = [e["attrs"] for e in tracer.events]
        assert [a["outcome"] for a in attrs] == [
            "failed", "cache_hit", "prefiltered:screen",
        ]
        steps = [a["steps_used"] for a in attrs]
        # The hit and the skip ran no search; neither repeats its steps.
        assert steps[0] > 0 and steps[1:] == [0, 0]

    def test_budget_exhausted_is_the_calls_own(self):
        allocator = make_allocator("lc+s", TREE, step_budget=10)
        for jid in range(1, TREE.num_nodes // TREE.m1 + 1):
            allocator.allocate(jid, 1)  # one busy node on every leaf
        tracer = Tracer(enabled=True)
        with trace_allocator(tracer, allocator):
            assert allocator.allocate(999, 40) is None
            allocator.charge_skip(1000, 40, None, "screen")
        abort, skip = (e["attrs"] for e in tracer.events)
        assert abort["budget_exhausted"] is True
        assert abort["steps_used"] == 10
        assert skip["budget_exhausted"] is False
        assert skip["steps_used"] == 0


class TestRunScopedTracer:
    def _jobs(self):
        return [
            Job(id=i, size=(i % 11) + 1, runtime=40.0 + 9 * (i % 4),
                arrival=3.0 * i)
            for i in range(40)
        ]

    def test_tracer_does_not_outlive_its_run(self, monkeypatch):
        allocator = make_allocator("jigsaw", TREE)
        tracer = Tracer(enabled=True)
        Simulator(allocator, tracer=tracer).run(self._jobs(), "t")
        recorded = len(tracer.events)
        assert recorded
        assert "allocate" not in vars(allocator)

        drains = Counter()
        original = simulator_module._RunState.drain_columnar

        def spy(self, times, kinds, payloads):
            drains["columnar"] += 1
            return original(self, times, kinds, payloads)

        monkeypatch.setattr(
            simulator_module._RunState, "drain_columnar", spy
        )
        Simulator(allocator).run(self._jobs(), "t")
        assert len(tracer.events) == recorded
        assert drains["columnar"] > 0
