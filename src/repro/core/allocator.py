"""Allocator interface and the :class:`Allocation` result type.

Every scheduling scheme in the paper's evaluation is an
:class:`Allocator`: given a job size it either finds a placement that
satisfies the scheme's conditions — claiming the nodes (and, for the
link-isolating schemes, the links) in the shared
:class:`~repro.topology.state.ClusterState` — or reports that no legal
placement currently exists.  The discrete-event simulator in
:mod:`repro.sched` drives allocators through exactly this interface.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.shapes import ThreeLevelShape, TwoLevelShape
from repro.obs.metrics import metric
from repro.topology.fattree import LinkId, SpineLinkId, XGFT
from repro.topology.state import ClusterState

Shape = Union[TwoLevelShape, ThreeLevelShape, None]


@dataclass(frozen=True)
class Allocation:
    """One job's placement: nodes, links, and the shape that produced it.

    ``nodes`` may exceed ``size`` for schemes with internal node
    fragmentation (LaaS rounds jobs up to whole leaves); utilization
    accounting always uses ``size`` — the padding is precisely the
    fragmentation the paper charges against LaaS (Table 2 discussion).
    """

    job_id: int
    size: int
    nodes: Tuple[int, ...]
    leaf_links: Tuple[LinkId, ...] = ()
    spine_links: Tuple[SpineLinkId, ...] = ()
    shape: Shape = None

    def __post_init__(self) -> None:
        if len(self.nodes) < self.size:
            raise ValueError(
                f"allocation for job {self.job_id} has {len(self.nodes)} nodes "
                f"but the job requested {self.size}"
            )

    @property
    def padding(self) -> int:
        """Nodes assigned beyond the request (internal fragmentation)."""
        return len(self.nodes) - self.size

    def leaf_node_counts(self, tree: XGFT) -> Dict[int, int]:
        """Map of leaf index to number of allocated nodes on that leaf."""
        counts: Dict[int, int] = {}
        for n in self.nodes:
            leaf = n // tree.m1
            counts[leaf] = counts.get(leaf, 0) + 1
        return counts


@dataclass
class AllocatorStats:
    """Counters every allocator maintains; feeds Table 3 and diagnostics.

    Each field declares its metric name and help text once (see
    :func:`repro.obs.metrics.metric`); :mod:`repro.obs.bridge` exports
    every declared field, and results and diagnostics carry a copy of
    the whole object rather than of single fields.
    """

    attempts: int = metric(
        "repro_alloc_attempts_total",
        "allocation attempts (successes + failures)")
    successes: int = metric(
        "repro_alloc_successes_total",
        "allocation attempts that placed the job")
    failures: int = metric(
        "repro_alloc_failures_total",
        "allocation attempts that found no placement")
    releases: int = metric(
        "repro_alloc_releases_total",
        "completed jobs whose resources were released")
    alloc_seconds: float = metric(
        "repro_alloc_seconds_total",
        "wall-clock seconds inside allocate()/release()", default=0.0)
    two_level: int = metric(
        "repro_alloc_two_level_total",
        "successful two-level (single-pod) placements")
    three_level: int = metric(
        "repro_alloc_three_level_total",
        "successful three-level (cross-pod) placements")
    cache_hits: int = metric(
        "repro_feasibility_cache_hits_total",
        "feasibility-cache lookups answered without a search")
    cache_misses: int = metric(
        "repro_feasibility_cache_misses_total",
        "feasibility-cache lookups that ran the search")
    cache_invalidations: int = metric(
        "repro_feasibility_cache_invalidations_total",
        "feasibility-cache flushes because free capacity grew")
    backtrack_steps: int = metric(
        "repro_search_backtrack_steps_total",
        "backtracking steps executed by searches")
    budget_aborts: int = metric(
        "repro_search_budget_aborts_total",
        "searches abandoned when the step budget ran out")
    queue_prefiltered: int = metric(
        "repro_queue_prefiltered_total",
        "queued candidates the scheduling pass rejected without a search "
        "(feasibility cache or batch screen)")

    def record(self, success: bool, seconds: float) -> None:
        self.attempts += 1
        self.alloc_seconds += seconds
        if success:
            self.successes += 1
        else:
            self.failures += 1

    @property
    def cache_hit_rate(self) -> float:
        """Share of feasibility lookups answered from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        """The cache, search-effort and pass-prefilter counters, one
        line each."""
        lookups = self.cache_hits + self.cache_misses
        return "\n".join((
            f"feasibility cache: {self.cache_hits}/{lookups} lookups "
            f"served from cache ({100 * self.cache_hit_rate:.1f}%, "
            f"{self.cache_invalidations} invalidations)",
            f"search effort: {self.backtrack_steps} backtracking steps, "
            f"{self.budget_aborts} budget aborts",
            f"pass prefilter: {self.queue_prefiltered} candidates skipped",
        ))

    def as_registry(self, registry=None, labels=None):
        """These counters as a :class:`repro.obs.metrics.MetricRegistry`.

        The registry's series are *bound*: they read this object's
        fields live, so ``snapshot()`` / ``export_prometheus_text()``
        always agree with the attributes.  The fields themselves stay
        plain numbers — the allocation hot path never pays for the
        registry view.
        """
        from repro.obs.bridge import registry_for_stats

        return registry_for_stats(self, registry=registry, labels=labels)


class Allocator(ABC):
    """Base class for all scheduling schemes.

    Subclasses implement :meth:`_search`, returning an
    :class:`Allocation` without touching state; the base class handles
    claiming, releasing, statistics, and the public API.
    """

    #: short scheme name, e.g. ``"jigsaw"`` — set by each subclass
    name: str = "abstract"
    #: whether the scheme guarantees inter-job network isolation
    isolating: bool = True
    #: whether jobs run at their isolated (sped-up) run time under this
    #: scheme; true for every isolating scheme and for LC+S (negligible
    #: interference), false only for Baseline
    low_interference: bool = True

    def __init__(self, tree: XGFT):
        self.tree = tree
        self.state = ClusterState(tree)
        self.stats = AllocatorStats()
        self.allocations: Dict[int, Allocation] = {}
        # Allocation-feasibility cache: (cut class, bw_need) -> the
        # smallest effective size proven durably infeasible since free
        # capacity last grew.  Within one cut class (see
        # :meth:`cut_class`) feasibility is monotone in the effective
        # size, and claims only *shrink* availability (nodes, exclusive
        # links, link-bandwidth headroom, TA's implicit reservations),
        # so every size at or above the floor stays infeasible across
        # any number of claims; only release() — or an external event
        # that returns capacity, see :meth:`invalidate_feasibility_cache`
        # — can make a floor stale.
        self._failed_floor: Dict[Tuple[Hashable, Optional[float]], int] = {}
        # Watermark guarding against *direct* state mutation (tests and
        # diagnostics releasing nodes without going through release()):
        # free_nodes_total above the last value seen at a cache consult
        # means capacity grew behind our back, so the cache is flushed.
        # Link-only growth is invisible to this guard — anything that
        # returns link capacity directly must still call
        # :meth:`invalidate_feasibility_cache` explicitly.
        self._min_free_seen = self.state.free_nodes_total

    # ------------------------------------------------------------------
    # Public API used by the simulator
    # ------------------------------------------------------------------
    def allocate(
        self, job_id: int, size: int, bw_need: Optional[float] = None
    ) -> Optional[Allocation]:
        """Try to place a ``size``-node job; claim resources on success.

        ``bw_need`` is the job's average per-link bandwidth requirement in
        GB/s; only the link-sharing scheme (LC+S) uses it, and the paper
        stresses that real schedulers do not have this information.
        """
        if size < 1:
            raise ValueError("job size must be positive")
        if job_id in self.allocations:
            raise ValueError(f"job {job_id} is already allocated")
        t0 = time.perf_counter()
        alloc = self._cached_search(job_id, size, bw_need)
        if alloc is not None:
            self._claim(alloc, bw_need)
            self.allocations[job_id] = alloc
            if isinstance(alloc.shape, ThreeLevelShape):
                self.stats.three_level += 1
            else:
                self.stats.two_level += 1
        self.stats.record(alloc is not None, time.perf_counter() - t0)
        return alloc

    def can_allocate(self, size: int, bw_need: Optional[float] = None) -> bool:
        """Whether a ``size``-node job could be placed *right now*.

        A hypothetical probe: the same cache lookup and search as
        :meth:`allocate`, but it claims nothing and spends no time in
        the timing statistics (so Table 3's scheduling times are not
        polluted by diagnostics).  A size the feasibility cache
        condemns is refused without a search, and a durable failure
        lowers the cache's floor exactly as a real attempt's would.
        """
        if size < 1:
            raise ValueError("job size must be positive")
        return self._cached_search(-1, size, bw_need) is not None

    def _cached_search(
        self, job_id: int, size: int, bw_need: Optional[float]
    ) -> Optional[Allocation]:
        """The feasibility-cache lookup :meth:`allocate` and
        :meth:`can_allocate` share: a condemned size runs no search;
        otherwise a free-node shortfall or a durable search failure
        lowers the floor."""
        self._check_watermark()
        eff = self.effective_size(size)
        if self.cut_infeasible(eff, bw_need):
            self.stats.cache_hits += 1
            return None
        self.stats.cache_misses += 1
        if size <= self.state.free_nodes_total:
            alloc = self._search(job_id, size, bw_need)
            if alloc is not None or not self._failure_is_durable():
                return alloc
        self._lower_floor(eff, bw_need)
        return None

    def release(self, job_id: int) -> None:
        """Return a finished job's resources to the free pool."""
        t0 = time.perf_counter()
        if job_id not in self.allocations:
            raise ValueError(f"job {job_id} is not allocated")
        del self.allocations[job_id]
        self._release(job_id)
        self.invalidate_feasibility_cache()
        self.stats.releases += 1
        self.stats.alloc_seconds += time.perf_counter() - t0

    def release_many(self, job_ids: Sequence[int]) -> None:
        """Release a batch of finished jobs in one pass.

        Equivalent to calling :meth:`release` once per id, but the
        feasibility cache and watermark are invalidated once for the
        whole batch and the underlying state update is grouped (a
        single occupancy-index pass when the allocator has no custom
        per-job teardown).  Validates every id up front so a bad id
        leaves the allocator untouched.
        """
        ids = list(job_ids)
        if not ids:
            return
        t0 = time.perf_counter()
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in release_many")
        for job_id in ids:
            if job_id not in self.allocations:
                raise ValueError(f"job {job_id} is not allocated")
        for job_id in ids:
            del self.allocations[job_id]
        self._release_many(ids)
        self.invalidate_feasibility_cache()
        self.stats.releases += len(ids)
        self.stats.alloc_seconds += time.perf_counter() - t0

    def _release_many(self, job_ids: List[int]) -> None:
        """Batch counterpart of :meth:`_release`.

        Subclasses with per-job teardown bookkeeping (e.g. owner maps)
        either override this or inherit the conservative fallback: if
        the subclass customized :meth:`_release`, call it per job so
        the bookkeeping still runs; otherwise hand the whole batch to
        :meth:`ClusterState.release_many`.
        """
        if type(self)._release is not Allocator._release:
            for job_id in job_ids:
                self._release(job_id)
        else:
            self.state.release_many(job_ids)

    def invalidate_feasibility_cache(self) -> None:
        """Forget every floor of the feasibility cache.

        Called automatically on :meth:`release`.  Anything else that
        grows free capacity *without* going through release — e.g.
        :meth:`repro.topology.faults.FaultInjector.repair` returning
        drained hardware to service, or a test mutating
        :attr:`state` directly — must call this before the next
        allocation attempt.  Growth in the *node* count is additionally
        caught by a free-node watermark at the next consult, so only
        link-only growth strictly requires the explicit call.
        """
        if self._failed_floor:
            self._failed_floor.clear()
            self.stats.cache_invalidations += 1
        self._min_free_seen = self.state.free_nodes_total

    def _check_watermark(self) -> None:
        """Flush the cache if free capacity grew outside release()."""
        free = self.state.free_nodes_total
        if free > self._min_free_seen:
            self.invalidate_feasibility_cache()
        else:
            self._min_free_seen = free

    @property
    def feasibility_cache_size(self) -> int:
        """Number of floors the feasibility cache holds (diagnostic;
        resets to 0 on every release)."""
        return len(self._failed_floor)

    def feasibility_cache_keys(self) -> Tuple[Tuple[int, Optional[float]], ...]:
        """Each floor as ``(effective size, bw_need)``: that size and
        every larger one in its cut class are proven unallocatable (for
        audits/tests)."""
        floors = self._failed_floor.items()
        return tuple(sorted(
            ((eff, bw_need) for (_, bw_need), eff in floors), key=repr
        ))

    def effective_size(self, size: int) -> int:
        """Nodes a ``size``-node job actually consumes under this scheme.

        Used by EASY backfilling's shadow-time estimate.  Only LaaS
        (whole-leaf rounding) overrides this.
        """
        return size

    # ------------------------------------------------------------------
    # Scheduling-pass prefilter API (see sched/simulator.py)
    # ------------------------------------------------------------------
    def cut_class(self, eff: int) -> Hashable:
        """Partition key within which feasibility is monotone in ``eff``.

        A feasibility-cache floor only condemns effective sizes that
        share its cut class.  The base scheme families (Baseline,
        Jigsaw, LaaS, LC+S) are globally monotone — dropping a node from
        any legal placement of ``eff`` nodes yields a legal placement of
        ``eff - 1`` — so one class suffices.  TA overrides this with its
        containment tier: a multi-leaf placement can be feasible while a
        single-leaf (smaller) job has no leaf with enough room.
        """
        return 0

    def cut_infeasible(self, eff: int, bw_need: Optional[float]) -> bool:
        """Whether the feasibility cache condemns ``eff`` at ``bw_need``.

        True iff some effective size ``<= eff`` in the same cut class
        failed durably since the last cache flush.
        """
        floor = self._failed_floor.get((self.cut_class(eff), bw_need))
        return floor is not None and eff >= floor

    def _lower_floor(self, eff: int, bw_need: Optional[float]) -> None:
        """Record that ``eff`` at ``bw_need`` is durably infeasible."""
        fkey = (self.cut_class(eff), bw_need)
        cur = self._failed_floor.get(fkey)
        if cur is None or eff < cur:
            self._failed_floor[fkey] = eff

    def batch_screen(self, effs: List[int]) -> Optional[List[bool]]:
        """*Necessary-condition* infeasibility screen for a window.

        Given a list of effective sizes, return one bool per entry,
        ``True`` for candidates that provably cannot be placed against
        the current occupancy indexes — every ``True`` must imply
        :meth:`_search` would fail *and* that the failure is durable
        (claims only shrink availability, so a verdict computed
        mid-pass stays valid for the rest of the pass).  Each scheme
        reads its occupancy summaries once per call and compares every
        candidate against them.  ``None`` means the scheme has no screen
        and every candidate goes to the dispatcher's cache check only.
        Schemes whose feasibility is not a function of the occupancy
        indexes alone (LC+S's bandwidth masks) must return ``None``.
        """
        return None

    def charge_skip(
        self,
        job_id: int,
        size: int,
        bw_need: Optional[float] = None,
        reason: str = "cache",
    ) -> None:
        """Account for a scheduling-pass rejection exactly like a
        failed :meth:`allocate` call.

        The scheduling pass may only skip an allocate() whose failure is
        already proven: ``reason`` is ``"cache"`` when the feasibility
        cache condemns the size (:meth:`cut_infeasible`) and
        ``"screen"`` when the occupancy screen (:meth:`batch_screen`)
        does.  Decision invariance requires the *counters* to stay
        identical too — ``alloc_attempts`` is fingerprinted — so every
        skip is charged here as the failed call would have been: a
        cache skip counts a hit, a screen skip counts a miss and lowers
        the floor, and only the ``_search`` body is saved.
        """
        t0 = time.perf_counter()
        self._check_watermark()
        self.stats.queue_prefiltered += 1
        if reason == "cache":
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            self._lower_floor(self.effective_size(size), bw_need)
        self.stats.record(False, time.perf_counter() - t0)

    @property
    def free_nodes(self) -> int:
        return self.state.free_nodes_total

    @property
    def busy_requested_nodes(self) -> int:
        """Nodes doing requested work (excludes LaaS padding)."""
        return sum(a.size for a in self.allocations.values())

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _search(
        self, job_id: int, size: int, bw_need: Optional[float]
    ) -> Optional[Allocation]:
        """Find a placement without mutating state, or return None."""

    def _trace_attrs(self, size: int) -> Dict[str, Any]:
        """Scheme-specific attributes for the ``alloc.search`` span.

        Read after every traced call by the span wrapper :mod:`repro.obs`
        installs from outside; must be side-effect free.
        """
        return {}

    def _failure_is_durable(self) -> bool:
        """Whether the last failed :meth:`_search` *proves* infeasibility.

        A complete search's failure stays valid until capacity grows,
        so it may lower a feasibility-cache floor.  Budget-limited searches
        (LC+S's scheduling timeout) override this to return ``False``
        when they gave up early: a timeout is not a proof — a later,
        smaller search space might succeed within the budget, and
        caching the timeout would change scheduling decisions.
        """
        return True

    def _claim(self, alloc: Allocation, bw_need: Optional[float]) -> None:
        self.state.claim(
            alloc.job_id, alloc.nodes, alloc.leaf_links, alloc.spine_links
        )

    def _release(self, job_id: int) -> None:
        self.state.release(job_id)
