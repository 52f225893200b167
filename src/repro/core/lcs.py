"""Least-Constrained scheduling, with and without Link-Sharing (LC+S).

The paper's formal conditions (section 3.2) admit far more placements
than Jigsaw actually uses: any nodes-per-leaf value ``nL``, any
combination of partially-free leaves across pods.  The **LC** scheme
searches that full space.  The paper shows (section 4) that full
permissiveness *hurts*: scattered partial leaves cause external
fragmentation, and the search space is exponential in the tree size.

**LC+S** (section 5.2.3) adds the one relaxation that makes the least-
constrained approach shine as a *bounding* scheme: links are shared.
Each job declares an average per-link bandwidth need (0.5-2.0 GB/s in the
paper's setup), links are filled up to an 80 % cap of the 5 GB/s peak,
and a link is "available" to a job if it still has headroom.  This
information is not available to real schedulers — LC+S is of theoretical
interest only — but it approximates the best utilization any
low-interference scheduler could reach.

Because the search space is enormous, LC+S needs a per-job scheduling
timeout (5 s in the paper).  We model it as a backtracking **step
budget** plus an optional wall-clock limit; when the budget is spent the
job simply fails to schedule at this event, exactly like the paper's
timeout.  Table 3's scheduling-time blowup for LC+S falls out of this
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocator import Allocation
from repro.core.jigsaw import JigsawAllocator
from repro.core.shapes import (
    Order,
    ThreeLevelShape,
    three_level_shapes_cached,
)
from repro.topology.fattree import LinkId, SpineLinkId, XGFT
from repro.topology.state import LinkCapacityState, indices_of, lowest_bits


@dataclass
class _PodSolution:
    """One way a pod can host ``LT`` leaves of ``nL`` nodes: the leaves and
    the bitmask of L2 indices they can commonly reach."""

    leaves: Tuple[int, ...]
    inter: int
    rem_leaf: Optional[int] = None
    rem_avail: int = 0


class LeastConstrainedAllocator(JigsawAllocator):
    """The LC/LC+S bounding scheme.

    Parameters
    ----------
    tree:
        Topology to allocate on.
    share_links:
        ``True`` (LC+S) shares links by bandwidth; ``False`` (pure LC)
        keeps links exclusive — the variant section 4 argues is *worse*
        than Jigsaw, used by the restriction ablation.
    default_bw:
        Per-link bandwidth need (GB/s) assumed for jobs that do not
        declare one.
    peak_bandwidth, cap_fraction:
        Link capacity model; the paper uses 5 GB/s capped at 80 %.
    step_budget:
        Backtracking steps allowed per allocation attempt (the paper's
        5-second timeout, made deterministic).
    max_solutions_per_pod:
        Cap on the per-pod solution lists gathered by ``find_all_L2``.
    """

    name = "lc+s"
    #: links are shared, so strict isolation does not hold ...
    isolating = False
    #: ... but interference is engineered to be negligible, so the
    #: performance scenarios treat LC+S like the isolating schemes.
    low_interference = True

    def __init__(
        self,
        tree: XGFT,
        share_links: bool = True,
        default_bw: float = 1.0,
        peak_bandwidth: float = 5.0,
        cap_fraction: float = 0.8,
        step_budget: int = 50_000,
        max_solutions_per_pod: int = 64,
        order: Order = "dense",
    ):
        super().__init__(tree, order=order)
        self.share_links = share_links
        if not share_links:
            self.name = "lc"
            self.isolating = True
        self.default_bw = default_bw
        self.links = LinkCapacityState(
            tree, peak_bandwidth=peak_bandwidth, cap_fraction=cap_fraction
        )
        self.step_budget = step_budget
        self.max_solutions_per_pod = max_solutions_per_pod
        self._bw = default_bw
        self._bw_by_job: Dict[int, float] = {}
        # Per-_search columnar mask caches (pod -> per-leaf / per-L2
        # bitmask rows at the current bandwidth need); reset by _search.
        self._leaf_mask_cache: Dict[int, List[int]] = {}
        self._spine_mask_cache: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Link availability: bandwidth headroom instead of exclusive ownership
    # ------------------------------------------------------------------
    def _leaf_mask(self, leaf: int) -> int:
        if self.share_links:
            # Columnar per-search cache: bandwidth and link state are
            # fixed for the duration of one _search, so all of a pod's
            # leaf masks are built in one vectorized pass (identical
            # IEEE comparison, see
            # :meth:`LinkCapacityState.leaf_masks_of_pod`) on first
            # touch instead of one Python loop per leaf per probe.
            pod = leaf // self.tree.m2
            row = self._leaf_mask_cache.get(pod)
            if row is None:
                row = self.links.leaf_masks_of_pod(pod, self._bw)
                self._leaf_mask_cache[pod] = row
            return row[leaf - pod * self.tree.m2]
        return self.state.leaf_up_mask[leaf]

    def _spine_mask(self, pod: int, i: int) -> int:
        if self.share_links:
            row = self._spine_mask_cache.get(pod)
            if row is None:
                row = self.links.spine_masks_of_pod(pod, self._bw)
                self._spine_mask_cache[pod] = row
            return row[i]
        return self.state.spine_free_mask[pod][i]

    def _search(self, job_id: int, size: int, bw_need: Optional[float]):
        self._bw = bw_need if bw_need is not None else self.default_bw
        self._leaf_mask_cache = {}
        self._spine_mask_cache = {}
        return super()._search(job_id, size, bw_need)

    def _search_two_level(self, alloc_size: int):
        """Scored two-level search as a per-pod walk.

        The LC family fits every (shape, pod) pair with the per-pod
        backtracking instead of Jigsaw's bucket-row scorer: its 50k step
        budget *binds* (the paper's scheduling timeout), so every tick
        is decision-relevant, and the LC+S leaf masks are bandwidth
        headroom, which the occupancy buckets cannot see.  The selection
        rule is Jigsaw's: first ``(0, 0)`` score, else the strict-``<``
        minimum.
        """
        best = None  # (score, shape, solution)
        for shape in self._two_level_shape_iter(alloc_size):
            for pod in self._two_level_pods(alloc_size, shape):
                found = self._find_two_level_in_pod(pod, shape)
                if found is None:
                    continue
                score = self._score_two_level(shape, found)
                if best is None or score < best[0]:
                    best = (score, shape, found)
                    if score[:2] == (0, 0):
                        return shape, found  # perfect fit, stop searching
        if best is None:
            return None
        return best[1], best[2]

    def _trace_attrs(self, size):
        attrs = super()._trace_attrs(size)
        attrs["share_links"] = self.share_links
        attrs["step_budget"] = self.step_budget
        return attrs

    def batch_screen(self, effs):
        """No occupancy screen for the LC family.

        LC(+S) searches *unrestricted* three-level shapes (partial
        leaves everywhere) and its feasibility depends on fractional
        link-bandwidth masks, not on the node-occupancy summaries alone
        — Jigsaw's full-leaf screen would wrongly reject placements LC
        can build from partial leaves.  The monotone size cut (fed by
        LC's *durable* failures only) and the feasibility cache still
        apply; they are bandwidth-keyed and proof-backed.
        """
        return None

    def _claim(self, alloc: Allocation, bw_need: Optional[float]) -> None:
        bw = bw_need if bw_need is not None else self.default_bw
        if self.share_links:
            # Nodes stay exclusive; links are accounted as bandwidth.
            self.state.claim(alloc.job_id, alloc.nodes)
            self.links.claim(alloc.job_id, alloc.leaf_links, alloc.spine_links, bw)
            self._bw_by_job[alloc.job_id] = bw
        else:
            super()._claim(alloc, bw_need)

    def _release(self, job_id: int) -> None:
        if self.share_links:
            self.state.release(job_id)
            self.links.release(job_id)
            self._bw_by_job.pop(job_id, None)
        else:
            super()._release(job_id)

    def _release_many(self, job_ids) -> None:
        self.state.release_many(job_ids)
        if self.share_links:
            for job_id in job_ids:
                self.links.release(job_id)
                self._bw_by_job.pop(job_id, None)

    # ------------------------------------------------------------------
    # Shapes: the full least-constrained space
    # ------------------------------------------------------------------
    def _three_level_shape_iter(self, size: int):
        return three_level_shapes_cached(
            size,
            self.tree.m1,
            self.tree.m2,
            self.tree.m3,
            self.order,
            False,
        )

    # ------------------------------------------------------------------
    # find_all_L2: every way a pod can host part of the job
    # ------------------------------------------------------------------
    def _find_all_in_pod(
        self, pod: int, LT: int, nL: int, nrL: int
    ) -> List[_PodSolution]:
        """All (capped) sub-allocations of ``LT`` leaves x ``nL`` nodes in
        ``pod``, each optionally with an ``nrL``-node remainder leaf.

        Results are memoized per ``_search`` under their exact ``(pod,
        LT, nL, nrL)`` key — the cluster state and the job's bandwidth
        need are fixed for the duration of a search, so a repeat call
        (``_finish_general`` probes the same remainder pods once per
        completed pod combination) must return the same solutions.  A
        hit replays the recorded step cost through :meth:`_charge` so
        the LC+S budget timeout fires at exactly the step it would have
        fired at without the memo.
        """
        key = (pod, LT, nL, nrL)
        hit = self._pod_memo.get(key)
        if hit is not None:
            sols, cost = hit
            self.stats.memo_hits += 1
            self._charge(cost)
            return sols
        before = self._steps_left
        sols = self._find_all_in_pod_uncached(pod, LT, nL, nrL)
        self._pod_memo[key] = (sols, before - self._steps_left)
        return sols

    def _find_all_in_pod_uncached(
        self, pod: int, LT: int, nL: int, nrL: int
    ) -> List[_PodSolution]:
        tree = self.tree
        state = self.state
        need = LT * nL + nrL
        if state.pod_free[pod] < need:
            return []
        # Ascending leaf-id order off the maintained buckets.
        self.stats.candidate_hits += 1
        candidates = state.leaf_candidates_by_id(pod, nL)
        if len(candidates) < LT:
            return []
        solutions: List[_PodSolution] = []
        chosen: List[int] = []
        full_mask = (1 << tree.l2_per_pod) - 1

        def attach_remainder(inter: int) -> Optional[Tuple[Optional[int], int]]:
            if nrL == 0:
                return None, 0
            taken = set(chosen)
            # First eligible leaf in best-fit (free, leaf-id) order ==
            # the min-scan's pick: fewest free nodes, then lowest id.
            for leaf in self._pod_candidates(pod, nrL):
                if leaf in taken:
                    continue
                avail = self._leaf_mask(leaf) & inter
                if avail.bit_count() < nrL:
                    continue
                return leaf, avail
            return None

        def backtrack(start: int, inter: int) -> None:
            self._tick()
            if len(solutions) >= self.max_solutions_per_pod:
                return
            if len(chosen) == LT:
                rem = attach_remainder(inter)
                if rem is not None:
                    rem_leaf, rem_avail = rem
                    solutions.append(
                        _PodSolution(tuple(chosen), inter, rem_leaf, rem_avail)
                    )
                return
            for idx in range(start, len(candidates) - (LT - len(chosen)) + 1):
                leaf = candidates[idx]
                ni = inter & self._leaf_mask(leaf)
                if ni.bit_count() < nL:
                    continue
                chosen.append(leaf)
                backtrack(idx + 1, ni)
                chosen.pop()
                if len(solutions) >= self.max_solutions_per_pod:
                    return

        backtrack(0, full_mask)
        return solutions

    # ------------------------------------------------------------------
    # find_L3: the general cross-pod search (no full-leaf restriction)
    # ------------------------------------------------------------------
    def _find_three_level(self, shape: ThreeLevelShape):
        tree = self.tree
        n_i = tree.l2_per_pod
        # Replica of _find_all_in_pod's tick-free rejections (pod_free
        # and candidate-count): pruned pods would have returned []
        # without spending budget.
        scan = self.state.feasible_pods(shape.LT * shape.nL, shape.nL, shape.LT)
        self.stats.pods_pruned += tree.num_pods - len(scan)
        sols: Dict[int, List[_PodSolution]] = {}
        for pod in scan:
            s = self._find_all_in_pod(pod, shape.LT, shape.nL, 0)
            if s:
                sols[pod] = s
        if len(sols) < shape.T:
            return None

        pods = sorted(sols)
        chosen: List[Tuple[int, _PodSolution]] = []

        def spine_ok(pod: int, spine_inter: List[int]) -> Optional[List[int]]:
            """AND in this pod's spine masks; viable if enough L2 indices
            could still support LT common spine links."""
            ni = [spine_inter[i] & self._spine_mask(pod, i) for i in range(n_i)]
            return ni

        def viable(leaf_inter: int, spine_inter: List[int]) -> bool:
            good = 0
            for i in range(n_i):
                if leaf_inter & (1 << i) and spine_inter[i].bit_count() >= shape.LT:
                    good += 1
            return good >= shape.nL

        def backtrack(start: int, leaf_inter: int, spine_inter: List[int]):
            self._tick()
            if len(chosen) == shape.T:
                return self._finish_general(shape, chosen, leaf_inter, spine_inter)
            for idx in range(start, len(pods) - (shape.T - len(chosen)) + 1):
                pod = pods[idx]
                spine_i = spine_ok(pod, spine_inter)
                for sol in sols[pod]:
                    self._tick()
                    ni = leaf_inter & sol.inter
                    if ni.bit_count() < shape.nL or not viable(ni, spine_i):
                        continue
                    chosen.append((pod, sol))
                    result = backtrack(idx + 1, ni, spine_i)
                    if result is not None:
                        return result
                    chosen.pop()
            return None

        full_leaf = (1 << n_i) - 1
        full_spine = (1 << tree.spines_per_group) - 1
        return backtrack(0, full_leaf, [full_spine] * n_i)

    def _finish_general(
        self,
        shape: ThreeLevelShape,
        chosen: Sequence[Tuple[int, _PodSolution]],
        leaf_inter: int,
        spine_inter: List[int],
    ):
        """Pick the remainder pod and the final S / S*_i sets."""
        tree = self.tree
        taken = {pod for pod, _ in chosen}
        if not shape.has_remainder_pod:
            picked = self._choose_s(shape, leaf_inter, spine_inter, None, None)
            if picked is None:
                return None
            return list(chosen), None, picked
        # Necessary, tick-free conditions for the per-rp probes to yield
        # any solution: LrT leaves with >= nL free plus the node total
        # (the _find_all_in_pod early-outs), or — for a bare remainder
        # leaf — one leaf with >= nrL free.
        if shape.LrT:
            rps = self.state.feasible_pods(
                shape.LrT * shape.nL + shape.nrL, shape.nL, shape.LrT
            )
        else:
            rps = self.state.feasible_pods(shape.nrL, shape.nrL, 1)
        self.stats.pods_pruned += tree.num_pods - len(rps)
        for rp in rps:
            if rp in taken:
                continue
            for rsol in self._find_all_in_pod(rp, shape.LrT, shape.nL, shape.nrL) \
                    if shape.LrT else self._remainder_only_solutions(rp, shape):
                ni = leaf_inter & rsol.inter if shape.LrT else leaf_inter
                if shape.LrT and ni.bit_count() < shape.nL:
                    continue
                picked = self._choose_s(shape, ni, spine_inter, rp, rsol)
                if picked is None:
                    continue
                return list(chosen), (rp, rsol), picked
        return None

    def _remainder_only_solutions(
        self, rp: int, shape: ThreeLevelShape
    ) -> List[_PodSolution]:
        """Remainder pods holding only the remainder leaf (``LrT == 0``).

        Entirely tick-free, so the per-search memo replays it at cost 0.
        The key reuses the ``(pod, LT, nL, nrL)`` space with ``LT = 0``,
        which no real :meth:`_find_all_in_pod` call can produce
        (``TwoLevelShape``/``ThreeLevelShape`` force ``LT >= 1``).
        """
        key = (rp, 0, 0, shape.nrL)
        hit = self._pod_memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit[0]
        sols = self._remainder_only_uncached(rp, shape)
        self._pod_memo[key] = (sols, 0)
        return sols

    def _remainder_only_uncached(
        self, rp: int, shape: ThreeLevelShape
    ) -> List[_PodSolution]:
        tree = self.tree
        out: List[_PodSolution] = []
        # Best-fit (free, leaf-id) order — identical to the old
        # sorted((free, leaf)) ranking.
        ranked = self._pod_candidates(rp, shape.nrL)
        for leaf in ranked[:4]:  # a few best-fit candidates suffice
            avail = self._leaf_mask(leaf)
            if avail.bit_count() >= shape.nrL:
                out.append(_PodSolution((), (1 << tree.l2_per_pod) - 1, leaf, avail))
        return out

    def _choose_s(
        self,
        shape: ThreeLevelShape,
        leaf_inter: int,
        spine_inter: List[int],
        rp: Optional[int],
        rsol: Optional[_PodSolution],
    ):
        """Select S (L2 indices), Sr, and per-index spine sets S*_i, S*r_i."""
        tree = self.tree
        n_i = tree.l2_per_pod
        base_ok: List[int] = []
        plus_ok: List[int] = []
        for i in range(n_i):
            if not leaf_inter & (1 << i):
                continue
            if spine_inter[i].bit_count() < shape.LT:
                continue
            if rp is None:
                base_ok.append(i)
                continue
            rp_avail = spine_inter[i] & self._spine_mask(rp, i)
            if rp_avail.bit_count() < shape.LrT:
                continue
            base_ok.append(i)
            if (
                rsol is not None
                and rsol.rem_leaf is not None
                and rsol.rem_avail & (1 << i)
                and rp_avail.bit_count() >= shape.LrT + 1
            ):
                plus_ok.append(i)
        nrL = shape.nrL if rsol is not None and rsol.rem_leaf is not None else 0
        if len(plus_ok) < nrL or len(base_ok) < shape.nL:
            return None
        sr = plus_ok[:nrL]
        s = sr + [i for i in base_ok if i not in sr][: shape.nL - nrL]
        if len(s) < shape.nL:
            return None
        s_star: Dict[int, int] = {}
        s_star_r: Dict[int, int] = {}
        for i in s:
            if rp is None:
                s_star[i] = lowest_bits(spine_inter[i], shape.LT)
                continue
            need_r = shape.LrT + (1 if i in sr else 0)
            rp_avail = spine_inter[i] & self._spine_mask(rp, i)
            sr_i = lowest_bits(rp_avail, need_r) if need_r else 0
            rest = spine_inter[i] & ~sr_i
            s_star[i] = sr_i | (
                lowest_bits(rest, shape.LT - need_r) if shape.LT > need_r else 0
            )
            s_star_r[i] = sr_i
        return sorted(s), sorted(sr), s_star, s_star_r

    # ------------------------------------------------------------------
    # Assembly for the general three-level solution
    # ------------------------------------------------------------------
    def _build_three_level(self, job_id: int, size: int, shape: ThreeLevelShape, *found):
        full, rem, picked = found
        s, sr, s_star, s_star_r = picked
        state = self.state
        nodes: List[int] = []
        leaf_links: List[LinkId] = []
        spine_links: List[SpineLinkId] = []

        for pod, sol in full:
            for leaf in sol.leaves:
                nodes.extend(state.free_node_ids(leaf, shape.nL))
                leaf_links.extend(LinkId(leaf, i) for i in s)
            for i in s:
                spine_links.extend(
                    SpineLinkId(pod, i, j) for j in indices_of(s_star[i])
                )
        if rem is not None:
            rp, rsol = rem
            for leaf in rsol.leaves:
                nodes.extend(state.free_node_ids(leaf, shape.nL))
                leaf_links.extend(LinkId(leaf, i) for i in s)
            if rsol.rem_leaf is not None:
                nodes.extend(state.free_node_ids(rsol.rem_leaf, shape.nrL))
                leaf_links.extend(LinkId(rsol.rem_leaf, i) for i in sr)
            for i in s:
                spine_links.extend(
                    SpineLinkId(rp, i, j) for j in indices_of(s_star_r.get(i, 0))
                )
        return Allocation(
            job_id=job_id,
            size=size,
            nodes=tuple(nodes),
            leaf_links=tuple(leaf_links),
            spine_links=tuple(spine_links),
            shape=shape,
        )
