"""The Jigsaw allocator — Algorithm 1 of the paper.

Jigsaw first looks for a **two-level** (single-subtree) allocation: for
each legal shape ``LT * nL + nrL = size`` it scans the pods, and inside a
pod runs a recursive-backtracking search (``find_L2``) for ``LT`` leaves
that each have ``nL`` free nodes *and* ``nL`` free uplinks to a common
set ``S`` of L2 switches, plus an optional remainder leaf reaching a
subset ``Sr ⊆ S``.

If no subtree can host the job, Jigsaw looks for a **three-level**
allocation.  Here it applies its one restriction beyond the formal
conditions (section 4): every non-remainder leaf is used *entirely*
(``nL = m1``).  Full leaves connect to every L2 switch of their pod, so
the per-pod sub-allocation is just "``LT`` completely-free leaves", and
the cross-pod search (``find_L3``) backtracks over pods while
maintaining, for every L2 index ``i``, the running intersection of free
spine-link sets — the common spine sets ``S*_i`` of condition (6).

Link-availability sets are bitmasks (see :mod:`repro.topology.state`), so
the search inner loop is integer AND + popcount.

The same engine serves LaaS (:mod:`repro.core.laas`): LaaS is exactly
this search with job sizes rounded up to whole leaves, which is the
reduction-to-two-levels described in section 5.2.1.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.allocator import Allocation, Allocator
from repro.core.shapes import (
    Order,
    ThreeLevelShape,
    TwoLevelShape,
    three_level_shapes_cached,
    two_level_shapes_cached,
)
from repro.topology.fattree import LinkId, SpineLinkId, XGFT
from repro.topology.state import indices_of, lowest_bits


def _bucket_row_score(
    row: Sequence[int], LT: int, nL: int, nrL: int, m1: int
) -> Optional[Tuple[int, int, int]]:
    """Score of the greedy two-level fit in a pod with all uplinks free.

    ``row[f]`` is the bitmask of the pod's leaves holding exactly ``f``
    free nodes (:meth:`ClusterState.leaf_bucket_row`).  The fit takes
    the ``LT`` best-fit leaves (lowest ``f >= nL`` first) and, when
    ``nrL > 0``, a remainder leaf: the best-fit leaf with ``nrL <= f <
    nL`` if one exists — it precedes every chosen leaf in best-fit
    order — else the (LT+1)-th leaf at or above ``nL``.  Returns the
    ``(broken, residue, consumed)`` tuple of
    :meth:`JigsawAllocator._score_two_level`, or ``None`` when the pod
    lacks the leaves.
    """
    need = LT
    residue = -LT * nL
    for f in range(nL, m1 + 1):
        count = row[f].bit_count()
        if count >= need:
            residue += need * f
            spare = count - need
            break
        residue += count * f
        need -= count
    else:
        return None
    # Only the last bucket holds fully-free leaves.
    full = need if f == m1 else 0
    broken, consumed = (0, full) if nL == m1 else (full, 0)
    if nrL:
        fr = nrL
        while fr < nL and not row[fr]:
            fr += 1
        if fr == nL:
            # No leaf below nL: the next candidate after the chosen ones.
            fr = f
            if not spare:
                fr += 1
                while fr <= m1 and not row[fr]:
                    fr += 1
                if fr > m1:
                    return None
        residue += fr - nrL
        if fr == m1:
            broken += 1
    return broken, residue, consumed


class JigsawAllocator(Allocator):
    """Interference-free allocator with precise three-level conditions.

    Parameters
    ----------
    tree:
        Topology to allocate on.
    order:
        Factorization ordering for the shape enumeration; ``"dense"``
        (default) tries shapes touching the fewest leaves/pods first.
        The ordering ablation benchmark flips this.
    """

    name = "jigsaw"
    isolating = True

    #: backtracking-step ceiling per allocation attempt; generous enough
    #: that Jigsaw never hits it in practice (its search space is small —
    #: that is the point of the full-leaf restriction), but it bounds
    #: pathological states and is tightened by the LC+S subclass to model
    #: the paper's per-job scheduling timeout.
    step_budget: int = 5_000_000

    def __init__(
        self, tree: XGFT, order: Order = "dense", strategy: str = "scored"
    ):
        super().__init__(tree)
        if order not in ("dense", "sparse"):
            raise ValueError(
                f"unknown order {order!r}; expected 'dense' or 'sparse'"
            )
        self.order: Order = order
        if strategy not in ("scored", "first"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self._steps_left = self.step_budget
        self._budget_exhausted = False
        # Per-_search negative/positive memo for repeated per-pod
        # sub-searches (used by the LC family, cleared at every search).
        self._pod_memo: Dict[Tuple[int, int, int, int], tuple] = {}

    class BudgetExhausted(Exception):
        """Raised internally when a search exceeds its step budget."""

    def _tick(self) -> None:
        """Account one backtracking step; abort the search when spent."""
        self.stats.backtrack_steps += 1
        self._steps_left -= 1
        if self._steps_left <= 0:
            raise self.BudgetExhausted()

    def _charge(self, steps: int) -> None:
        """Account ``steps`` backtracking steps at once (memo replay).

        A memo hit must leave the budget exactly where re-running the
        memoized sub-search would have left it — including raising
        :class:`BudgetExhausted` at the same instant — or the LC+S
        timeout would fire at different points and change decisions.
        Replayed steps are *not* re-counted in ``stats.backtrack_steps``:
        that counter reports work actually executed.
        """
        if steps:
            self._steps_left -= steps
            if self._steps_left <= 0:
                raise self.BudgetExhausted()

    # ------------------------------------------------------------------
    # Shape enumeration hooks (overridden by LaaS)
    # ------------------------------------------------------------------
    def _two_level_shape_iter(self, size: int) -> Iterator[TwoLevelShape]:
        return two_level_shapes_cached(
            size, self.tree.m1, self.tree.m2, self.order
        )

    def _three_level_shape_iter(self, size: int) -> Iterator[ThreeLevelShape]:
        return three_level_shapes_cached(
            size,
            self.tree.m1,
            self.tree.m2,
            self.tree.m3,
            self.order,
            True,
        )

    # ------------------------------------------------------------------
    # get_allocation (Algorithm 1)
    # ------------------------------------------------------------------
    def _search(
        self, job_id: int, size: int, bw_need: Optional[float]
    ) -> Optional[Allocation]:
        alloc_size = self.effective_size(size)
        self._budget_exhausted = False
        if alloc_size > self.state.free_nodes_total:
            return None
        self._steps_left = self.step_budget
        self._pod_memo.clear()
        try:
            # Look for a single-subtree allocation first.
            found = self._search_two_level(alloc_size)
            if found is not None:
                shape, solution = found
                return self._build_two_level(job_id, size, shape, *solution)
            # Look for a three-level allocation if two-level failed.
            for shape in self._three_level_shape_iter(alloc_size):
                found3 = self._find_three_level(shape)
                if found3 is not None:
                    return self._build_three_level(job_id, size, shape, *found3)
        except self.BudgetExhausted:
            self._budget_exhausted = True
            return None  # the paper's per-job scheduling timeout (LC+S)
        return None

    def _failure_is_durable(self) -> bool:
        # A timed-out search proves nothing about feasibility; only an
        # exhaustive failure may enter the cross-pass feasibility cache.
        return not self._budget_exhausted

    def _trace_attrs(self, size):
        # steps_used reflects the last executed search (0 on cache hits)
        return {
            "strategy": self.strategy,
            "steps_used": self.step_budget - self._steps_left,
            "budget_exhausted": self._budget_exhausted,
        }

    def batch_screen(self, effs):
        """Necessary-condition screen from the occupancy indexes.

        A two-level placement needs one pod with ``>= eff`` free nodes;
        a (restricted, full-leaves-only) three-level placement of
        ``eff = F*m1 + r`` nodes needs ``F`` fully-free leaves plus —
        when ``r > 0`` — a further distinct leaf with ``>= r`` free
        nodes, so at least ``F + 1`` leaves with ``>= r`` free.  A
        candidate failing both tests provably fails the scalar search
        (durably: claims only shrink these summaries), independent of
        the step budget.  Conservative in the other direction — a
        passing candidate may still fail on link availability — so
        survivors always run the real search.  The count of leaves with
        ``>= r`` free nodes is summed over the pods once per remainder
        ``r`` that some candidate reaches.
        """
        state = self.state
        m1 = self.tree.m1
        pods = range(self.tree.m3)
        pod_max = max(state.pod_free)
        full_total = sum(state.full_free_leaves)
        leaves_ge: Dict[int, int] = {}
        out = []
        for eff in effs:
            if eff <= pod_max:
                out.append(False)
                continue
            full, rem = divmod(eff, m1)
            if full > full_total or rem == 0:
                out.append(full > full_total)
                continue
            if rem not in leaves_ge:
                leaves_ge[rem] = sum(
                    state.leaves_with_at_least(pod, rem) for pod in pods
                )
            out.append(leaves_ge[rem] < full + 1)
        return out

    def _search_two_level(self, alloc_size: int):
        """Find a single-subtree placement, returning ``(shape, solution)``.

        With ``strategy="first"`` this is Algorithm 1 verbatim: the first
        pod hosting the first legal shape wins.  With ``strategy="scored"``
        (the default) every feasible (shape, pod) pair is scored by the
        fragmentation it would leave behind — fully-free leaves broken,
        free nodes stranded on the touched leaves — and the least harmful
        placement wins: the first pair in (shape, pod) order whose score
        starts ``(0, 0)``, else the strict-``<`` minimum score, the
        earliest pair on ties.  The formal conditions admit every
        candidate either way; scoring only chooses *among* legal
        placements, which is exactly the freedom the paper argues
        precise conditions buy.
        """
        if self.strategy == "first":
            for shape in self._two_level_shape_iter(alloc_size):
                for pod in self._two_level_pods(alloc_size, shape):
                    found = self._find_two_level_in_pod(pod, shape)
                    if found is not None:
                        return shape, found
            return None
        l2_per_pod = self.tree.l2_per_pod
        best = None  # (score, shape, pod, found)
        for shape in self._two_level_shape_iter(alloc_size):
            if not shape.single_leaf and shape.nL > l2_per_pod:
                # No leaf can offer nL common uplinks; the per-pod fit
                # rejects every candidate set in every pod.
                continue
            pods = self._two_level_pods(alloc_size, shape)
            if not pods:
                continue
            ranked = self._score_shape_pods(shape, pods)
            if ranked is None:
                continue
            score, pod, found = ranked
            if score[:2] == (0, 0):
                return self._materialize_two_level(shape, pod, found)
            if best is None or score < best[0]:
                best = (score, shape, pod, found)
        if best is None:
            return None
        return self._materialize_two_level(*best[1:])

    def _score_shape_pods(self, shape: TwoLevelShape, pods: Sequence[int]):
        """Best placement of ``shape`` among ``pods`` (ascending order).

        Returns ``(score, pod, found)`` for the first pod whose score
        starts ``(0, 0)``, else for the strict-``<`` minimum score (the
        lowest pod on ties), or ``None`` when no pod can host the shape.
        ``found`` is the solution of pods fitted by
        :meth:`_find_two_level_in_pod`, ``None`` for pods scored from
        their bucket row.

        In a pod without claimed uplinks every leaf mask is full, so the
        backtracking of :meth:`_find_two_level_in_pod` never
        prunes: it takes the first ``LT`` leaves in best-fit order, and
        the first further leaf with ``>= nrL`` free nodes as remainder.
        Feasibility and the :meth:`_score_two_level` score are then
        functions of the pod's free-count bucket row alone
        (:func:`_bucket_row_score`).  Single-leaf shapes touch no link,
        so this holds in every pod; otherwise a pod holding a claimed
        uplink takes the per-pod fit, whose masks can prune.
        """
        state = self.state
        m1 = self.tree.m1
        LT, nL, nrL = shape.LT, shape.nL, shape.nrL
        links = not shape.single_leaf
        best = None  # (score, pod, found)
        for pod in pods:
            if links and state.busy_uplink_leaf_mask(pod):
                found = self._find_two_level_in_pod(pod, shape)
                if found is None:
                    continue
                score = self._score_two_level(shape, found)
            else:
                found = None
                score = _bucket_row_score(
                    state.leaf_bucket_row(pod), LT, nL, nrL, m1
                )
                if score is None:
                    continue
            if score[:2] == (0, 0):
                return score, pod, found
            if best is None or score < best[0]:
                best = (score, pod, found)
        return best

    def _materialize_two_level(self, shape: TwoLevelShape, pod: int, found):
        """Turn a winning (shape, pod) back into a concrete solution."""
        if found is None:
            found = self._find_two_level_in_pod(pod, shape)
            if found is None:
                raise RuntimeError(
                    "two-level bucket-row score disagreed with the per-pod fit"
                )
        return shape, found

    def _score_two_level(self, shape: TwoLevelShape, found) -> tuple:
        """Fragmentation cost of one candidate placement (lower is better):
        (fully-free leaves broken into partial leaves, free nodes stranded
        on the touched leaves, fully-free leaves consumed whole)."""
        full_leaves, _s, rem_leaf, _sr = found
        free = self.state.free_per_leaf
        m1 = self.tree.m1
        broken = 0
        consumed = 0
        residue = 0
        for leaf in full_leaves:
            f = int(free[leaf])
            if f == m1:
                if shape.nL == m1:
                    consumed += 1
                else:
                    broken += 1
            residue += f - shape.nL
        if rem_leaf is not None:
            f = int(free[rem_leaf])
            if f == m1:
                broken += 1
            residue += f - shape.nrL
        return (broken, residue, consumed)

    def _two_level_pods(self, alloc_size: int, shape: TwoLevelShape) -> List[int]:
        """Pods worth searching for ``shape``, in ascending pod order.

        One plain-int walk over the per-pod occupancy counters
        (:meth:`ClusterState.feasible_pods`): ``pod_free >= size`` and
        ``LT`` leaves with ``>= nL`` free nodes.  Both are exactly the
        *tick-free* rejections :meth:`_find_two_level_in_pod` (and, for
        single-leaf shapes, its best-fit leaf pick) would perform —
        skipping those pods costs no budget and changes no decision.
        """
        pods = self.state.feasible_pods(alloc_size, shape.nL, shape.LT)
        self.stats.pods_pruned += self.tree.num_pods - len(pods)
        return pods

    def _pod_candidates(self, pod: int, min_free: int) -> List[int]:
        """Leaves of ``pod`` with at least ``min_free`` free nodes in
        best-fit order (ascending free count, then leaf id), read off
        the maintained bucket order."""
        self.stats.candidate_hits += 1
        return self.state.leaf_candidates(pod, min_free)

    # ------------------------------------------------------------------
    # find_L2: search one pod for a two-level allocation
    # ------------------------------------------------------------------
    def _leaf_mask(self, leaf: int) -> int:
        """Bitmask of this leaf's free uplinks (hook for LC variants)."""
        return self.state.leaf_up_mask[leaf]

    def _spine_mask(self, pod: int, i: int) -> int:
        """Bitmask of free spine links at (pod, L2 i) (hook for LC)."""
        return self.state.spine_free_mask[pod][i]

    def _find_two_level_in_pod(
        self, pod: int, shape: TwoLevelShape
    ) -> Optional[Tuple[List[int], int, Optional[int], int]]:
        """Find ``shape`` inside ``pod``.

        Returns ``(full_leaves, S_mask, remainder_leaf, Sr_mask)`` or
        ``None``.  ``S_mask`` is the common-L2-set bitmask of condition
        (4); ``Sr_mask ⊆ S_mask`` is the remainder leaf's subset.
        """
        state = self.state
        tree = self.tree
        if state.pod_free[pod] < shape.size:
            return None

        # Whole job on one leaf: no links needed at all.
        if shape.single_leaf:
            leaf = state.best_fit_leaf(pod, shape.nL)
            if leaf is None:
                return None
            return [leaf], 0, None, 0

        # Best fit: try the leaves with the fewest (sufficient) free nodes
        # first, so partial leaves fill up before fully-free leaves are
        # broken — fully-free leaves are what three-level allocations need.
        candidates = self._pod_candidates(pod, shape.nL)
        if len(candidates) < shape.LT:
            return None

        chosen: List[int] = []

        def backtrack(start: int, inter: int) -> Optional[Tuple[int, Optional[int], int]]:
            if len(chosen) == shape.LT:
                return self._finish_two_level(pod, shape, chosen, inter)
            # Prune: not enough candidates left to complete the set.
            for idx in range(start, len(candidates) - (shape.LT - len(chosen)) + 1):
                self._tick()
                leaf = candidates[idx]
                ni = inter & self._leaf_mask(leaf)
                if ni.bit_count() < shape.nL:
                    continue
                chosen.append(leaf)
                result = backtrack(idx + 1, ni)
                if result is not None:
                    return result
                chosen.pop()
            return None

        full_mask = (1 << tree.l2_per_pod) - 1
        result = backtrack(0, full_mask)
        if result is None:
            return None
        s_mask, rem_leaf, sr_mask = result
        return list(chosen), s_mask, rem_leaf, sr_mask

    def _finish_two_level(
        self, pod: int, shape: TwoLevelShape, chosen: Sequence[int], inter: int
    ) -> Optional[Tuple[int, Optional[int], int]]:
        """Complete a two-level solution: pick S and the remainder leaf."""
        if shape.nrL == 0:
            return lowest_bits(inter, shape.nL), None, 0
        taken = set(chosen)
        # Best fit: prefer the eligible leaf with the fewest free nodes,
        # preserving emptier leaves for future jobs.  Walking the bucket
        # order (ascending free count, then leaf id) and taking the first
        # eligible leaf picks exactly the leaf the old min-scan chose:
        # fewest free nodes, ties broken toward the lowest leaf id.
        rem_leaf: Optional[int] = None
        avail = 0
        for leaf in self._pod_candidates(pod, shape.nrL):
            if leaf in taken:
                continue
            a = self._leaf_mask(leaf) & inter
            if a.bit_count() < shape.nrL:
                continue
            rem_leaf, avail = leaf, a
            break
        if rem_leaf is None:
            return None
        sr_mask = lowest_bits(avail, shape.nrL)
        # S contains Sr plus enough other common-free L2 indices.
        s_mask = sr_mask
        rest = inter & ~sr_mask
        s_mask |= lowest_bits(rest, shape.nL - shape.nrL) if shape.nL > shape.nrL else 0
        return s_mask, rem_leaf, sr_mask

    # ------------------------------------------------------------------
    # find_L3: cross-pod search
    # ------------------------------------------------------------------
    def _find_three_level(
        self, shape: ThreeLevelShape
    ) -> Optional[
        Tuple[List[int], Optional[int], Optional[int], int, List[int], List[int]]
    ]:
        """Find ``shape`` across pods.

        Returns ``(full_pods, remainder_pod, remainder_leaf, Sr_mask,
        S_star, S_star_r)`` where ``S_star[i]`` is the spine bitmask
        ``S*_i`` shared by all full pods and ``S_star_r[i] ⊆ S_star[i]``
        is the remainder pod's subset (condition 6); or ``None``.
        """
        tree = self.tree
        state = self.state
        if shape.nL != tree.m1:
            raise ValueError("Jigsaw three-level shapes must use full leaves")

        # Full leaves are placed with *all* their uplinks claimed, so a
        # pod only qualifies through its usable full leaves — fully free
        # nodes AND fully free uplinks.  Counting merely fully-free
        # leaves here let the search pick a leaf whose uplink was held
        # by a fault, and the subsequent claim blew up mid-allocation.
        prefiltered = state.feasible_pods(0, min_full_leaves=shape.LT)
        self.stats.pods_pruned += tree.num_pods - len(prefiltered)
        candidates = [
            p for p in prefiltered if state.usable_full_leaves(p) >= shape.LT
        ]
        if len(candidates) < shape.T:
            return None

        n_i = tree.l2_per_pod
        chosen: List[int] = []

        def addable(pod: int, inter: List[int]) -> Optional[List[int]]:
            ni = [inter[i] & self._spine_mask(pod, i) for i in range(n_i)]
            for m in ni:
                if m.bit_count() < shape.LT:
                    return None
            return ni

        def backtrack(start: int, inter: List[int]):
            if len(chosen) == shape.T:
                return self._finish_three_level(shape, chosen, inter)
            for idx in range(start, len(candidates) - (shape.T - len(chosen)) + 1):
                self._tick()
                pod = candidates[idx]
                ni = addable(pod, inter)
                if ni is None:
                    continue
                chosen.append(pod)
                result = backtrack(idx + 1, ni)
                if result is not None:
                    return result
                chosen.pop()
            return None

        full = (1 << tree.spines_per_group) - 1
        result = backtrack(0, [full] * n_i)
        if result is None:
            return None
        rem_pod, rem_leaf, sr_mask, s_star, s_star_r = result
        return list(chosen), rem_pod, rem_leaf, sr_mask, s_star, s_star_r

    def _finish_three_level(
        self, shape: ThreeLevelShape, chosen: Sequence[int], inter: List[int]
    ) -> Optional[
        Tuple[Optional[int], Optional[int], int, List[int], List[int]]
    ]:
        """Find the remainder pod/leaf and fix the spine sets ``S*_i``."""
        tree = self.tree
        n_i = tree.l2_per_pod
        if not shape.has_remainder_pod:
            s_star = [lowest_bits(inter[i], shape.LT) for i in range(n_i)]
            return None, None, 0, s_star, [0] * n_i

        taken = set(chosen)
        # Every condition is *necessary* for _fit_remainder_pod to
        # succeed and its rejections are tick-free, so prefiltering the
        # remainder-pod scan is decision-invariant: LrT fully free
        # leaves (checked first thing in _fit_remainder_pod), and — when
        # there is a remainder leaf — some leaf with >= nrL free nodes
        # plus the implied node total.
        rps = self.state.feasible_pods(
            shape.LrT * tree.m1 + shape.nrL,
            shape.nrL,
            1 if shape.nrL else 0,
            min_full_leaves=shape.LrT,
        )
        self.stats.pods_pruned += tree.num_pods - len(rps)
        for rp in rps:
            if rp in taken:
                continue
            picked = self._fit_remainder_pod(shape, rp, inter)
            if picked is None:
                continue
            rem_leaf, sr_mask, s_star, s_star_r = picked
            return rp, rem_leaf, sr_mask, s_star, s_star_r
        return None

    def _fit_remainder_pod(
        self, shape: ThreeLevelShape, rp: int, inter: List[int]
    ) -> Optional[Tuple[Optional[int], int, List[int], List[int]]]:
        """Check whether pod ``rp`` can be the remainder subtree."""
        tree = self.tree
        state = self.state
        n_i = tree.l2_per_pod
        if state.usable_full_leaves(rp) < shape.LrT:
            return None

        # Spine availability seen from the remainder pod, restricted to
        # the running common sets: the remainder subtree must use subsets
        # S*r_i of the full pods' spine sets S*_i (condition 6).
        avail = [inter[i] & self._spine_mask(rp, i) for i in range(n_i)]

        rem_leaf: Optional[int] = None
        sr_mask = 0
        if shape.nrL:
            # eligible_i: L2 indices where a remainder-leaf connection
            # (one extra down-link, hence one extra up-link) still fits.
            eligible = 0
            for i in range(n_i):
                if avail[i].bit_count() >= shape.LrT + 1:
                    eligible |= 1 << i
            picked = self._pick_remainder_leaf(shape, rp, eligible)
            if picked is None:
                return None
            rem_leaf, sr_mask = picked
        if shape.LrT:
            for i in range(n_i):
                need = shape.LrT + (1 if sr_mask & (1 << i) else 0)
                if avail[i].bit_count() < need:
                    return None

        s_star: List[int] = []
        s_star_r: List[int] = []
        for i in range(n_i):
            need_r = shape.LrT + (1 if sr_mask & (1 << i) else 0)
            sr_i = lowest_bits(avail[i], need_r) if need_r else 0
            rest = inter[i] & ~sr_i
            s_i = sr_i | (
                lowest_bits(rest, shape.LT - need_r) if shape.LT > need_r else 0
            )
            s_star.append(s_i)
            s_star_r.append(sr_i)
        return rem_leaf, sr_mask, s_star, s_star_r

    def _pick_remainder_leaf(
        self, shape: ThreeLevelShape, rp: int, eligible: int
    ) -> Optional[Tuple[int, int]]:
        """Best-fit remainder leaf in pod ``rp`` whose free uplinks allow
        ``nrL`` connections at spine-eligible L2 indices."""
        tree = self.tree
        base = tree.first_leaf_of_pod(rp)
        # The LrT full leaves are picked later from the *usable* pool
        # (fully-free nodes and uplinks); reserve them by preferring a
        # remainder leaf outside that pool and requiring enough usable
        # leaves to remain.  A fully-free leaf with a claimed uplink is
        # fair game — it can never serve as a full leaf anyway.  First
        # eligible leaf in best-fit order == the old min-scan's pick.
        usable = self.state.usable_full_leaf_mask(rp)
        usable_count = usable.bit_count()
        for leaf in self._pod_candidates(rp, shape.nrL):
            if (usable >> (leaf - base)) & 1 and usable_count <= shape.LrT:
                continue  # would consume a full leaf the shape still needs
            ok = self._leaf_mask(leaf) & eligible
            if ok.bit_count() < shape.nrL:
                continue
            return leaf, lowest_bits(ok, shape.nrL)
        return None

    # ------------------------------------------------------------------
    # Allocation assembly
    # ------------------------------------------------------------------
    def _build_two_level(
        self,
        job_id: int,
        size: int,
        shape: TwoLevelShape,
        full_leaves: Sequence[int],
        s_mask: int,
        rem_leaf: Optional[int],
        sr_mask: int,
    ) -> Allocation:
        state = self.state
        nodes: List[int] = []
        leaf_links: List[LinkId] = []
        s_indices = indices_of(s_mask)
        for leaf in full_leaves:
            nodes.extend(state.free_node_ids(leaf, shape.nL))
            if not shape.single_leaf:
                leaf_links.extend(LinkId(leaf, i) for i in s_indices)
        if rem_leaf is not None:
            nodes.extend(state.free_node_ids(rem_leaf, shape.nrL))
            leaf_links.extend(LinkId(rem_leaf, i) for i in indices_of(sr_mask))
        return Allocation(
            job_id=job_id,
            size=size,
            nodes=tuple(nodes),
            leaf_links=tuple(leaf_links),
            spine_links=(),
            shape=shape,
        )

    def _build_three_level(
        self,
        job_id: int,
        size: int,
        shape: ThreeLevelShape,
        full_pods: Sequence[int],
        rem_pod: Optional[int],
        rem_leaf: Optional[int],
        sr_mask: int,
        s_star: Sequence[int],
        s_star_r: Sequence[int],
    ) -> Allocation:
        tree = self.tree
        state = self.state
        n_i = tree.l2_per_pod
        all_up = tuple(range(n_i))
        nodes: List[int] = []
        leaf_links: List[LinkId] = []
        spine_links: List[SpineLinkId] = []

        for pod in full_pods:
            leaves = self._pick_full_free_leaves(pod, shape.LT, exclude=None)
            for leaf in leaves:
                nodes.extend(state.free_node_ids(leaf, tree.m1))
                leaf_links.extend(LinkId(leaf, i) for i in all_up)
            for i in range(n_i):
                spine_links.extend(
                    SpineLinkId(pod, i, j) for j in indices_of(s_star[i])
                )

        if rem_pod is not None:
            leaves = self._pick_full_free_leaves(rem_pod, shape.LrT, exclude=rem_leaf)
            for leaf in leaves:
                nodes.extend(state.free_node_ids(leaf, tree.m1))
                leaf_links.extend(LinkId(leaf, i) for i in all_up)
            if rem_leaf is not None:
                nodes.extend(state.free_node_ids(rem_leaf, shape.nrL))
                leaf_links.extend(
                    LinkId(rem_leaf, i) for i in indices_of(sr_mask)
                )
            for i in range(n_i):
                spine_links.extend(
                    SpineLinkId(rem_pod, i, j) for j in indices_of(s_star_r[i])
                )

        return Allocation(
            job_id=job_id,
            size=size,
            nodes=tuple(nodes),
            leaf_links=tuple(leaf_links),
            spine_links=tuple(spine_links),
            shape=shape,
        )

    def _pick_full_free_leaves(
        self, pod: int, count: int, exclude: Optional[int]
    ) -> List[int]:
        """Lowest-index usable full leaves of ``pod`` (skipping the
        remainder leaf if it happens to be in the usable pool)."""
        if count == 0:
            return []
        base = self.tree.first_leaf_of_pod(pod)
        out: List[int] = []
        mask = self.state.usable_full_leaf_mask(pod)
        while mask:
            low = mask & -mask
            mask ^= low
            leaf = base + low.bit_length() - 1
            if leaf == exclude:
                continue
            out.append(leaf)
            if len(out) == count:
                return out
        raise RuntimeError(
            f"pod {pod} lost usable full leaves between search and assembly"
        )
