"""Topology-Aware (TA) scheduling (section 5.2.2), reconstructed from the
paper's description of Jain et al. [19].

TA never allocates links explicitly.  Instead it follows node-placement
rules that rule out *every* placement in which two jobs could conceivably
contend for a link under an arbitrary routing:

* a job that fits within a leaf (**T1**, ``size <= m1``) must be placed
  on a single leaf;
* a job that fits within a subtree (**T2**, ``size <= m1*m2``) must be
  placed within a single pod;
* only larger jobs (**T3**) may span the machine.

Because links are only *implicitly* reserved, reservations are coarse: a
leaf carrying any node of a multi-leaf job could route that job's traffic
over **all** of its uplinks, so the whole leaf's uplink set belongs to
that job (Figure 2, center — internal link fragmentation) and no other
multi-leaf job may place nodes there.  Likewise a pod carrying part of a
machine-spanning job could see that job's traffic on all of its
L2-to-spine links, so at most one T3 job may touch a pod.  T1 jobs use no
uplinks at all (their traffic turns around inside the leaf crossbar), so
they may share leaves with anything.

The paper attributes to TA exactly two failure modes, both reproduced
here: internal fragmentation of *links* (never of nodes — TA assigns
exactly ``size`` nodes) and external fragmentation of *nodes* from the
single-leaf / single-pod containment rules (Figure 2, right: a three-node
job waits even though three nodes are free, because no single leaf has
three).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.allocator import Allocation, Allocator
from repro.topology.fattree import XGFT


class TopologyAwareAllocator(Allocator):
    """Node-rule-based isolating allocator with implicit link reservation.

    Parameters
    ----------
    tree:
        Topology to allocate on.
    t1_shares_multi_leaf:
        Whether single-leaf (T1) jobs may be placed on leaves whose
        uplinks are implicitly reserved by a multi-leaf job.  ``False``
        (default) is the strict reading — TA reserves at whole-leaf
        granularity, so a reserved leaf takes no other job's nodes;
        ``True`` is the permissive reading (T1 traffic never leaves the
        leaf crossbar, so no contention is conceivable).  The difference
        is an ablation knob.
    """

    name = "ta"
    isolating = True

    def __init__(self, tree: XGFT, t1_shares_multi_leaf: bool = False):
        super().__init__(tree)
        self.t1_shares_multi_leaf = t1_shares_multi_leaf
        #: job id of the multi-leaf job whose nodes sit on each leaf, or -1
        #: (numpy so the T1/T2/T3 scans are vectorized comparisons)
        self._multi_owner = np.full(tree.num_leaves, -1, dtype=np.int64)
        #: job id of the T3 job touching each pod, or -1
        self._t3_owner = np.full(tree.num_pods, -1, dtype=np.int64)
        #: per-job bookkeeping for release: (class, leaves, pods)
        self._job_meta: Dict[int, Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, size: int) -> str:
        """Job class per the containment rules: ``"t1"``/``"t2"``/``"t3"``."""
        if size <= self.tree.m1:
            return "t1"
        if size <= self.tree.nodes_per_pod:
            return "t2"
        return "t3"

    def _trace_attrs(self, size):
        return {"tier": self.classify(size)}

    def cut_class(self, eff):
        """TA feasibility is monotone only *within* a containment tier.

        Across tiers it is not: a pod can host a T2 job while every
        individual leaf is too fragmented for a smaller T1 job.  The
        feasibility cache's floor therefore lives per tier.
        """
        return self.classify(eff)

    def batch_screen(self, effs):
        """Exact containment-rule feasibility, one comparison per tier.

        * T1 is feasible iff some usable leaf has ``>= size`` free
          nodes (``usable`` honours ``t1_shares_multi_leaf``);
        * T2 iff some pod's usable leaves total ``>= size``;
        * T3 iff the usable leaves of T3-eligible pods total ``>= size``.

        These mirror :meth:`_search_t1`/``_t2``/``_t3`` exactly — the
        search succeeds iff the screen passes — so a ``True`` here is a
        proof of (durable) infeasibility, and TA's failed searches
        vanish entirely from the scheduling pass.  The three limits are
        whole-array sums over ``free_per_leaf``; each candidate is then
        one comparison.
        """
        tree = self.tree
        free = self.state.free_per_leaf
        usable = np.where(self._multi_owner == -1, free, 0)
        t1_free = free if self.t1_shares_multi_leaf else usable
        t1_max = int(t1_free.max()) if t1_free.size else 0
        totals = usable.reshape(tree.num_pods, tree.m2).sum(axis=1)
        t2_max = int(totals.max()) if totals.size else 0
        t3_total = int(np.where(self._t3_owner == -1, totals, 0).sum())
        m1, npod = tree.m1, tree.nodes_per_pod
        return [
            eff > (
                t1_max if eff <= m1 else t2_max if eff <= npod else t3_total
            )
            for eff in effs
        ]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _search(
        self, job_id: int, size: int, bw_need: Optional[float]
    ) -> Optional[Allocation]:
        cls = self.classify(size)
        if cls == "t1":
            return self._search_t1(job_id, size)
        if cls == "t2":
            return self._search_t2(job_id, size)
        return self._search_t3(job_id, size)

    def _search_t1(self, job_id: int, size: int) -> Optional[Allocation]:
        """Best-fit single leaf with ``size`` free nodes."""
        state = self.state
        tree = self.tree
        free = state.free_per_leaf
        eligible = free >= size
        if not self.t1_shares_multi_leaf:
            eligible &= self._multi_owner == -1
        # argmin over (free where eligible else m1+1) returns the *first*
        # leaf achieving the minimum: fewest free nodes, lowest leaf id.
        scored = np.where(eligible, free, tree.m1 + 1)
        best = int(np.argmin(scored))
        if scored[best] > tree.m1:
            return None
        nodes = state.free_node_ids(best, size)
        return Allocation(job_id=job_id, size=size, nodes=tuple(nodes))

    def _usable_free(self) -> np.ndarray:
        """Per-leaf free counts with multi-leaf-reserved leaves zeroed."""
        return np.where(
            self._multi_owner == -1, self.state.free_per_leaf, 0
        )

    def _search_t2(self, job_id: int, size: int) -> Optional[Allocation]:
        """Single pod, on leaves with no other multi-leaf job's nodes."""
        tree = self.tree
        usable_free = self._usable_free()
        totals = usable_free.reshape(tree.num_pods, tree.m2).sum(axis=1)
        ok = np.flatnonzero(totals >= size)
        self.stats.pods_pruned += tree.num_pods - int(ok.size)
        if ok.size == 0:
            return None
        pod = int(ok[0])  # first feasible pod
        lo = pod * tree.m2
        seg = usable_free[lo : lo + tree.m2]
        idx = np.flatnonzero(seg > 0)
        return self._take_from_leaves(job_id, size, seg[idx], idx + lo)

    def _search_t3(self, job_id: int, size: int) -> Optional[Allocation]:
        """Across pods that no other T3 job touches, on unreserved leaves."""
        tree = self.tree
        usable_free = self._usable_free()
        eligible = self._t3_owner == -1
        self.stats.pods_pruned += int((~eligible).sum())
        per_pod = usable_free.reshape(tree.num_pods, tree.m2).sum(axis=1)
        cum = np.cumsum(np.where(eligible, per_pod, 0))
        if int(cum[-1]) < size:
            return None
        # Pods in index order up to the first one at which the running
        # usable total reaches the job.
        cut = int(np.searchsorted(cum, size))
        limit = (cut + 1) * tree.m2
        mask = np.repeat(eligible[: cut + 1], tree.m2)
        idx = np.flatnonzero((usable_free[:limit] > 0) & mask)
        return self._take_from_leaves(job_id, size, usable_free[idx], idx)

    def _take_from_leaves(
        self,
        job_id: int,
        size: int,
        free_arr: np.ndarray,
        leaf_arr: np.ndarray,
    ) -> Allocation:
        """Take ``size`` nodes, emptiest leaves first (fewest leaves
        touched, so the fewest uplink sets are implicitly reserved).

        ``np.lexsort`` keys are (secondary, primary) = (leaf, -free), so
        the order is emptiest-first with leaf-id tie-break; the take
        stops at the prefix the running total proves sufficient.
        """
        order = np.lexsort((leaf_arr, -free_arr))
        f = free_arr[order]
        leaves = leaf_arr[order]
        cut = int(np.searchsorted(np.cumsum(f), size))
        nodes: List[int] = []
        remaining = size
        for i in range(cut + 1):
            take = min(int(f[i]), remaining)
            nodes.extend(self.state.free_node_ids(int(leaves[i]), take))
            remaining -= take
        assert remaining == 0, "capacity was checked before taking nodes"
        return Allocation(job_id=job_id, size=size, nodes=tuple(nodes))

    # ------------------------------------------------------------------
    # Claim/release: maintain the implicit-reservation bookkeeping
    # ------------------------------------------------------------------
    def _claim(self, alloc: Allocation, bw_need: Optional[float]) -> None:
        super()._claim(alloc, bw_need)
        cls = self.classify(alloc.size)
        tree = self.tree
        leaves = tuple(sorted({n // tree.m1 for n in alloc.nodes}))
        pods = tuple(sorted({leaf // tree.m2 for leaf in leaves}))
        if cls != "t1":
            for leaf in leaves:
                assert self._multi_owner[leaf] == -1
                self._multi_owner[leaf] = alloc.job_id
        if cls == "t3":
            for pod in pods:
                assert self._t3_owner[pod] == -1
                self._t3_owner[pod] = alloc.job_id
        self._job_meta[alloc.job_id] = (cls, leaves, pods)

    def _release(self, job_id: int) -> None:
        super()._release(job_id)
        self._drop_meta(job_id)

    def _release_many(self, job_ids) -> None:
        # One grouped occupancy-index update; the owner-map teardown is
        # per job either way.
        self.state.release_many(job_ids)
        for job_id in job_ids:
            self._drop_meta(job_id)

    def _drop_meta(self, job_id: int) -> None:
        cls, leaves, pods = self._job_meta.pop(job_id)
        if cls != "t1":
            for leaf in leaves:
                if self._multi_owner[leaf] == job_id:
                    self._multi_owner[leaf] = -1
        if cls == "t3":
            for pod in pods:
                if self._t3_owner[pod] == job_id:
                    self._t3_owner[pod] = -1
