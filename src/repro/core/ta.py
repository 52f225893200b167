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
L2-to-spine links, so at most one T3 job may touch a pod.  TA reserves at
whole-leaf granularity: once a multi-leaf job holds nodes on a leaf, no
other job is placed there, T1 jobs included, even though T1 traffic never
leaves the leaf crossbar.  T1 jobs share leaves with each other, and a
multi-leaf job may join a leaf that only T1 jobs use.

The paper attributes to TA exactly two failure modes, both reproduced
here: internal fragmentation of *links* (never of nodes — TA assigns
exactly ``size`` nodes) and external fragmentation of *nodes* from the
single-leaf / single-pod containment rules (Figure 2, right: a three-node
job waits even though three nodes are free, because no single leaf has
three).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.allocator import Allocation, Allocator
from repro.topology.fattree import XGFT


class TopologyAwareAllocator(Allocator):
    """Node-rule-based isolating allocator with implicit link reservation.

    Parameters
    ----------
    tree:
        Topology to allocate on.
    """

    name = "ta"
    isolating = True

    def __init__(self, tree: XGFT):
        super().__init__(tree)
        #: job id of the multi-leaf job whose nodes sit on each leaf, or -1
        self._multi_owner: List[int] = [-1] * tree.num_leaves
        #: job id of the T3 job touching each pod, or -1
        self._t3_owner: List[int] = [-1] * tree.num_pods
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

        * T1 is feasible iff some unreserved leaf has ``>= size`` free
          nodes;
        * T2 iff some pod's unreserved leaves total ``>= size``;
        * T3 iff the unreserved leaves of T3-eligible pods total
          ``>= size``.

        These mirror :meth:`_search_t1`/``_t2``/``_t3`` exactly — the
        search succeeds iff the screen passes — so a ``True`` here is a
        proof of (durable) infeasibility, and TA's failed searches
        vanish entirely from the scheduling pass.  The three limits
        come from one walk over the unreserved per-leaf free counts;
        each candidate is then one comparison.
        """
        tree = self.tree
        usable = self._usable_free()
        totals = self._pod_totals(usable)
        t1_max = max(usable, default=0)
        t2_max = max(totals, default=0)
        t3_total = sum(
            total
            for total, owner in zip(totals, self._t3_owner)
            if owner == -1
        )
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
        """Best-fit unreserved leaf with ``size`` free nodes: fewest free
        nodes, then lowest leaf id."""
        state = self.state
        owner = self._multi_owner
        for _f, leaf in state.best_fit_leaves(size):
            if owner[leaf] == -1:
                nodes = state.free_node_ids(leaf, size)
                return Allocation(job_id=job_id, size=size, nodes=nodes)
        return None

    def _usable_free(self) -> List[int]:
        """Per-leaf free counts with multi-leaf-reserved leaves zeroed."""
        return [
            f if owner == -1 else 0
            for f, owner in zip(self.state.free_per_leaf, self._multi_owner)
        ]

    def _pod_totals(self, usable: List[int]) -> List[int]:
        """Per-pod sums of :meth:`_usable_free`."""
        m2 = self.tree.m2
        return [sum(usable[lo : lo + m2]) for lo in range(0, len(usable), m2)]

    def _search_t2(self, job_id: int, size: int) -> Optional[Allocation]:
        """Single pod, on leaves with no other multi-leaf job's nodes."""
        tree = self.tree
        usable = self._usable_free()
        ok = [pod for pod, t in enumerate(self._pod_totals(usable)) if t >= size]
        if not ok:
            return None
        lo = ok[0] * tree.m2  # first feasible pod
        return self._take_from_leaves(
            job_id, size, usable, range(lo, lo + tree.m2)
        )

    def _search_t3(self, job_id: int, size: int) -> Optional[Allocation]:
        """Across pods that no other T3 job touches, on unreserved leaves:
        pods in index order up to the first one at which the running
        usable total reaches the job."""
        tree = self.tree
        m2 = tree.m2
        t3_owner = self._t3_owner
        usable = self._usable_free()
        leaves: List[int] = []
        total = 0
        for pod, pod_total in enumerate(self._pod_totals(usable)):
            if t3_owner[pod] == -1:
                leaves.extend(range(pod * m2, (pod + 1) * m2))
                total += pod_total
                if total >= size:
                    return self._take_from_leaves(job_id, size, usable, leaves)
        return None

    def _take_from_leaves(
        self, job_id: int, size: int, usable: List[int], leaves: Iterable[int]
    ) -> Allocation:
        """Take ``size`` nodes from ``leaves``, emptiest first with
        leaf-id tie-break (fewest leaves touched, so the fewest uplink
        sets are implicitly reserved), stopping once the job is
        covered."""
        order = sorted((-usable[leaf], leaf) for leaf in leaves if usable[leaf])
        nodes: List[int] = []
        remaining = size
        for neg_free, leaf in order:
            take = min(-neg_free, remaining)
            nodes.extend(self.state.free_node_ids(leaf, take))
            remaining -= take
            if remaining == 0:
                break
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
