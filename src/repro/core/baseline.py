"""Traditional unconstrained scheduler (the paper's Baseline).

Baseline allocates dedicated *nodes* but takes no network resources into
account: any set of free nodes will do, links are shared by whoever is
routed over them, and jobs therefore suffer whatever inter-job network
interference the workload produces (section 1).  Its placement always
succeeds when enough nodes are free, which is why its utilization is the
97-100 % ceiling every isolating scheme is measured against.

Placement policy: best-fit by leaf — partially-used leaves are filled
before fully-free leaves are broken, which keeps contiguous capacity
available and matches how node-count-only schedulers behave in practice.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.allocator import Allocation, Allocator


class BaselineAllocator(Allocator):
    """Unconstrained node-only allocator; never isolates network links."""

    name = "baseline"
    isolating = False
    low_interference = False

    def _trace_attrs(self, size):
        return {"free_nodes": self.state.free_nodes_total}

    def batch_screen(self, effs):
        """Exact: Baseline places a job iff enough nodes are free."""
        free = self.state.free_nodes_total
        return [eff > free for eff in effs]

    def _search(
        self, job_id: int, size: int, bw_need: Optional[float]
    ) -> Optional[Allocation]:
        state = self.state
        if size > state.free_nodes_total:
            return None
        # Fill the fullest (least-free) non-empty leaves first.
        nodes: List[int] = []
        remaining = size
        for f, leaf in state.best_fit_leaves(1):
            take = min(f, remaining)
            nodes.extend(state.free_node_ids(leaf, take))
            remaining -= take
            if remaining == 0:
                return Allocation(job_id=job_id, size=size, nodes=tuple(nodes))
        return None  # unreachable given the free_nodes_total guard
