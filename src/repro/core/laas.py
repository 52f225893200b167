"""Links-as-a-Service (LaaS) allocator (section 5.2.1).

LaaS predates Jigsaw's three-level conditions.  For jobs that fit in a
single subtree it knows the same two-level placement rules Jigsaw uses
(the paper's footnote 2: two of Jigsaw's conditions were first
identified by LaaS, and "its algorithm is similar up to here"), so
single-subtree allocations are identical to Jigsaw's — partial leaves,
remainder leaf and all.

For jobs that must span subtrees, LaaS sidesteps the three-level
placement problem by *reducing it to two levels*: entire leaves take the
place of nodes, L2 switches of leaves, spines of L2 switches.  The unit
of allocation becomes the whole leaf, so the job's size is **rounded up
to a whole number of leaves** — and the unrequested nodes on its last
leaf are allocated-but-idle for the job's whole lifetime.

That rounding is the *internal node fragmentation* of Figure 2 (left),
and it is why LaaS utilization saturates below Jigsaw's (section 6.1):
under load, mid-size jobs routinely fail to fit into any fragmented
subtree, spill to a three-level placement, and drag padding with them —
the paper measures 3-7 % of the system lost this way.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.jigsaw import JigsawAllocator
from repro.core.shapes import ThreeLevelShape


class LaaSAllocator(JigsawAllocator):
    """Jigsaw's two-level search plus whole-leaf three-level reduction."""

    name = "laas"
    isolating = True

    def _rounded(self, size: int) -> int:
        """Size rounded up to a whole number of leaves."""
        m1 = self.tree.m1
        return ((size + m1 - 1) // m1) * m1

    def effective_size(self, size: int) -> int:
        """Nodes consumed, for backfilling's shadow estimate.

        Jobs that cannot possibly fit in one subtree will be rounded;
        smaller jobs may or may not be, depending on fragmentation at
        allocation time, so the optimistic (unrounded) size is used.
        """
        if size > self.tree.nodes_per_pod:
            return self._rounded(size)
        return size

    def _trace_attrs(self, size):
        attrs = super()._trace_attrs(size)
        # the whole-leaf padding a three-level spill would drag along
        attrs["rounded_size"] = self._rounded(size)
        return attrs

    def batch_screen(self, effs):
        """LaaS screen: the three-level reduction uses *whole leaves*.

        ``_rounded`` is idempotent on effective sizes (an already-rounded
        size rounds to itself), so the leaf count here equals the
        search's ``_rounded(size) / m1``.  A three-level spill needs
        that many fully-free leaves; a two-level placement needs a pod
        with ``>= eff`` free nodes.  Both are necessary conditions,
        budget-independent and durable under claims.
        """
        state = self.state
        m1 = self.tree.m1
        pod_max = max(state.pod_free)
        full_total = sum(state.full_free_leaves)
        return [
            eff > pod_max and (eff + m1 - 1) // m1 > full_total
            for eff in effs
        ]

    # The two-level search is inherited from Jigsaw unchanged.

    def _three_level_shape_iter(self, size: int) -> Iterator[ThreeLevelShape]:
        # Reduction to two levels: whole leaves only.  The rounded size
        # is a multiple of m1, so every shape has nrL = 0 automatically.
        return super()._three_level_shape_iter(self._rounded(size))

    def _find_three_level(self, shape: ThreeLevelShape):
        if shape.nrL != 0:
            raise AssertionError("LaaS three-level shapes use whole leaves")
        return super()._find_three_level(shape)
