"""Occupancy state of a fat-tree cluster: nodes and links.

:class:`ClusterState` tracks, for one :class:`~repro.topology.fattree.XGFT`
topology, which compute nodes and which network cables are currently owned
by which job.  It is the single mutable substrate that every allocator in
:mod:`repro.core` queries and updates, and it maintains the paper's
isolation invariant (section 3.2.1): every node and every link is owned by
at most one job.

Link-availability sets are represented as **integer bitmasks**:

* ``leaf_up_mask[leaf]`` has bit ``i`` set iff the cable between ``leaf``
  and the ``i``-th L2 switch of its pod is free;
* ``spine_free_mask[pod][i]`` has bit ``j`` set iff the cable between the
  ``i``-th L2 switch of ``pod`` and spine ``j`` of group ``i`` is free.

Because the paper's largest cluster uses radix-28 switches, these masks
never exceed 14 bits, so the recursive-backtracking searches of
Algorithm 1 reduce to AND/popcount operations on small ints.

:class:`LinkCapacityState` is the fractional-bandwidth variant used by the
LC+S bounding scheme (section 5.2.3), where links are *shared* subject to
a capacity cap rather than exclusively owned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.fattree import LinkId, SpineLinkId, XGFT


class AllocationError(RuntimeError):
    """Raised when a claim or release violates the isolation invariant."""


@dataclass
class ClaimRecord:
    """Everything :class:`ClusterState` needs to undo one job's claim."""

    job_id: int
    nodes: Tuple[int, ...]
    leaf_links: Tuple[LinkId, ...]
    spine_links: Tuple[SpineLinkId, ...]


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask with the given bit indices set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> Tuple[int, ...]:
    """Sorted tuple of bit indices set in ``mask``.

    Iterates set bits only (``mask & -mask`` isolates the lowest one),
    so sparse masks cost O(popcount), not O(highest bit) — this runs in
    the allocators' backtracking inner loops.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def lowest_bits(mask: int, k: int) -> int:
    """Mask of the ``k`` lowest set bits of ``mask``.

    Raises :class:`ValueError` if ``mask`` has fewer than ``k`` set bits.
    """
    if k <= 0:
        return 0
    have = mask.bit_count()
    if have < k:
        raise ValueError("mask has fewer set bits than requested")
    if have == k:
        return mask
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def _check_link_ids(
    tree: XGFT,
    leaf_links: Sequence[LinkId],
    spine_links: Sequence[SpineLinkId],
) -> None:
    """Raise :class:`AllocationError` naming the first link with an id
    component outside ``tree``.

    Claims index their masks and bandwidth rows by these components, so
    a negative one would silently *wrap* to another cable and a
    past-the-end one would fail with a raw ``IndexError`` or a
    misleading "not free".
    """
    num_leaves, num_pods = tree.num_leaves, tree.num_pods
    l2, spines = tree.l2_per_pod, tree.spines_per_group
    for leaf, i in leaf_links:
        if not (0 <= leaf < num_leaves and 0 <= i < l2):
            raise AllocationError(
                f"leaf link ({leaf}, {i}) is outside the cluster: leaf in "
                f"[0, {num_leaves}), L2 index in [0, {l2})"
            )
    for pod, i, j in spine_links:
        if not (0 <= pod < num_pods and 0 <= i < l2 and 0 <= j < spines):
            raise AllocationError(
                f"spine link ({pod}, {i}, {j}) is outside the cluster: pod "
                f"in [0, {num_pods}), L2 index in [0, {l2}), spine index "
                f"in [0, {spines})"
            )


class ClusterState:
    """Mutable node/link ownership state for one fat-tree.

    Parameters
    ----------
    tree:
        The topology.  Node, leaf, pod and link numbering follow
        :mod:`repro.topology.fattree`.

    Notes
    -----
    All mutation goes through :meth:`claim`, :meth:`release` and
    :meth:`release_many`, which validate the isolation invariant and
    keep the derived per-leaf / per-pod summaries consistent.
    Allocators only *read* the summaries.

    Beyond the plain per-leaf/per-pod counters, the state maintains an
    **incremental occupancy index** so allocator searches never recompute
    feasibility summaries from scratch:

    * ``_leaf_ge[k][pod]`` — leaves of ``pod`` with at least ``k`` free
      nodes (``k`` in ``0..m1``), the monotone counter behind the pod
      prefilter (:meth:`feasible_pods`); row ``m1`` is
      ``full_free_leaves`` itself, the same list object;
    * ``_leaf_buckets[pod][f]`` — bitmask of leaf *offsets* (bit ``j`` =
      ``j``-th leaf of the pod) holding exactly ``f`` free nodes; the
      ``f = m1`` bucket is the fully-free-leaf bitmask, and walking the
      buckets upward yields the allocators' best-fit candidate order
      (:meth:`leaf_candidates`) without a per-call sort, and the
      two-level scorer reads a pod's whole row (:meth:`leaf_bucket_row`).

    The per-pod counters, the per-node owners and the per-leaf uplink
    masks are plain lists of ints: every reader touches one element or
    walks at most a few dozen pods, where numpy's fixed per-call cost
    outweighs the work.  Only ``free_per_leaf`` stays a numpy array,
    because the tier screens, Baseline's best-fit sort and
    ``batch_screen`` read it whole.

    Every index is updated once per touched leaf inside each mutation
    (:meth:`_shift_leaves`) and is purely derived data: rebuilding it
    from ``node_owner`` must give the same values (:meth:`audit` checks
    exactly that).
    """

    def __init__(self, tree: XGFT):
        self.tree = tree
        m1, m2, m3 = tree.m1, tree.m2, tree.m3
        self._full_leaf_mask = (1 << tree.l2_per_pod) - 1
        self._full_spine_mask = (1 << tree.spines_per_group) - 1
        self._full_pod_leaf_mask = (1 << m2) - 1

        #: owner job id per node, -1 = free
        self.node_owner: List[int] = [-1] * tree.num_nodes
        #: free-node count per leaf (numpy: readers scan it whole)
        self.free_per_leaf = np.full(tree.num_leaves, m1, dtype=np.int32)
        # Read-only alias handed out by free_leaf_counts_in_pod: slices
        # of a non-writeable view are non-writeable themselves, so
        # allocators cannot scribble on index-owned state.
        self._free_per_leaf_ro = self.free_per_leaf.view()
        self._free_per_leaf_ro.flags.writeable = False
        #: free leaf-uplink bitmask per leaf (bit i = cable to L2 i free)
        self.leaf_up_mask = [self._full_leaf_mask] * tree.num_leaves
        #: free spine-link bitmask per (pod, L2 index)
        self.spine_free_mask = [
            [self._full_spine_mask] * tree.l2_per_pod for _ in range(m3)
        ]
        #: total free nodes per pod
        self.pod_free: List[int] = [tree.nodes_per_pod] * m3
        #: leaves with >= k free nodes, per pod: row k is the per-pod
        #: list compared against a shape's leaf demand
        self._leaf_ge: List[List[int]] = [[m2] * m3 for _ in range(m1 + 1)]
        #: number of completely-free leaves per pod: the ``_leaf_ge``
        #: row ``m1`` itself (a leaf with ``m1`` free nodes is fully
        #: free), so it needs no upkeep of its own
        self.full_free_leaves: List[int] = self._leaf_ge[m1]
        #: per-pod bitmask buckets of leaf offsets by exact free count;
        #: bucket m1 is the fully-free-leaf mask
        self._leaf_buckets: List[List[int]] = [
            [0] * m1 + [self._full_pod_leaf_mask] for _ in range(m3)
        ]
        #: total free nodes on the machine
        self.free_nodes_total = tree.num_nodes
        #: per-pod bitmask of leaf offsets with >= 1 claimed uplink
        #: (a leaf whose ``leaf_up_mask`` is not full); a fully-free
        #: leaf on this mask cannot host a full-bandwidth (all-uplinks)
        #: placement
        self._busy_leaf_mask: List[int] = [0] * m3
        self._claims: Dict[int, ClaimRecord] = {}

    # ------------------------------------------------------------------
    # Read-side helpers used by allocators
    # ------------------------------------------------------------------
    @property
    def num_jobs_resident(self) -> int:
        return len(self._claims)

    def is_idle(self) -> bool:
        return not self._claims

    def free_nodes_on_leaf(self, leaf: int) -> int:
        return int(self.free_per_leaf[leaf])

    def leaf_is_fully_free(self, leaf: int) -> bool:
        return self.free_per_leaf[leaf] == self.tree.m1

    def free_node_ids(self, leaf: int, k: int) -> Tuple[int, ...]:
        """The ``k`` lowest-numbered free nodes on ``leaf``."""
        if k == 0:
            return ()
        base = leaf * self.tree.m1
        owners = self.node_owner
        free = [n for n in range(base, base + self.tree.m1) if owners[n] == -1]
        if len(free) < k:
            raise AllocationError(
                f"leaf {leaf} has {len(free)} free nodes, requested {k}"
            )
        return tuple(free[:k])

    def free_leaf_counts_in_pod(self, pod: int) -> np.ndarray:
        """Read-only view of per-leaf free-node counts for ``pod``.

        The array is allocator-owned index state: writing through the
        returned view would silently desynchronize the incremental
        occupancy indexes, so mutation raises ``ValueError``.
        """
        lo = pod * self.tree.m2
        return self._free_per_leaf_ro[lo : lo + self.tree.m2]

    # ------------------------------------------------------------------
    # Incremental occupancy index: O(1)/O(pods) read side
    # ------------------------------------------------------------------
    def leaves_with_at_least(self, pod: int, k: int) -> int:
        """Number of leaves of ``pod`` holding at least ``k`` free nodes.

        O(1): answered from the maintained bucket counters, never by
        rescanning the leaves.  ``k`` must be in ``0..m1``.
        """
        return self._leaf_ge[k][pod]

    def fully_free_leaf_mask(self, pod: int) -> int:
        """Bitmask of completely-free leaf offsets of ``pod`` (bit ``j``
        = the ``j``-th leaf of the pod is fully free)."""
        return self._leaf_buckets[pod][self.tree.m1]

    def busy_uplink_leaf_mask(self, pod: int) -> int:
        """Bitmask of leaf offsets of ``pod`` with at least one claimed
        uplink.  Maintained incrementally from ``leaf_up_mask``."""
        return self._busy_leaf_mask[pod]

    def usable_full_leaf_mask(self, pod: int) -> int:
        """Bitmask of leaf offsets of ``pod`` that are *usable* as full
        leaves: every node free **and** every uplink cable free.

        A leaf-link fault (or any partial uplink claim) removes a leaf
        from this mask even though its nodes are all free — placements
        that claim all ``l2_per_pod`` uplinks of a full leaf must draw
        from here, not from :meth:`fully_free_leaf_mask`.
        """
        return self._leaf_buckets[pod][self.tree.m1] & ~self._busy_leaf_mask[pod]

    def usable_full_leaves(self, pod: int) -> int:
        """Count of usable full leaves of ``pod`` (see
        :meth:`usable_full_leaf_mask`)."""
        return self.usable_full_leaf_mask(pod).bit_count()

    def leaf_candidates(self, pod: int, min_free: int) -> List[int]:
        """Global leaf ids of ``pod`` with at least ``min_free`` free
        nodes, in best-fit order: ascending free count, then ascending
        leaf id — exactly the order ``sorted(..., key=(free, leaf))``
        would produce, but read off the maintained buckets instead of
        sorted per call."""
        base = pod * self.tree.m2
        out: List[int] = []
        for bucket in self._leaf_buckets[pod][min_free:]:
            while bucket:
                low = bucket & -bucket
                out.append(base + low.bit_length() - 1)
                bucket ^= low
        return out

    def leaf_candidates_by_id(self, pod: int, min_free: int) -> List[int]:
        """Global leaf ids of ``pod`` with at least ``min_free`` free
        nodes, in ascending leaf-id order — the LC family's enumeration
        order.  ORing the buckets and walking set bits costs
        O(m1 + matches) instead of scanning every leaf."""
        mask = 0
        for bucket in self._leaf_buckets[pod][min_free:]:
            mask |= bucket
        base = pod * self.tree.m2
        out: List[int] = []
        while mask:
            low = mask & -mask
            out.append(base + low.bit_length() - 1)
            mask ^= low
        return out

    def best_fit_leaf(self, pod: int, min_free: int) -> Optional[int]:
        """Lowest-id leaf of ``pod`` with the fewest (but at least
        ``min_free``) free nodes, or ``None`` — the head of
        :meth:`leaf_candidates` without building the list."""
        base = pod * self.tree.m2
        for bucket in self._leaf_buckets[pod][min_free:]:
            if bucket:
                return base + (bucket & -bucket).bit_length() - 1
        return None

    def leaf_bucket_row(self, pod: int) -> Sequence[int]:
        """The bucket row of ``pod``: entry ``f`` is the bitmask of leaf
        offsets holding exactly ``f`` free nodes (``f`` in ``0..m1``).

        The maintained row itself, handed out without a copy for the
        two-level scorer's per-pod walk: index-owned state that callers
        only read."""
        return self._leaf_buckets[pod]

    def leaf_ge_row(self, k: int) -> Sequence[int]:
        """Per-pod counts of leaves with at least ``k`` free nodes: entry
        ``pod`` is :meth:`leaves_with_at_least` ``(pod, k)``.

        The maintained row itself, handed out without a copy for the
        two-level scorer's per-pod bound: index-owned state that callers
        only read.  ``k`` must be in ``0..m1``."""
        return self._leaf_ge[k]

    def feasible_pods(
        self,
        min_free: int,
        min_leaf_free: int = 0,
        min_leaves: int = 0,
        min_full_leaves: int = 0,
    ) -> List[int]:
        """Ascending ids of the pods passing the occupancy prechecks:
        at least ``min_free`` free nodes, at least ``min_leaves`` leaves
        with ``min_leaf_free`` free nodes each, and at least
        ``min_full_leaves`` completely-free leaves.

        These are exactly the searches' tick-free rejection conditions,
        read off the maintained per-pod counters in one walk over the
        pods (a zero requirement always holds: counts are never
        negative); the counters are monotone in the requirement, so a
        pod excluded here is excluded for every stronger requirement as
        well.  ``min_leaf_free`` must be in ``0..m1``.
        """
        pod_free = self.pod_free
        leaf_ge = self._leaf_ge[min_leaf_free]
        full = self.full_free_leaves
        return [
            p
            for p in range(len(pod_free))
            if pod_free[p] >= min_free
            and leaf_ge[p] >= min_leaves
            and full[p] >= min_full_leaves
        ]

    def claim_record(self, job_id: int) -> ClaimRecord:
        return self._claims[job_id]

    def resident_jobs(self) -> Tuple[int, ...]:
        return tuple(self._claims)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def claim(
        self,
        job_id: int,
        nodes: Sequence[int],
        leaf_links: Sequence[LinkId] = (),
        spine_links: Sequence[SpineLinkId] = (),
    ) -> None:
        """Exclusively assign nodes and links to ``job_id``.

        Raises :class:`AllocationError` (leaving state untouched) if the
        job id is already resident, any node or link id lies outside the
        cluster, or any resource is not free.  Nodes may come in any
        order.
        """
        if job_id in self._claims:
            raise AllocationError(f"job {job_id} already holds an allocation")
        nodes = tuple(nodes)
        leaf_links = tuple(leaf_links)
        spine_links = tuple(spine_links)

        # Validate before mutating so failures cannot corrupt state.
        if len(set(nodes)) != len(nodes):
            raise AllocationError("duplicate nodes in claim")
        m1 = self.tree.m1
        num_nodes = self.tree.num_nodes
        node_owner = self.node_owner
        deltas: Dict[int, int] = {}
        for n in nodes:
            # Bounds first: indexing would raise a raw IndexError for
            # n >= num_nodes and silently *wrap* negative ids.
            if not 0 <= n < num_nodes:
                raise AllocationError(
                    f"node {n} is outside the cluster [0, {num_nodes})"
                )
            if node_owner[n] != -1:
                raise AllocationError(f"node {n} is not free")
            leaf = n // m1
            deltas[leaf] = deltas.get(leaf, 0) - 1
        if len(set(leaf_links)) != len(leaf_links):
            raise AllocationError("duplicate leaf links in claim")
        if len(set(spine_links)) != len(spine_links):
            raise AllocationError("duplicate spine links in claim")
        _check_link_ids(self.tree, leaf_links, spine_links)
        for leaf, i in leaf_links:
            if not self.leaf_up_mask[leaf] & (1 << i):
                raise AllocationError(f"leaf link ({leaf}, {i}) is not free")
        for pod, i, j in spine_links:
            if not self.spine_free_mask[pod][i] & (1 << j):
                raise AllocationError(f"spine link ({pod}, {i}, {j}) is not free")

        for n in nodes:
            node_owner[n] = job_id
        self._shift_leaves(deltas)
        m2 = self.tree.m2
        for leaf, i in leaf_links:
            self.leaf_up_mask[leaf] &= ~(1 << i)
            pod = leaf // m2
            self._busy_leaf_mask[pod] |= 1 << (leaf - pod * m2)
        for pod, i, j in spine_links:
            self.spine_free_mask[pod][i] &= ~(1 << j)
        self.free_nodes_total -= len(nodes)
        self._claims[job_id] = ClaimRecord(job_id, nodes, leaf_links, spine_links)

    def release(self, job_id: int) -> ClaimRecord:
        """Return all of ``job_id``'s resources to the free pool."""
        try:
            rec = self._claims.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id} holds no allocation") from None
        self._free_records((rec,))
        return rec

    def release_many(self, job_ids: Sequence[int]) -> List[ClaimRecord]:
        """Release several jobs' resources in one occupancy-index update.

        Equivalent to calling :meth:`release` once per id (any order —
        releases commute): the nodes of every record are counted per
        leaf first, so a leaf freed by several of the jobs still moves
        through the indexes once.  Validates every id before mutating
        anything, so a bad id leaves state untouched.  Returns the claim
        records in argument order.
        """
        ids = list(job_ids)
        if len(set(ids)) != len(ids):
            raise AllocationError("duplicate job ids in release_many")
        for job_id in ids:
            if job_id not in self._claims:
                raise AllocationError(
                    f"job {job_id} holds no allocation"
                )
        recs = [self._claims.pop(job_id) for job_id in ids]
        self._free_records(recs)
        return recs

    def _free_records(self, recs: Sequence[ClaimRecord]) -> None:
        """Return the nodes and links of claim records already taken off
        ``_claims`` to the free pool, with one index update per touched
        leaf across all of them."""
        m1, m2 = self.tree.m1, self.tree.m2
        node_owner = self.node_owner
        deltas: Dict[int, int] = {}
        freed = 0
        for rec in recs:
            for n in rec.nodes:
                node_owner[n] = -1
                leaf = n // m1
                deltas[leaf] = deltas.get(leaf, 0) + 1
            freed += len(rec.nodes)
            for leaf, i in rec.leaf_links:
                self.leaf_up_mask[leaf] |= 1 << i
                if self.leaf_up_mask[leaf] == self._full_leaf_mask:
                    pod = leaf // m2
                    self._busy_leaf_mask[pod] &= ~(1 << (leaf - pod * m2))
            for pod, i, j in rec.spine_links:
                self.spine_free_mask[pod][i] |= 1 << j
        self._shift_leaves(deltas)
        self.free_nodes_total += freed

    def _shift_leaves(self, deltas: Dict[int, int]) -> None:
        """Move every leaf of ``deltas`` from ``f`` to ``f + delta`` free
        nodes in one step.

        The one per-leaf index update behind :meth:`claim` (negative
        deltas) and :meth:`release` / :meth:`release_many` (positive):
        the leaf's bit moves from bucket ``f`` to bucket ``f + delta``,
        the ``|delta|`` ``_leaf_ge`` rows strictly above the lower count
        and up to the higher one change by one (row ``m1`` is
        ``full_free_leaves``), and ``pod_free`` follows — exactly the
        composition of ``|delta|`` single-node steps, so the order in
        which a mutation's nodes arrive does not matter.
        """
        m2 = self.tree.m2
        free_per_leaf = self.free_per_leaf
        pod_free = self.pod_free
        leaf_ge = self._leaf_ge
        for leaf, delta in deltas.items():
            pod = leaf // m2
            f = int(free_per_leaf[leaf])
            nf = f + delta
            free_per_leaf[leaf] = nf
            pod_free[pod] += delta
            bit = 1 << (leaf - pod * m2)
            buckets = self._leaf_buckets[pod]
            buckets[f] &= ~bit
            buckets[nf] |= bit
            if delta > 0:
                for k in range(f + 1, nf + 1):
                    leaf_ge[k][pod] += 1
            else:
                for k in range(nf + 1, f + 1):
                    leaf_ge[k][pod] -= 1

    # ------------------------------------------------------------------
    # Consistency audit (used by tests and failure injection)
    # ------------------------------------------------------------------
    def audit(self) -> None:
        """Recompute every derived summary and assert it matches.

        Raises :class:`AllocationError` on the first inconsistency; this
        is the isolation invariant made executable.
        """
        tree = self.tree
        if self.node_owner.count(-1) != self.free_nodes_total:
            raise AllocationError("free_nodes_total out of sync")
        for leaf in range(tree.num_leaves):
            base = leaf * tree.m1
            free = self.node_owner[base : base + tree.m1].count(-1)
            if free != self.free_per_leaf[leaf]:
                raise AllocationError(f"free_per_leaf[{leaf}] out of sync")
        for pod in range(tree.num_pods):
            lo = pod * tree.m2
            if int(self.free_per_leaf[lo : lo + tree.m2].sum()) != self.pod_free[pod]:
                raise AllocationError(f"pod_free[{pod}] out of sync")
            counts = self.free_per_leaf[lo : lo + tree.m2]
            for k in range(tree.m1 + 1):
                if int((counts >= k).sum()) != self._leaf_ge[k][pod]:
                    raise AllocationError(f"_leaf_ge[{k}][{pod}] out of sync")
            for f in range(tree.m1 + 1):
                want = mask_of(j for j in range(tree.m2) if counts[j] == f)
                if want != self._leaf_buckets[pod][f]:
                    raise AllocationError(
                        f"_leaf_buckets[{pod}][{f}] out of sync"
                    )
            want_busy = mask_of(
                j
                for j in range(tree.m2)
                if self.leaf_up_mask[lo + j] != self._full_leaf_mask
            )
            if want_busy != self._busy_leaf_mask[pod]:
                raise AllocationError(f"_busy_leaf_mask[{pod}] out of sync")
        owned_nodes: Dict[int, int] = {}
        owned_leaf_links: Dict[LinkId, int] = {}
        owned_spine_links: Dict[SpineLinkId, int] = {}
        for rec in self._claims.values():
            for n in rec.nodes:
                if n in owned_nodes:
                    raise AllocationError(f"node {n} owned twice")
                owned_nodes[n] = rec.job_id
                if self.node_owner[n] != rec.job_id:
                    raise AllocationError(f"node_owner[{n}] out of sync")
            for link in rec.leaf_links:
                if link in owned_leaf_links:
                    raise AllocationError(f"leaf link {link} owned twice")
                owned_leaf_links[link] = rec.job_id
                if self.leaf_up_mask[link.leaf] & (1 << link.l2_index):
                    raise AllocationError(f"leaf link {link} marked free")
            for link in rec.spine_links:
                if link in owned_spine_links:
                    raise AllocationError(f"spine link {link} owned twice")
                owned_spine_links[link] = rec.job_id
                if self.spine_free_mask[link.pod][link.l2_index] & (
                    1 << link.spine_index
                ):
                    raise AllocationError(f"spine link {link} marked free")


@dataclass
class LinkCapacityState:
    """Fractional link-bandwidth state for the LC+S scheme (section 5.2.3).

    Links are shared: each job contributes its average per-link bandwidth
    need to every link it is routed over, and total usage of a link is
    capped at ``cap_fraction * peak_bandwidth`` (the paper uses an 80 %
    cap on a 5 GB/s link, above which degradation rises sharply [30]).
    """

    tree: XGFT
    peak_bandwidth: float = 5.0
    cap_fraction: float = 0.8
    leaf_bw: np.ndarray = field(init=False)
    spine_bw: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        t = self.tree
        self.leaf_bw = np.zeros((t.num_leaves, t.l2_per_pod))
        self.spine_bw = np.zeros((t.num_pods, t.l2_per_pod, t.spines_per_group))
        self._pow2_leaf = 1 << np.arange(t.l2_per_pod, dtype=np.int64)
        self._pow2_spine = 1 << np.arange(t.spines_per_group, dtype=np.int64)
        self._claims: Dict[int, Tuple[Tuple[LinkId, ...], Tuple[SpineLinkId, ...], float]] = {}

    @property
    def capacity(self) -> float:
        """Usable bandwidth per link under the cap."""
        return self.peak_bandwidth * self.cap_fraction

    def leaf_mask(self, leaf: int, need: float) -> int:
        """Bitmask of ``leaf``'s uplinks with at least ``need`` headroom."""
        row = self.leaf_bw[leaf]
        cap = self.capacity
        m = 0
        for i in range(self.tree.l2_per_pod):
            if row[i] + need <= cap + 1e-9:
                m |= 1 << i
        return m

    def spine_mask(self, pod: int, l2_index: int, need: float) -> int:
        """Bitmask of spines reachable from ``(pod, l2_index)`` with headroom."""
        row = self.spine_bw[pod][l2_index]
        cap = self.capacity
        m = 0
        for j in range(self.tree.spines_per_group):
            if row[j] + need <= cap + 1e-9:
                m |= 1 << j
        return m

    def leaf_masks_of_pod(self, pod: int, need: float) -> List[int]:
        """Headroom bitmasks for every leaf of ``pod`` in one pass.

        Element ``j`` equals ``leaf_mask(first_leaf + j, need)`` exactly:
        the comparison is the same IEEE-754 ``row + need <= cap + 1e-9``
        evaluated elementwise, so columnar and scalar callers agree
        bit-for-bit.
        """
        lo = pod * self.tree.m2
        rows = self.leaf_bw[lo : lo + self.tree.m2]
        ok = rows + need <= self.capacity + 1e-9
        return (ok.astype(np.int64) @ self._pow2_leaf).tolist()

    def spine_masks_of_pod(self, pod: int, need: float) -> List[int]:
        """Headroom bitmasks for every L2 group of ``pod`` in one pass;
        element ``i`` equals ``spine_mask(pod, i, need)`` exactly."""
        ok = self.spine_bw[pod] + need <= self.capacity + 1e-9
        return (ok.astype(np.int64) @ self._pow2_spine).tolist()

    def claim(
        self,
        job_id: int,
        leaf_links: Sequence[LinkId],
        spine_links: Sequence[SpineLinkId],
        need: float,
    ) -> None:
        """Add ``need`` GB/s of usage on every given link for ``job_id``.

        Raises :class:`AllocationError` (leaving state untouched) if the
        job id already holds bandwidth, any link id lies outside the
        cluster, or any link lacks the headroom.
        """
        if job_id in self._claims:
            raise AllocationError(f"job {job_id} already holds bandwidth")
        _check_link_ids(self.tree, leaf_links, spine_links)
        cap = self.capacity
        for leaf, i in leaf_links:
            if self.leaf_bw[leaf][i] + need > cap + 1e-9:
                raise AllocationError(f"leaf link ({leaf}, {i}) over capacity")
        for pod, i, j in spine_links:
            if self.spine_bw[pod][i][j] + need > cap + 1e-9:
                raise AllocationError(f"spine link ({pod}, {i}, {j}) over capacity")
        for leaf, i in leaf_links:
            self.leaf_bw[leaf][i] += need
        for pod, i, j in spine_links:
            self.spine_bw[pod][i][j] += need
        self._claims[job_id] = (tuple(leaf_links), tuple(spine_links), need)

    def claimants(
        self,
        leaf_links: Sequence[LinkId] = (),
        spine_links: Sequence[SpineLinkId] = (),
    ) -> Tuple[int, ...]:
        """Ids of every claim charged on any of the given links, sorted.

        The resilience layer uses this to find the jobs that must be
        drained before a shared link can be failed (fault claims appear
        too — callers filter by id sign).
        """
        targets_leaf = set(leaf_links)
        targets_spine = set(spine_links)
        owners = set()
        for job_id, (job_leaf, job_spine, _need) in self._claims.items():
            if targets_leaf.intersection(job_leaf) or targets_spine.intersection(
                job_spine
            ):
                owners.add(job_id)
        return tuple(sorted(owners))

    def release(self, job_id: int) -> None:
        """Return a job's bandwidth on every link it was charged on."""
        try:
            leaf_links, spine_links, need = self._claims.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id} holds no bandwidth") from None
        # Clamp tiny negative residue from float accumulation — but only
        # on the links this job touched: a whole-array clip here costs
        # O(total links) per release and would also paper over genuine
        # accounting bugs on links the job never used.
        for leaf, i in leaf_links:
            self.leaf_bw[leaf][i] -= need
            if self.leaf_bw[leaf][i] < 0.0:
                self.leaf_bw[leaf][i] = 0.0
        for pod, i, j in spine_links:
            self.spine_bw[pod][i][j] -= need
            if self.spine_bw[pod][i][j] < 0.0:
                self.spine_bw[pod][i][j] = 0.0
