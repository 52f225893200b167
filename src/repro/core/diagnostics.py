"""Fragmentation diagnostics: *why* utilization is lost, quantified.

Section 6.1 explains each scheme's utilization in terms of internal and
external fragmentation.  This module turns that narrative into numbers
for any live allocator state:

* **internal fragmentation** — nodes assigned to jobs beyond their
  request (LaaS's whole-leaf padding: allocated, idle, unusable);
* **external fragmentation** — free nodes that exist but cannot be used:
  the placement-feasibility profile answers "could a k-node job start
  right now?" for a sweep of sizes, and ``largest_placeable`` is the
  biggest job the current free-node pattern can legally host;
* structural detail — how the free nodes are spread (fully-free leaves
  vs partial-leaf shards, per-pod totals), which is exactly the shape
  that decides whether Jigsaw's conditions can be met.

Probes use :meth:`repro.core.allocator.Allocator.can_allocate`, which
searches without claiming, so taking a snapshot never perturbs the
system being observed.  (Probes may seed the allocator's feasibility
cache with *sound* infeasibility verdicts — visible in the cache
counters, never in any scheduling decision.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.core.allocator import Allocator, AllocatorStats


@dataclass(frozen=True)
class FragmentationSnapshot:
    """One moment's fragmentation picture for an allocator."""

    scheme: str
    total_nodes: int
    free_nodes: int
    #: nodes allocated beyond requests (internal fragmentation)
    padding_nodes: int
    #: completely-free leaves (the currency of three-level placements)
    fully_free_leaves: int
    #: free nodes sitting on partially-occupied leaves ("shards")
    shard_nodes: int
    #: free nodes per pod, descending
    pod_free: Tuple[int, ...]
    #: the allocator's counters at snapshot time (copied before the
    #: probe sweep, so they reflect the allocator's history)
    stats: AllocatorStats
    #: probe size -> placeable right now?
    placeable: Dict[int, bool] = field(default_factory=dict)
    #: largest probe size that is placeable (0 if none)
    largest_placeable: int = 0

    @property
    def free_fraction(self) -> float:
        return self.free_nodes / self.total_nodes if self.total_nodes else 0.0

    @property
    def internal_fragmentation_fraction(self) -> float:
        """Share of the machine lost to padding (the paper measures 3-7 %
        for LaaS)."""
        return self.padding_nodes / self.total_nodes if self.total_nodes else 0.0

    @property
    def unusable_free_nodes(self) -> int:
        """Free nodes beyond the largest placeable job — capacity that
        exists but cannot be handed out as one allocation (external
        fragmentation, by the most direct measure)."""
        return max(0, self.free_nodes - self.largest_placeable)

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"scheme: {self.scheme}",
            f"free: {self.free_nodes}/{self.total_nodes} nodes "
            f"({100 * self.free_fraction:.1f}%)",
            f"internal fragmentation (padding): {self.padding_nodes} nodes",
            f"fully-free leaves: {self.fully_free_leaves}",
            f"partial-leaf shards: {self.shard_nodes} free nodes",
            f"largest placeable job: {self.largest_placeable} nodes "
            f"({self.unusable_free_nodes} free nodes beyond reach)",
            self.stats.summary(),
        ]
        return "\n".join(lines)


def default_probe_sizes(total_nodes: int) -> Tuple[int, ...]:
    """A geometric sweep of job sizes up to the machine size."""
    sizes = []
    k = 1
    while k < total_nodes:
        sizes.append(k)
        k = max(k + 1, int(k * 1.5))
    sizes.append(total_nodes)
    return tuple(sizes)


def fragmentation_snapshot(
    allocator: Allocator,
    probe_sizes: Optional[Sequence[int]] = None,
) -> FragmentationSnapshot:
    """Take a fragmentation snapshot of ``allocator``'s current state.

    Passing an explicitly empty ``probe_sizes`` sequence yields a
    **structural** snapshot: no ``can_allocate`` probes run at all (so
    the allocator's cache counters are untouched), ``placeable`` stays
    empty and ``largest_placeable`` is 0.  The time-series sampler
    (:mod:`repro.obs.sampler`) relies on this probe-free form.
    """
    tree = allocator.tree
    state = allocator.state
    if probe_sizes is None:
        probe_sizes = default_probe_sizes(tree.num_nodes)

    padding = sum(a.padding for a in allocator.allocations.values())
    # Copied before the probe sweep below adds its own search effort.
    stats = replace(allocator.stats)
    free = state.free_nodes_total
    fully_free = sum(state.full_free_leaves)
    shard = free - fully_free * tree.m1
    pod_free = tuple(sorted(state.pod_free, reverse=True))

    placeable: Dict[int, bool] = {}
    largest = 0
    probes = set(probe_sizes)
    if free and probes:
        probes.add(free)  # "could one job absorb all free capacity?"
    for size in sorted(probes):
        ok = size <= free and allocator.can_allocate(size)
        placeable[size] = ok
        if ok:
            largest = size
    return FragmentationSnapshot(
        scheme=allocator.name,
        total_nodes=tree.num_nodes,
        free_nodes=free,
        padding_nodes=padding,
        fully_free_leaves=fully_free,
        shard_nodes=shard,
        pod_free=pod_free,
        placeable=placeable,
        largest_placeable=largest,
        stats=stats,
    )


def compare_fragmentation(
    allocators: Sequence[Allocator],
    probe_sizes: Optional[Sequence[int]] = None,
) -> Dict[str, FragmentationSnapshot]:
    """Snapshots for several allocators (assumed to hold comparable
    workloads), keyed by scheme name."""
    return {
        a.name: fragmentation_snapshot(a, probe_sizes) for a in allocators
    }
