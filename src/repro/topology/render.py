"""ASCII rendering of cluster occupancy and allocations.

A picture of who owns what, pod by pod — the fastest way to *see*
fragmentation and the difference between the schemes' placement shapes
(compare Figure 2 and Figure 3 of the paper).  Each leaf is drawn as a
bracketed group of node cells; a cell shows the symbol of the job owning
that node, ``.`` when free.  An optional link panel lists each job's L2
index set per leaf (the common set ``S`` made visible).

Example (radix-8 tree, three jobs)::

    pod 0  [aaaa][aaab][bbb.][....]
    pod 1  [cccc][cc..][....][....]
    ...
"""

from __future__ import annotations

from collections import defaultdict
from string import ascii_lowercase, ascii_uppercase
from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.allocator import Allocation
from repro.topology.fattree import XGFT
from repro.topology.state import ClusterState

#: symbols assigned to jobs, cycling if there are many
_SYMBOLS = ascii_lowercase + ascii_uppercase + "0123456789"
_FREE = "."


def job_symbols(job_ids: Iterable[int]) -> Dict[int, str]:
    """Stable job-id -> display-symbol assignment."""
    return {
        job_id: _SYMBOLS[idx % len(_SYMBOLS)]
        for idx, job_id in enumerate(sorted(set(job_ids)))
    }


def render_occupancy(
    state: ClusterState,
    symbols: Optional[Mapping[int, str]] = None,
    pods: Optional[Iterable[int]] = None,
) -> str:
    """Render node ownership, one line per pod."""
    tree = state.tree
    if symbols is None:
        symbols = job_symbols(state.resident_jobs())
    pods = range(tree.num_pods) if pods is None else pods
    lines: List[str] = []
    for pod in pods:
        cells: List[str] = []
        for leaf in tree.leaves_of_pod(pod):
            owners = [
                int(state.node_owner[n]) for n in tree.nodes_of_leaf(leaf)
            ]
            cells.append(
                "["
                + "".join(
                    _FREE if o == -1 else symbols.get(o, "?") for o in owners
                )
                + "]"
            )
        lines.append(f"pod {pod:>3}  " + "".join(cells))
    return "\n".join(lines)


def render_allocation(tree: XGFT, alloc: Allocation) -> str:
    """Render one allocation: its nodes, and its links per switch.

    The link panel shows each leaf's allocated L2 indices (the set ``S``
    or ``Sr``) and, for multi-pod allocations, each pod's spine set per
    L2 index (``S*_i`` / ``S*r_i``).
    """
    lines: List[str] = [
        f"job {alloc.job_id}: {alloc.size} nodes"
        + (f" (+{alloc.padding} padding)" if alloc.padding else "")
        + (f", shape {alloc.shape}" if alloc.shape is not None else "")
    ]
    counts = alloc.leaf_node_counts(tree)
    links_by_leaf: Dict[int, List[int]] = defaultdict(list)
    for leaf, i in alloc.leaf_links:
        links_by_leaf[leaf].append(i)
    for leaf in sorted(counts):
        ups = ",".join(str(i) for i in sorted(links_by_leaf.get(leaf, [])))
        lines.append(
            f"  leaf {leaf:>3} (pod {tree.pod_of_leaf(leaf)}): "
            f"{counts[leaf]} nodes, uplinks [{ups}]"
        )
    spines: Dict[tuple, List[int]] = defaultdict(list)
    for pod, i, j in alloc.spine_links:
        spines[(pod, i)].append(j)
    for (pod, i) in sorted(spines):
        js = ",".join(str(j) for j in sorted(spines[(pod, i)]))
        lines.append(f"  L2 (pod {pod}, idx {i}): spines [{js}]")
    return "\n".join(lines)


def render_free_summary(state: ClusterState) -> str:
    """One line per pod: free/total nodes and fully-free leaf count."""
    tree = state.tree
    lines: List[str] = []
    for pod in range(tree.num_pods):
        free = state.pod_free[pod]
        full = state.full_free_leaves[pod]
        bar = "#" * round(10 * (1 - free / tree.nodes_per_pod))
        lines.append(
            f"pod {pod:>3}: {free:>4}/{tree.nodes_per_pod} free, "
            f"{full:>2} fully-free leaves  |{bar:<10}|"
        )
    return "\n".join(lines)
