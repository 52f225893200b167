"""Name-based construction of the paper's five scheduling schemes."""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.allocator import Allocator
from repro.core.baseline import BaselineAllocator
from repro.core.jigsaw import JigsawAllocator
from repro.core.laas import LaaSAllocator
from repro.core.lcs import LeastConstrainedAllocator
from repro.core.ta import TopologyAwareAllocator
from repro.topology.fattree import XGFT

_FACTORIES: Dict[str, Callable[..., Allocator]] = {
    "baseline": BaselineAllocator,
    "jigsaw": JigsawAllocator,
    "laas": LaaSAllocator,
    "ta": TopologyAwareAllocator,
    "lc+s": LeastConstrainedAllocator,
    "lc": lambda tree, **kw: LeastConstrainedAllocator(
        tree, share_links=False, **kw
    ),
}

#: The scheme names of the paper's evaluation, in presentation order.
ALLOCATOR_NAMES = ("baseline", "lc+s", "jigsaw", "laas", "ta")


def make_allocator(name: str, tree: XGFT, **kwargs) -> Allocator:
    """Build the named scheme on ``tree``.

    Accepted names: ``baseline``, ``jigsaw``, ``laas``, ``ta``, ``lc+s``
    and ``lc`` (the exclusive-link least-constrained ablation variant).
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {sorted(_FACTORIES)}"
        ) from None
    return factory(tree, **kwargs)
