"""Scheme registry."""

import pytest

from repro.core.registry import ALLOCATOR_NAMES, make_allocator
from repro.topology.fattree import FatTree


def test_all_paper_schemes_constructible():
    tree = FatTree.from_radix(8)
    for name in ALLOCATOR_NAMES:
        allocator = make_allocator(name, tree)
        assert allocator.name == name
        assert allocator.allocate(1, 4) is not None


def test_lc_variant():
    tree = FatTree.from_radix(8)
    lc = make_allocator("lc", tree)
    assert lc.name == "lc"
    assert lc.isolating


def test_case_insensitive():
    tree = FatTree.from_radix(8)
    assert make_allocator("Jigsaw", tree).name == "jigsaw"


def test_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        make_allocator("slurm", FatTree.from_radix(8))


def test_kwargs_forwarded():
    tree = FatTree.from_radix(8)
    a = make_allocator("jigsaw", tree, order="sparse", strategy="first")
    assert a.order == "sparse"
    assert a.strategy == "first"


@pytest.mark.parametrize("scheme", ["jigsaw", "laas", "lc+s", "lc"])
@pytest.mark.parametrize("order", ["Sparse", "DENSE", "random", None])
def test_unknown_order_rejected(scheme, order):
    # Every value but "sparse" used to run the dense enumeration silently.
    with pytest.raises(ValueError, match="'dense' or 'sparse'"):
        make_allocator(scheme, FatTree.from_radix(8), order=order)


@pytest.mark.parametrize("scheme", ["jigsaw", "laas", "lc+s", "lc"])
@pytest.mark.parametrize("order", ["dense", "sparse"])
def test_known_orders_accepted(scheme, order):
    assert make_allocator(scheme, FatTree.from_radix(8), order=order).order == order
