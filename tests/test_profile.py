"""FreeProfile: the planning substrate for conservative backfilling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.profile import FOREVER, FreeProfile


def earliest_fit_reference(profile, nodes, duration):
    """Brute-force ``earliest_fit``: try ``now`` and every breakpoint as
    a start, and accept the first whose level and every later level
    inside ``[start, start + duration)`` hold ``nodes``."""
    for t0 in [profile.now] + profile._times:
        if profile.free_at(t0) < nodes:
            continue
        end = t0 + duration
        if all(
            profile.free_at(bt) >= nodes
            for bt in profile._times
            if t0 < bt < end
        ):
            return t0
    return FOREVER


class TestBasics:
    def test_flat_profile(self):
        p = FreeProfile(now=0.0, free_now=10)
        assert p.free_at(0.0) == 10
        assert p.free_at(100.0) == 10
        assert p.earliest_fit(10, 5.0) == 0.0
        assert p.earliest_fit(11, 5.0) == FOREVER

    def test_release_increases_future_free(self):
        p = FreeProfile(0.0, 4)
        p.release_at(10.0, 6)
        assert p.free_at(9.9) == 4
        assert p.free_at(10.0) == 10
        assert p.earliest_fit(10, 1.0) == 10.0

    def test_reserve_consumes_interval(self):
        p = FreeProfile(0.0, 10)
        p.reserve(5.0, 15.0, 8)
        assert p.free_at(4.9) == 10
        assert p.free_at(5.0) == 2
        assert p.free_at(15.0) == 10
        # a short narrow job fits before the reservation begins ...
        assert p.earliest_fit(3, 1.0) == 0.0
        assert p.earliest_fit(10, 1.0) == 0.0  # [0,1) is clear of it too
        # ... but anything wide whose run overlaps [5,15) must wait
        assert p.earliest_fit(10, 6.0) == 15.0

    def test_fit_must_hold_for_whole_duration(self):
        p = FreeProfile(0.0, 10)
        p.reserve(5.0, 15.0, 8)
        # 3 nodes for 10s starting at 0 would overlap [5,15) with only 2
        assert p.earliest_fit(3, 10.0) == 15.0
        assert p.earliest_fit(2, 10.0) == 0.0

    def test_past_release_adjusts_base(self):
        p = FreeProfile(10.0, 4)
        p.release_at(5.0, 3)  # already happened
        assert p.free_at(10.0) == 7

    def test_infinite_reservation(self):
        p = FreeProfile(0.0, 10)
        p.reserve(2.0, FOREVER, 10)
        assert p.earliest_fit(1, 1.0) == 0.0
        assert p.earliest_fit(10, 3.0) == FOREVER

    def test_min_free(self):
        p = FreeProfile(0.0, 10)
        p.reserve(5.0, 6.0, 4)
        assert p.min_free(0.0, 10.0) == 6
        assert p.min_free(6.0, 10.0) == 10

    def test_validation(self):
        p = FreeProfile(0.0, 5)
        with pytest.raises(ValueError):
            p.release_at(1.0, -1)
        with pytest.raises(ValueError):
            p.reserve(2.0, 1.0, 3)
        with pytest.raises(ValueError):
            p.reserve(1.0, 1.0, 3)


class TestComposition:
    def test_stacked_reservations(self):
        p = FreeProfile(0.0, 10)
        p.reserve(0.0, 10.0, 4)
        p.reserve(0.0, 5.0, 4)
        assert p.free_at(0.0) == 2
        assert p.free_at(5.0) == 6
        assert p.earliest_fit(6, 2.0) == 5.0
        assert p.earliest_fit(8, 2.0) == 10.0

    def test_release_then_reserve(self):
        p = FreeProfile(0.0, 0)
        p.release_at(10.0, 8)
        p.reserve(10.0, 20.0, 8)
        assert p.free_at(10.0) == 0
        assert p.earliest_fit(8, 1.0) == 20.0


# Integer-valued times make ``start + duration`` land exactly on
# breakpoints; a small time range makes releases and reservations share
# breakpoints (including ones whose deltas cancel to zero) and fall
# before ``now`` (folded into the base).
_times = st.integers(min_value=0, max_value=30).map(float)
_nodes = st.integers(min_value=0, max_value=12)
_op = st.one_of(
    st.tuples(st.just("release"), _times, _nodes),
    st.tuples(
        st.just("reserve"), _times,
        st.one_of(st.integers(1, 20).map(float), st.just(FOREVER)),
        _nodes,
    ),
    # a release and a reservation of the same size at the same instant:
    # the breakpoint's deltas sum to zero
    st.tuples(
        st.just("cancel"), _times, st.integers(1, 20).map(float), _nodes
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    now=st.integers(min_value=0, max_value=10).map(float),
    base=st.integers(min_value=0, max_value=16),
    ops=st.lists(_op, max_size=12),
    nodes=st.integers(min_value=0, max_value=40),
    duration=st.one_of(
        st.integers(min_value=0, max_value=25).map(float),
        st.floats(min_value=0.0, max_value=25.0),
        st.just(FOREVER),
    ),
)
def test_earliest_fit_matches_brute_force(now, base, ops, nodes, duration):
    p = FreeProfile(now, base)
    for op in ops:
        if op[0] == "release":
            p.release_at(op[1], op[2])
        elif op[0] == "reserve":
            _, start, length, n = op
            p.reserve(start, start + length, n)
        else:
            _, t, length, n = op
            p.release_at(t, n)
            p.reserve(t, t + length, n)
    assert p.earliest_fit(nodes, duration) == earliest_fit_reference(
        p, nodes, duration
    )
