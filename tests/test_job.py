"""Job dataclass: validation and derived quantities."""

import pytest

from repro.sched.job import Job


def test_valid_job():
    j = Job(id=1, size=4, runtime=100.0, arrival=5.0)
    assert j.isolated_runtime == 100.0
    j.speedup = 0.25
    assert j.isolated_runtime == pytest.approx(80.0)
    assert j.runtime_under(low_interference=True) == pytest.approx(80.0)
    assert j.runtime_under(low_interference=False) == 100.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(size=0, runtime=1.0),
        dict(size=-1, runtime=1.0),
        dict(size=1, runtime=0.0),
        dict(size=1, runtime=-5.0),
        dict(size=1, runtime=1.0, arrival=-1.0),
        dict(size=1, runtime=1.0, speedup=-0.1),
    ],
)
def test_invalid_jobs_rejected(kwargs):
    with pytest.raises(ValueError):
        Job(id=1, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(runtime=float("nan")),
        dict(runtime=float("inf")),
        dict(runtime=1.0, arrival=float("nan")),
        dict(runtime=1.0, arrival=float("inf")),
        dict(runtime=1.0, speedup=float("nan")),
        dict(runtime=1.0, speedup=float("inf")),
        dict(runtime=1.0, bw_need=float("nan")),
        dict(runtime=1.0, bw_need=float("inf")),
        dict(runtime=1.0, bw_need=-0.5),
    ],
)
def test_non_finite_fields_rejected(kwargs):
    # A NaN time used to slip through and drop the job from the run
    # without any terminal state; an infinite runtime "completed" at
    # t=inf.
    with pytest.raises(ValueError, match="finite"):
        Job(id=1, size=2, **kwargs)


def test_turnaround_and_wait():
    j = Job(id=1, size=2, runtime=10.0, arrival=3.0)
    with pytest.raises(ValueError):
        _ = j.turnaround
    with pytest.raises(ValueError):
        _ = j.wait
    j.start, j.end = 8.0, 18.0
    assert j.wait == 5.0
    assert j.turnaround == 15.0


def test_reset():
    j = Job(id=1, size=2, runtime=10.0)
    j.start, j.end = 1.0, 11.0
    j.reset()
    assert j.start < 0 and j.end < 0
