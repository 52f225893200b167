"""Standard Workload Format IO."""

import io

import pytest

from repro.traces import read_swf, synthetic_trace, write_swf
from repro.traces.swf import swf_roundtrip


def test_roundtrip_preserves_jobs():
    trace = synthetic_trace(16, num_jobs=50, seed=1)
    back = swf_roundtrip(trace)
    assert len(back) == len(trace)
    for a, b in zip(trace.jobs, back.jobs):
        assert a.id == b.id
        assert a.size == b.size
        assert abs(a.runtime - b.runtime) <= 0.5  # integer seconds in SWF
        assert a.arrival == b.arrival


def test_reads_comments_and_headers():
    text = "; header\n;MaxNodes: 10\n" + " ".join(
        ["1", "0", "-1", "100", "4"] + ["-1"] * 13
    )
    trace = read_swf(io.StringIO(text), name="t")
    assert len(trace) == 1
    assert trace.jobs[0].size == 4
    assert trace.jobs[0].runtime == 100.0


def test_requested_procs_fallback():
    fields = ["1", "0", "-1", "50", "-1", "-1", "-1", "8"] + ["-1"] * 10
    trace = read_swf(io.StringIO(" ".join(fields)))
    assert trace.jobs[0].size == 8


def test_cores_per_node_division():
    fields = ["1", "0", "-1", "50", "17"] + ["-1"] * 13
    trace = read_swf(io.StringIO(" ".join(fields)), cores_per_node=16)
    assert trace.jobs[0].size == 2  # ceil(17/16)


def test_skips_cancelled_jobs():
    lines = [
        " ".join(["1", "0", "-1", "0", "4"] + ["-1"] * 13),    # zero runtime
        " ".join(["2", "0", "-1", "50", "-1", "-1", "-1", "-1"] + ["-1"] * 10),
        " ".join(["3", "5", "-1", "50", "4"] + ["-1"] * 13),
    ]
    trace = read_swf(io.StringIO("\n".join(lines)))
    assert [j.id for j in trace.jobs] == [3]


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="expected 18 fields"):
        read_swf(io.StringIO("1 2 3"))


def test_unparsable_field_names_its_line():
    good = " ".join(["1", "0", "-1", "50", "4"] + ["-1"] * 13)
    bad = " ".join(["2", "abc", "-1", "50", "4"] + ["-1"] * 13)
    with pytest.raises(ValueError, match="SWF line 3: could not convert"):
        read_swf(io.StringIO("\n".join([good, "; comment", bad])))


@pytest.mark.parametrize("field,value", [(1, "nan"), (1, "inf"),
                                         (3, "nan"), (3, "inf")])
def test_non_finite_times_rejected(field, value):
    fields = ["1", "0", "-1", "50", "4"] + ["-1"] * 13
    fields[field] = value
    with pytest.raises(ValueError, match="SWF line 1: non-finite"):
        read_swf(io.StringIO(" ".join(fields)))


def test_empty_file_rejected():
    with pytest.raises(ValueError, match="no usable jobs"):
        read_swf(io.StringIO("; nothing\n"))


def test_discard_arrivals():
    fields = ["1", "500", "-1", "50", "4"] + ["-1"] * 13
    trace = read_swf(io.StringIO(" ".join(fields)), keep_arrivals=False)
    assert trace.jobs[0].arrival == 0.0
    assert not trace.has_arrivals


def test_file_io(tmp_path):
    trace = synthetic_trace(16, num_jobs=20, seed=2)
    path = tmp_path / "trace.swf"
    write_swf(trace, path)
    back = read_swf(path, system_nodes=1024)
    assert len(back) == 20
    assert back.system_nodes == 1024
    assert back.name == "trace"
