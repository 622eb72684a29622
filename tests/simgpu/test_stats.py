"""Unit tests for GPU statistics accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgpu.stats import GpuStats


def test_snapshot_is_independent():
    s = GpuStats(lane_ops=5)
    snap = s.snapshot()
    s.lane_ops = 10
    assert snap.lane_ops == 5


def test_diff():
    s = GpuStats(lane_ops=10, bytes_h2d=100, kernel_time_s=1.0)
    earlier = GpuStats(lane_ops=4, bytes_h2d=40, kernel_time_s=0.25)
    d = s.diff(earlier)
    assert d.lane_ops == 6
    assert d.bytes_h2d == 60
    assert d.kernel_time_s == pytest.approx(0.75)


def test_merge():
    a = GpuStats(lane_ops=1, transfer_time_s=0.5)
    b = GpuStats(lane_ops=2, transfer_time_s=0.25)
    a.merge(b)
    assert a.lane_ops == 3
    assert a.transfer_time_s == pytest.approx(0.75)


def test_reset():
    s = GpuStats(lane_ops=5, bytes_d2h=7, kernel_time_s=1.0)
    s.reset()
    assert s.lane_ops == 0 and s.bytes_d2h == 0 and s.kernel_time_s == 0.0


def test_total_bytes_and_gpu_time():
    s = GpuStats(
        bytes_h2d=10, bytes_d2h=5, kernel_time_s=1.0, transfer_time_s=2.0,
        pipelined_saved_s=0.5,
    )
    assert s.total_bytes == 15
    assert s.gpu_time_s == pytest.approx(2.5)


def test_as_dict_has_all_fields():
    d = GpuStats().as_dict()
    assert "lane_ops" in d and "transfer_time_s" in d and len(d) >= 10


# finite and far enough from overflow that no difference is inf - inf
_counters = st.builds(
    GpuStats,
    **{
        name: st.floats(-1e300, 1e300)
        if name.endswith("_s")
        else st.integers()
        for name in GpuStats().as_dict()
    },
)


@settings(max_examples=200, deadline=None)
@given(stats=_counters, later=_counters)
def test_since_mark_is_bit_identical_to_diff(stats, later):
    mark, snap = stats.mark(), stats.snapshot()
    for name, value in later.as_dict().items():
        setattr(stats, name, value)
    delta = stats.diff(snap)
    assert stats.since(mark) == (delta.gpu_time_s, delta.total_bytes)


def test_mark_reads_only_what_since_needs():
    s = GpuStats(kernel_launches=3, lane_ops=9, bytes_h2d=4)
    mark = s.mark()
    s.kernel_launches, s.lane_ops = 30, 90
    assert s.since(mark) == (0.0, 0)
    s.bytes_d2h += 6
    s.kernel_time_s, s.pipelined_saved_s = 0.5, 0.25
    assert s.since(mark) == (0.25, 6)
