"""Unit tests for message records."""

from repro.core.messages import Message
from repro.simgpu.memory import MESSAGE_BYTES


def test_removal_marker_detection():
    assert Message(1, None, None, 2.0).is_removal
    assert not Message(1, 0, 0.0, 2.0).is_removal


def test_sort_key_orders_by_time():
    older = Message(1, 0, 0.0, 1.0)
    newer = Message(1, 0, 0.0, 2.0)
    assert newer.sort_key > older.sort_key
    assert newer.newer_than(older)
    assert not older.newer_than(newer)


def test_sort_key_marker_loses_tie():
    """A removal marker carries the move's timestamp; the real message
    must win the tie or the object vanishes (regression test)."""
    marker = Message(1, None, None, 5.0)
    real = Message(1, 3, 0.5, 5.0)
    assert real.sort_key > marker.sort_key


def test_newer_than_none():
    assert Message(1, 0, 0.0, 0.0).newer_than(None)


def test_device_size_is_packed():
    assert Message(1, 2, 0.5, 1.0).device_nbytes() == MESSAGE_BYTES
