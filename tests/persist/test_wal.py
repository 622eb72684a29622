"""Unit tests for the CRC-framed, segment-rotating write-ahead log."""

import json
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import Message
from repro.errors import PersistenceError
from repro.obs.metrics import MetricsRegistry
from repro.persist.wal import (
    MAX_RECORD_BYTES,
    SEGMENT_MAGIC,
    WalRecord,
    WriteAheadLog,
    iter_wal,
    read_wal,
)

pytestmark = pytest.mark.persist


def _msg(obj: int, t: float) -> Message:
    return Message(obj, obj % 7, 0.25 * obj, t)


def test_roundtrip_ingest_and_remove(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        for i in range(10):
            wal.append_ingest(_msg(i, float(i)))
        wal.append_remove(3, 10.0)
    result = read_wal(tmp_path)
    assert not result.torn
    assert [r.lsn for r in result.records] == list(range(1, 12))
    assert result.records[0].op == "ingest"
    assert result.records[-1].op == "remove"
    assert result.records[-1].obj == 3
    got = result.records[4].to_message()
    assert (got.obj, got.edge, got.offset, got.t) == (4, 4, 1.0, 4.0)


def test_remove_record_refuses_to_message(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append_remove(1, 1.0)
    record = next(iter_wal(tmp_path))
    with pytest.raises(PersistenceError):
        record.to_message()


def test_segment_rotation(tmp_path):
    frame = len(WalRecord(1, "ingest", 0, 0, 0.0, 0.0).encode())
    # room for ~3 records per segment
    with WriteAheadLog(tmp_path, max_segment_bytes=len(SEGMENT_MAGIC) + 3 * frame + 8) as wal:
        for i in range(10):
            wal.append_ingest(_msg(0, float(i)))
        assert len(wal.segments()) > 1
    result = read_wal(tmp_path)
    assert not result.torn
    assert len(result.records) == 10
    assert [r.lsn for r in result.records] == list(range(1, 11))


def test_torn_tail_mid_record(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        extents = [wal.append_ingest(_msg(i, float(i))) for i in range(6)]
    third = extents[2]
    # cut 3 bytes into the fourth record's frame
    with open(third.segment, "r+b") as fh:
        fh.truncate(third.end_offset + 3)
    result = read_wal(tmp_path)
    assert result.torn
    assert result.torn_segment == third.segment
    assert [r.lsn for r in result.records] == [1, 2, 3]


def test_corrupt_crc_stops_replay(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        extents = [wal.append_ingest(_msg(i, float(i))) for i in range(4)]
    segment = extents[0].segment
    data = bytearray(segment.read_bytes())
    # flip one payload byte inside the second record
    data[extents[1].end_offset - 1] ^= 0xFF
    segment.write_bytes(bytes(data))
    result = read_wal(tmp_path)
    assert result.torn
    assert [r.lsn for r in result.records] == [1]  # stops at the bad frame


def test_oversized_length_treated_as_tear(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append_ingest(_msg(0, 0.0))
        extent = wal.append_ingest(_msg(1, 1.0))
    with open(extent.segment, "ab") as fh:
        fh.write((MAX_RECORD_BYTES + 1).to_bytes(4, "little") + b"\x00" * 8)
    result = read_wal(tmp_path)
    assert result.torn
    assert len(result.records) == 2


def test_foreign_file_rejected(tmp_path):
    (tmp_path / "wal-00000001.seg").write_bytes(b"not a wal segment at all")
    result = read_wal(tmp_path)
    assert result.torn
    assert result.records == []


def test_resume_truncates_torn_tail_and_continues_lsn(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        extents = [wal.append_ingest(_msg(i, float(i))) for i in range(5)]
    # crash: half of record 4 survives
    with open(extents[3].segment, "r+b") as fh:
        fh.truncate(extents[3].end_offset - 2)
    with WriteAheadLog(tmp_path) as wal:
        assert wal.last_lsn == 3  # resumed after the surviving prefix
        wal.append_ingest(_msg(9, 9.0))
    result = read_wal(tmp_path)
    assert not result.torn  # the tail was trimmed away
    assert [r.lsn for r in result.records] == [1, 2, 3, 4]
    assert result.records[-1].obj == 9


def test_resume_drops_orphan_segments_after_tear(tmp_path):
    frame = len(WalRecord(1, "ingest", 0, 0, 0.0, 0.0).encode())
    cap = len(SEGMENT_MAGIC) + 2 * frame + 8
    with WriteAheadLog(tmp_path, max_segment_bytes=cap) as wal:
        extents = [wal.append_ingest(_msg(0, float(i))) for i in range(6)]
    segments = sorted({e.segment for e in extents})
    assert len(segments) >= 3
    # corrupt the magic of the middle segment: everything after is orphaned
    with open(segments[1], "r+b") as fh:
        fh.write(b"XXXX")
    with WriteAheadLog(tmp_path) as wal:
        assert wal.last_lsn == 2  # only the first segment's records survive
        remaining = wal.segments()
    assert segments[1] not in remaining
    assert segments[2] not in remaining


def test_fsync_every_append(tmp_path):
    with WriteAheadLog(tmp_path, fsync_every=1) as wal:
        for i in range(5):
            wal.append_ingest(_msg(i, float(i)))
        assert wal.fsyncs >= 5


def test_fsync_batched(tmp_path):
    with WriteAheadLog(tmp_path, fsync_every=4) as wal:
        for i in range(7):
            wal.append_ingest(_msg(i, float(i)))
        mid = wal.fsyncs
        assert mid == 1  # one batch of 4; the partial batch not yet synced
        wal.sync()
        assert wal.fsyncs == mid + 1


def test_append_after_close_rejected(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.close()
    with pytest.raises(PersistenceError):
        wal.append_ingest(_msg(0, 0.0))


def test_invalid_parameters_rejected(tmp_path):
    with pytest.raises(PersistenceError):
        WriteAheadLog(tmp_path, max_segment_bytes=4)
    with pytest.raises(PersistenceError):
        WriteAheadLog(tmp_path, fsync_every=-1)


def test_metrics_published(tmp_path):
    registry = MetricsRegistry()
    with WriteAheadLog(tmp_path, registry=registry, fsync_every=1) as wal:
        wal.append_ingest(_msg(0, 0.0))
        wal.append_ingest(_msg(1, 1.0))
        wal.append_remove(0, 2.0)
    families = registry.families()
    records = families["repro_wal_records_total"]
    assert records.labels(op="ingest").value == 2
    assert records.labels(op="remove").value == 1
    assert families["repro_wal_bytes_total"].default().value == wal.bytes_appended
    assert families["repro_wal_fsyncs_total"].default().value >= 3
    assert families["repro_wal_segments_total"].default().value >= 1


def _json_dumps_frame(record: WalRecord) -> bytes:
    """Reference encoder: the frame built through ``json.dumps``."""
    payload = json.dumps(
        {
            "lsn": record.lsn,
            "op": record.op,
            "obj": record.obj,
            "edge": record.edge,
            "offset": record.offset,
            "t": record.t,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


_field = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    lsn=_field,
    op=st.one_of(st.sampled_from(["ingest", "remove"]), st.text(max_size=8)),
    obj=_field,
    edge=_field,
    offset=_field,
    t=_field,
)
@example(lsn=1, op="ingest", obj=0, edge=None, offset=None, t=-0.0)
@example(lsn=2, op="remove", obj=-3, edge=7, offset=float("nan"), t=float("-inf"))
def test_encode_matches_json_dumps_byte_for_byte(lsn, op, obj, edge, offset, t):
    record = WalRecord(lsn, op, obj, edge, offset, t)
    assert record.encode() == _json_dumps_frame(record)


def test_encode_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        WalRecord(1, "ingest", 0, 1, object(), 0.0).encode()


def test_encoded_frames_decode_to_the_same_record(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append_ingest(Message(5, 3, 5e-324, -0.0))
        wal.append_ingest(Message(6, 4, 1e16, float("inf")))
        wal.append_remove(5, 2.5)
    got = [(r.obj, r.edge, r.offset, r.t) for r in iter_wal(tmp_path)]
    assert got[1] == (6, 4, 1e16, float("inf"))
    assert got[2] == (5, None, None, 2.5)
    assert got[0][2] == 5e-324 and str(got[0][3]) == "-0.0"
