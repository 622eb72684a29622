"""Server-level durability: WAL hooks on the update path, background
snapshots, and crash recovery through ``QueryServer.recover``."""

import random

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import QueryError
from repro.mobility.workload import Query, make_workload
from repro.persist import DurabilityManager, SnapshotPolicy, read_wal
from repro.roadnet.location import NetworkLocation
from repro.server.metrics import ReplayReport
from repro.server.server import QueryServer

pytestmark = pytest.mark.persist

_CONFIG = GGridConfig(eta=3, delta_b=8)


def _messages(graph, n, seed=21):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        e = rng.randrange(graph.num_edges)
        out.append(
            Message(rng.randrange(12), e, rng.uniform(0, graph.edge(e).weight), 1.0 + i)
        )
    return out


def test_update_path_logs_every_record(small_graph, tmp_path):
    manager = DurabilityManager(tmp_path)
    server = QueryServer(GGridIndex(small_graph, _CONFIG), durability=manager)
    report = ReplayReport(index_name="g-grid")
    for m in _messages(small_graph, 25):
        server.update(m, report)
    server.remove_object(m.obj, t=100.0)
    manager.close()
    result = read_wal(tmp_path / "wal")
    assert not result.torn
    assert len(result.records) == 26
    assert result.records[-1].op == "remove"
    assert report.n_updates == 25


def test_snapshot_policy_fires_during_serving(small_graph, tmp_path):
    manager = DurabilityManager(
        tmp_path, snapshot_policy=SnapshotPolicy(every_records=10)
    )
    server = QueryServer(GGridIndex(small_graph, _CONFIG), durability=manager)
    report = ReplayReport(index_name="g-grid")
    for m in _messages(small_graph, 25):
        server.update(m, report)
    manager.close()
    assert manager.snapshots.snapshots_written == 2
    newest, _ = manager.snapshots.newest_valid()
    assert newest.watermark == 20


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(Message(3, 0, 1e9, 30.0), id="offset-beyond-edge"),
        pytest.param(Message(3, 0, 0.1, float("inf")), id="time-infinite"),
        pytest.param(Message(3, 0, None, 30.0), id="edge-without-offset"),
    ],
)
def test_refused_update_never_reaches_wal_or_snapshot(small_graph, tmp_path, bad):
    """An update the index refuses is refused before the WAL append, so
    no snapshot holds it and recovery still restores the newest one."""
    manager = DurabilityManager(
        tmp_path, snapshot_policy=SnapshotPolicy(every_records=10)
    )
    server = QueryServer(GGridIndex(small_graph, _CONFIG), durability=manager)
    report = ReplayReport(index_name="g-grid")
    messages = _messages(small_graph, 20)
    for m in messages[:10]:
        server.update(m, report)
    with pytest.raises(QueryError):
        server.update(bad, report)
    with pytest.raises(QueryError, match="not finite"):
        server.remove_object(messages[0].obj, t=float("nan"))
    for m in messages[10:]:
        server.update(m, report)
    manager.close()
    assert len(read_wal(tmp_path / "wal").records) == 20
    assert manager.snapshots.snapshots_written == 2

    recovered = QueryServer.recover(tmp_path, graph=small_graph, config=_CONFIG)
    assert recovered.recovery_report.snapshot_watermark == 20
    assert recovered.recovery_report.snapshots_rejected == 0
    assert recovered.index.object_table.objects() == server.index.object_table.objects()
    recovered.durability.close()


def test_remove_object_requires_index_support(small_graph, tmp_path):
    from repro.baselines.naive import NaiveKnnIndex

    index = NaiveKnnIndex(small_graph)
    if hasattr(index, "remove_object"):
        pytest.skip("baseline grew removal support; pick another stub")
    server = QueryServer(index)
    with pytest.raises(QueryError, match="does not support"):
        server.remove_object(0, t=1.0)


def test_recover_round_trip(small_graph, tmp_path):
    """Serve updates durably, "crash" (drop the server), recover: the
    recovered server answers identically and is durable again — its
    next update extends the same LSN run."""
    workload = make_workload(
        small_graph, num_objects=20, duration=8.0, num_queries=3, k=4, seed=6
    )
    manager = DurabilityManager(
        tmp_path, snapshot_policy=SnapshotPolicy(every_records=15)
    )
    live = QueryServer(GGridIndex(small_graph, _CONFIG), durability=manager)
    report = ReplayReport(index_name="g-grid")
    for obj, loc in workload.initial.items():
        live.update(Message(obj, loc.edge_id, loc.offset, 0.0), report)
    for message in workload.updates:
        live.update(message, report)
    manager.close()  # process death: only the durable files remain
    lsn_before = manager.wal.last_lsn

    recovered = QueryServer.recover(tmp_path, graph=small_graph, config=_CONFIG)
    assert recovered.recovery_report.records_failed == 0
    assert recovered.recovery_report.last_lsn == lsn_before
    q = Query(100.0, NetworkLocation(0, 0.0), 5)
    fresh_report = ReplayReport(index_name="g-grid")
    want = live.query(q, report)
    got = recovered.query(q, fresh_report)
    assert got.objects() == want.objects()
    assert [repr(d) for d in got.distances()] == [repr(d) for d in want.distances()]

    # durable again: the next update continues the LSN sequence
    recovered.update(Message(0, 0, 0.1, 200.0), fresh_report)
    recovered.durability.close()
    assert read_wal(tmp_path / "wal").last_lsn == lsn_before + 1
