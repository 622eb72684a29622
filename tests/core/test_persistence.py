"""Unit tests for index snapshots and object removal."""

import json
import random
import zlib

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.errors import PersistenceError, ReproError, UnknownObjectError
from repro.persist import SnapshotStore, load_index, save_index
from repro.persist.snapshot import _canonical
from repro.roadnet import grid_road_network
from repro.roadnet.location import NetworkLocation


def _populated(graph, seed=4):
    rng = random.Random(seed)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8, rho=2.5))
    for obj in range(25):
        e = rng.randrange(graph.num_edges)
        index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), 1.0))
    return index


def test_snapshot_roundtrip(medium_graph, tmp_path):
    index = _populated(medium_graph)
    path = save_index(index, tmp_path / "snap.json")
    restored = load_index(path)
    assert restored.num_objects == index.num_objects
    assert restored.config.rho == 2.5
    assert restored.graph.num_edges == medium_graph.num_edges
    for obj, entry in index.object_table.objects().items():
        got = restored.object_table.get(obj)
        assert (got.edge, got.offset, got.t) == (entry.edge, entry.offset, entry.t)


def test_restored_index_answers_identically(medium_graph, tmp_path):
    index = _populated(medium_graph)
    restored = load_index(save_index(index, tmp_path / "snap.json"))
    q = NetworkLocation(0, 0.1)
    a = index.knn(q, 5, t_now=2.0).entries
    b = restored.knn(q, 5, t_now=2.0).entries
    assert [(e.obj, e.distance) for e in a] == [(e.obj, e.distance) for e in b]


def _rewrite_body(path, edit):
    """Apply ``edit`` to a saved snapshot's body and re-seal its CRC, so
    only the body checks behind the envelope can reject the file."""
    envelope = json.loads(path.read_text())
    edit(envelope["body"])
    envelope["crc"] = zlib.crc32(_canonical(envelope["body"]))
    path.write_text(json.dumps(envelope))
    return path


def test_version_mismatch_rejected(medium_graph, tmp_path):
    path = save_index(_populated(medium_graph), tmp_path / "snap.json")
    _rewrite_body(path, lambda body: body.update(version=999))
    with pytest.raises(PersistenceError, match="version 999"):
        load_index(path)


def test_malformed_snapshot_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "graph": {}}))
    with pytest.raises(ReproError):
        load_index(path)


def test_save_index_writes_the_store_envelope(medium_graph, tmp_path):
    index = _populated(medium_graph)
    path = save_index(index, tmp_path / "snap.json")
    loaded = SnapshotStore(tmp_path / "store").load(path)
    assert loaded.watermark == 0
    assert loaded.body["objects"] == [
        [obj, e.edge, e.offset, e.t]
        for obj, e in sorted(index.object_table.objects().items())
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.json", "store"]


def _flip_digit(raw: bytes) -> bytes:
    flipped = raw.replace(b"0.25", b"0.35", 1)  # the object table's offset
    assert flipped != raw
    return flipped


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda raw: raw[: len(raw) // 2], id="truncated"),
        pytest.param(lambda raw: b"", id="empty"),
        pytest.param(lambda raw: b"[" + raw + b"]", id="top-level-list"),
        pytest.param(lambda raw: b"\xff\xfe" + raw, id="non-utf8"),
        pytest.param(_flip_digit, id="flipped-digit"),
        pytest.param(lambda raw: raw.replace(b'"crc": ', b'"crc": 1e999, "x": ', 1),
                     id="infinite-crc"),
        pytest.param(lambda raw: b"[" * 100_000 + b"]" * 100_000, id="deep-nesting"),
    ],
)
def test_damaged_snapshot_file_raises_persistence_error(medium_graph, tmp_path, damage):
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=8))
    index.ingest(Message(1, 0, 0.25, 3.0))
    path = save_index(index, tmp_path / "snap.json")
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(PersistenceError):
        load_index(path)


def _misfiled_location(body):
    """Move one location message to a cell that does not hold its edge."""
    lists = body["lists"]
    messages = lists[0][1]
    message = next(m for m in messages if m[1] is not None)
    messages.remove(message)
    lists[1][1].append(message)


@pytest.mark.parametrize(
    ("edit", "match"),
    [
        pytest.param(lambda body: body["lists"][0].__setitem__(0, 10**6),
                     "outside the grid", id="cell-beyond-grid"),
        pytest.param(lambda body: body["lists"][0].__setitem__(0, -3),
                     "outside the grid", id="negative-cell"),
        pytest.param(_misfiled_location, "does not hold it", id="misfiled-location"),
        pytest.param(lambda body: body["config"].update(gpu={}),
                     "unknown config keys", id="unpersisted-config-key"),
    ],
)
def test_crc_valid_malformed_body_rejected(medium_graph, tmp_path, edit, match):
    path = save_index(_populated(medium_graph), tmp_path / "snap.json")
    _rewrite_body(path, edit)
    with pytest.raises(PersistenceError, match=match):
        load_index(path)


def test_roundtrip_keeps_partitioner_and_backend(tmp_path):
    """Regression: snapshots used to drop ``partitioner`` and
    ``sdist_backend``, so a geometric index restored as a multilevel one
    and filed every stored backlog under a cell that no longer held its
    edge."""
    graph = grid_road_network(20, 20, seed=3)
    config = GGridConfig(delta_c=16, partitioner="geometric", sdist_backend="vectorized")
    index = GGridIndex(graph, config)
    rng = random.Random(5)
    for t in (1.0, 2.0):
        for obj in range(200):
            e = rng.randrange(graph.num_edges)
            index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), t))

    restored = load_index(save_index(index, tmp_path / "snap.json"))

    assert restored.config == index.config
    located = [
        (cell, m)
        for cell, mlist in restored.lists.items()
        for m in mlist.messages()
        if not m.is_removal  # a removal marker carries no edge
    ]
    assert located
    for cell, m in located:
        assert restored.grid.cell_of_edge(m.edge) == cell
    q = NetworkLocation(0, 0.0)
    want = [(e.obj, e.distance) for e in index.knn(q, 8, t_now=2.0).entries]
    assert [(e.obj, e.distance) for e in restored.knn(q, 8, t_now=2.0).entries] == want


def test_restore_preserves_chronology_with_reversed_ids(medium_graph, tmp_path):
    """Regression: ``load_index`` used to re-ingest the object table
    sorted by object id.  With ids descending while timestamps ascend,
    the replayed lists were anti-chronological, so ``Bucket.t`` (when it
    was last-message) claimed buckets holding fresh messages were stale
    and the first cleaning silently expired live objects."""
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=4, t_delta=10.0))
    for i in range(8):
        # object ids descend (8..1) while time ascends (1..8)
        index.ingest(Message(8 - i, 0, 0.1 * i, 1.0 + i))
    restored = load_index(save_index(index, tmp_path / "snap.json"))

    cell = restored.grid.cell_of_edge(0)
    times = [m.t for m in restored.lists[cell].messages()]
    assert times == sorted(times)  # chronological invariant survives

    # t_now=12: objects with t >= 2 are within contract; a clean must
    # keep them (the old replay dropped everything in "stale" buckets)
    restored.clean_cells({cell}, t_now=12.0)
    for obj in range(1, 8):  # t = 2..8, all live
        assert obj in restored.object_table
    answer = restored.knn(NetworkLocation(0, 0.0), k=7, t_now=12.0)
    assert sorted(answer.objects()) == list(range(1, 8))


def test_restore_preserves_pending_backlog(medium_graph, tmp_path):
    """The snapshot persists the compacted message state: backlogs (and
    removal markers) survive a save/load byte-for-byte, so recovery does
    not owe a re-cleaning of updates that were already cached."""
    index = _populated(medium_graph)
    index.ingest(Message(0, 1, 0.0, 2.0))  # cross-cell move: removal marker
    restored = load_index(save_index(index, tmp_path / "snap.json"))
    assert restored.pending_messages() == index.pending_messages()
    for cell, mlist in index.lists.items():
        got = restored.lists[cell].messages()
        want = mlist.messages()
        assert [(m.obj, m.edge, m.offset, m.t) for m in got] == [
            (m.obj, m.edge, m.offset, m.t) for m in want
        ]


def test_remove_object(medium_graph):
    index = _populated(medium_graph)
    index.remove_object(3, t=5.0)
    assert 3 not in index.object_table
    answer = index.knn(NetworkLocation(0, 0.0), k=25, t_now=5.0)
    assert 3 not in answer.objects()


def test_remove_unknown_object(medium_graph):
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=8))
    with pytest.raises(UnknownObjectError):
        index.remove_object(7, t=1.0)


def test_removed_object_can_reappear(medium_graph):
    index = _populated(medium_graph)
    index.remove_object(3, t=5.0)
    index.ingest(Message(3, 0, 0.1, 6.0))
    answer = index.knn(NetworkLocation(0, 0.05), k=1, t_now=6.0)
    assert answer.entries[0].obj == 3


def test_cleaning_expires_contract_violators(medium_graph):
    """An object silent past t_delta disappears from the object table
    when its cell is cleaned, keeping GPU and CPU views consistent."""
    index = GGridIndex(medium_graph, GGridConfig(eta=3, delta_b=4, t_delta=10.0))
    for i in range(4):  # fill a bucket so pruning is whole-bucket
        index.ingest(Message(1, 0, 0.1, 1.0 + 0.1 * i))
    index.ingest(Message(2, 0, 0.2, 95.0))
    cell = index.grid.cell_of_edge(0)
    result = index.clean_cells({cell}, t_now=100.0)
    assert result.objects_expired == 1
    assert 1 not in index.object_table
    assert 2 in index.object_table
