"""Saving and restoring index state (compacted snapshots).

A query server restarting should not have to re-solicit every object's
location, so the library supports snapshotting a
:class:`~repro.core.ggrid.GGridIndex` to a single JSON file — the road
network (vertices with coordinates, edges with weights), the
configuration, the latest known object locations *and* the per-cell
cached message backlogs — and restoring an equivalent index from it.

Version 2 restores state directly instead of re-ingesting object-table
rows: the object table is rebuilt entry by entry and each cell's message
list is rebuilt in its stored (chronological) order.  The v1 restore
path replayed objects sorted by *id*, which interleaved timestamps
inside restored buckets; a bucket could then be mis-pruned as wholly
stale and a post-restore cleaning silently dropped fresh locations.
Persisting the backlogs also means a restored index re-cleans to exactly
the state the saved index would have reached — the property the
crash-recovery conformance suite (``tests/persist``) checks byte for
byte.

Example:
    >>> import tempfile, os
    >>> from repro import GGridIndex, Message
    >>> from repro.roadnet import grid_road_network
    >>> index = GGridIndex(grid_road_network(5, 5, seed=1))
    >>> index.ingest(Message(1, 0, 0.25, 3.0))
    >>> path = os.path.join(tempfile.mkdtemp(), "snap.json")
    >>> _ = save_index(index, path)
    >>> restored = load_index(path)
    >>> restored.object_table.get(1).offset
    0.25
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.core.object_table import ObjectEntry
from repro.errors import ReproError
from repro.roadnet.graph import RoadNetwork

#: bumped on breaking snapshot-layout changes (2: per-cell backlogs and
#: direct object-table restore instead of id-ordered re-ingest)
SNAPSHOT_VERSION = 2

#: GGridConfig fields persisted: every one except the GPU cost model,
#: which is environment, not state
_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(GGridConfig) if f.name != "gpu"
)


def index_state(index: GGridIndex) -> dict[str, Any]:
    """The complete persistable state of ``index`` as a JSON-able dict.

    This is the body :func:`save_index` writes and
    :class:`repro.persist.snapshot.SnapshotStore` wraps with a CRC; the
    message lists are stored *in list order* (chronological per cell),
    including removal markers, so a restore reproduces the exact cached
    state rather than a lossy object-table projection.
    """
    graph = index.graph
    return {
        "version": SNAPSHOT_VERSION,
        "graph": {
            "vertices": [[v.x, v.y] for v in graph.vertices()],
            "edges": [[e.source, e.dest, e.weight] for e in graph.edges()],
        },
        "config": {
            name: getattr(index.config, name) for name in _CONFIG_FIELDS
        },
        "objects": [
            [obj, entry.edge, entry.offset, entry.t]
            for obj, entry in sorted(index.object_table.objects().items())
        ],
        "lists": [
            [
                cell,
                [[m.obj, m.edge, m.offset, m.t] for m in mlist.messages()],
            ]
            for cell, mlist in sorted(index.lists.items())
            if mlist.num_messages
        ],
        "latest_time": index.latest_time,
        "messages_ingested": index.messages_ingested,
    }


def index_from_state(state: dict[str, Any]) -> GGridIndex:
    """Rebuild a :class:`GGridIndex` from an :func:`index_state` dict.

    Raises:
        ReproError: on version mismatch or malformed state.
    """
    if state.get("version") != SNAPSHOT_VERSION:
        raise ReproError(
            f"snapshot version {state.get('version')!r} is not "
            f"{SNAPSHOT_VERSION}"
        )
    try:
        graph = RoadNetwork()
        for x, y in state["graph"]["vertices"]:
            graph.add_vertex(x, y)
        for source, dest, weight in state["graph"]["edges"]:
            graph.add_edge(source, dest, weight)
        config = GGridConfig(**state["config"])
        index = GGridIndex(graph, config)
        # restore the object table directly — never by re-ingesting,
        # which would re-derive removal markers and reorder timestamps
        for obj, edge, offset, t in state["objects"]:
            cell = index.grid.cell_of_edge(edge)
            index.object_table.put(obj, ObjectEntry(cell, edge, offset, t))
        # rebuild each cell's backlog in its stored order
        for cell, messages in state.get("lists", ()):
            mlist = index._list_of(cell)
            for obj, edge, offset, t in messages:
                mlist.append(Message(obj, edge, offset, t))
        index.latest_time = max(index.latest_time, state["latest_time"])
        index.messages_ingested = int(state.get("messages_ingested", 0))
        return index
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed snapshot state: {exc}") from exc


def save_index(index: GGridIndex, path: str | Path) -> Path:
    """Snapshot ``index`` (graph + config + objects + backlogs) to JSON."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(index_state(index), fh)
    return path


def load_index(path: str | Path) -> GGridIndex:
    """Restore a :class:`GGridIndex` from a :func:`save_index` snapshot.

    Raises:
        ReproError: on version mismatch or malformed snapshots.
    """
    with open(path, encoding="utf-8") as fh:
        snapshot = json.load(fh)
    try:
        return index_from_state(snapshot)
    except ReproError as exc:
        raise ReproError(f"{exc} (file: {path})") from exc

