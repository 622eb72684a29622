"""Versioned, CRC-wrapped compacted snapshots with a WAL watermark.

A snapshot is the full :func:`index_state` body — the graph, config,
object table *and* the per-cell compacted message backlogs — wrapped in
an envelope carrying a CRC over the canonical body serialization and the
WAL watermark (the LSN of the last record the snapshot reflects).
Recovery loads the newest snapshot whose CRC validates *and* whose
watermark does not run ahead of the surviving WAL: a crash can lose
un-synced WAL tail bytes, and a snapshot that reflects records the log
no longer holds would resurrect updates the durable history says never
happened.

:func:`save_index` / :func:`load_index` are the single-file form: one
envelope at watermark 0 through the same writer and validator, so every
malformed or tampered file fails with
:class:`~repro.errors.PersistenceError`.  Restores rebuild the object
table and each cell's backlog in stored (chronological) order, never by
re-ingesting: the v1 id-ordered replay interleaved timestamps inside
buckets, and a post-restore cleaning then dropped fresh locations.

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
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.core.object_table import ObjectEntry
from repro.errors import PersistenceError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.roadnet.graph import RoadNetwork

#: bumped on breaking body-layout changes (2: per-cell backlogs and
#: direct object-table restore instead of id-ordered re-ingest)
SNAPSHOT_VERSION = 2

#: GGridConfig fields persisted: every one except the GPU cost model,
#: which is environment, not state
_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(GGridConfig) if f.name != "gpu"
)

_SNAPSHOT_GLOB = "snapshot-*.json"


def index_state(index: GGridIndex) -> dict[str, Any]:
    """The complete persistable state of ``index`` as a JSON-able dict.

    This is the body every snapshot envelope wraps; the message lists
    are stored *in list order* (chronological per cell), including
    removal markers, so a restore reproduces the exact cached state
    rather than a lossy object-table projection.
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
        PersistenceError: on version mismatch or malformed state — among
            them config keys outside the persisted fields, backlog cells
            outside the grid and location messages filed under a cell
            that does not hold their edge.
    """
    if state.get("version") != SNAPSHOT_VERSION:
        raise PersistenceError(
            f"snapshot version {state.get('version')!r} is not "
            f"{SNAPSHOT_VERSION}"
        )
    try:
        unknown = set(state["config"]).difference(_CONFIG_FIELDS)
        if unknown:
            raise PersistenceError(f"unknown config keys {sorted(unknown)}")
        graph = RoadNetwork()
        for x, y in state["graph"]["vertices"]:
            graph.add_vertex(x, y)
        for source, dest, weight in state["graph"]["edges"]:
            graph.add_edge(source, dest, weight)
        index = GGridIndex(graph, GGridConfig(**state["config"]))
        grid = index.grid
        # restore the object table directly — never by re-ingesting,
        # which would re-derive removal markers and reorder timestamps
        for obj, edge, offset, t in state["objects"]:
            cell = grid.cell_of_edge(edge)
            index.object_table.put(obj, ObjectEntry(cell, edge, offset, t))
        # rebuild each cell's backlog in its stored order
        for cell, messages in state.get("lists", ()):
            if cell not in range(grid.num_cells):
                raise PersistenceError(f"backlog cell {cell!r} is outside the grid")
            mlist = index._list_of(cell)
            for obj, edge, offset, t in messages:
                if edge is not None and grid.cell_of_edge(edge) != cell:
                    raise PersistenceError(
                        f"object {obj!r}'s message on edge {edge!r} is "
                        f"filed under cell {cell}, which does not hold it"
                    )
                mlist.append(Message(obj, edge, offset, t))
        index.latest_time = max(index.latest_time, state["latest_time"])
        index.messages_ingested = int(state.get("messages_ingested", 0))
        return index
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise PersistenceError(f"malformed snapshot state: {exc}") from exc


def _canonical(body: dict[str, Any]) -> bytes:
    """The byte string the envelope CRC covers (stable across round trips)."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_envelope(path: Path, body: dict[str, Any], watermark: int) -> None:
    """Write ``body`` wrapped in its CRC envelope, atomically.

    The envelope goes to a temporary file first and is renamed into
    place, so a crash mid-write leaves either the old file (or none) or
    the complete new one — never a half-written snapshot.
    """
    envelope = {
        "crc": zlib.crc32(_canonical(body)),
        "watermark": int(watermark),
        "body": body,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)
    tmp.replace(path)


def _read_envelope(path: Path) -> tuple[dict[str, Any], int]:
    """Validate one envelope file and return its ``(body, watermark)``.

    Raises:
        PersistenceError: unreadable, malformed, CRC-mismatched or
            wrong-version snapshots.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            envelope = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise PersistenceError(f"unreadable snapshot {path}: {exc}") from exc
    try:
        crc = int(envelope["crc"])
        watermark = int(envelope["watermark"])
        body = envelope["body"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistenceError(f"malformed snapshot envelope {path}") from exc
    if not isinstance(body, dict):
        raise PersistenceError(f"malformed snapshot envelope {path}")
    if zlib.crc32(_canonical(body)) != crc:
        raise PersistenceError(f"snapshot {path} failed its CRC check")
    if body.get("version") != SNAPSHOT_VERSION:
        raise PersistenceError(
            f"snapshot {path} has version {body.get('version')!r}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    return body, watermark


def save_index(index: GGridIndex, path: str | Path) -> Path:
    """Snapshot ``index`` (graph + config + objects + backlogs) to one file.

    The file is the envelope :class:`SnapshotStore` writes, at
    watermark 0, so :meth:`SnapshotStore.load` reads it too.
    """
    path = Path(path)
    _write_envelope(path, index_state(index), 0)
    return path


def load_index(path: str | Path) -> GGridIndex:
    """Restore a :class:`GGridIndex` from a :func:`save_index` snapshot.

    Raises:
        PersistenceError: on unreadable, tampered, wrong-version or
            malformed snapshots.
    """
    body, _ = _read_envelope(Path(path))
    try:
        return index_from_state(body)
    except PersistenceError as exc:
        raise PersistenceError(f"{exc} (file: {path})") from exc


@dataclass(frozen=True, slots=True)
class LoadedSnapshot:
    """One validated snapshot: its state body, watermark and origin."""

    body: dict[str, Any]
    watermark: int
    path: Path


class SnapshotStore:
    """Writes and selects compacted snapshots in one directory.

    Args:
        directory: snapshot directory (created if missing).
        keep: retained snapshot files; older ones are pruned after a
            successful write (several are kept so a corrupt newest file
            degrades recovery to an older snapshot plus more WAL replay,
            never to data loss).
        registry: optional metrics registry; publishes
            ``repro_snapshots_total`` and ``repro_snapshot_bytes_total``.
    """

    def __init__(
        self,
        directory: str | Path,
        keep: int = 3,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if keep < 1:
            raise PersistenceError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.snapshots_written = 0
        self._snapshots = None
        self._bytes = None
        if registry is not None:
            self._snapshots = registry.counter(
                "repro_snapshots_total",
                help="Compacted snapshots written.",
            ).default()
            self._bytes = registry.counter(
                "repro_snapshot_bytes_total",
                help="Bytes written as compacted snapshots.",
            ).default()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def write(self, index: GGridIndex, watermark: int) -> Path:
        """Persist ``index`` as the snapshot covering WAL LSNs <= watermark.

        The write is atomic (see :func:`_write_envelope`): a crash
        mid-write never leaves a half-written newest snapshot that
        shadows a good older one.
        """
        path = self.directory / f"snapshot-{int(watermark):012d}.json"
        _write_envelope(path, index_state(index), watermark)
        self.snapshots_written += 1
        if self._snapshots is not None:
            self._snapshots.inc()
            self._bytes.inc(path.stat().st_size)
        self._prune()
        return path

    def _prune(self) -> None:
        files = self.paths()
        for stale in files[: max(0, len(files) - self.keep)]:
            stale.unlink()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def paths(self) -> list[Path]:
        """Snapshot files, oldest watermark first."""
        return sorted(self.directory.glob(_SNAPSHOT_GLOB))

    def load(self, path: Path) -> LoadedSnapshot:
        """Validate and load one snapshot file.

        Raises:
            PersistenceError: unreadable, malformed, CRC-mismatched or
                wrong-version snapshots.
        """
        body, watermark = _read_envelope(path)
        return LoadedSnapshot(body, watermark, path)

    def newest_valid(
        self, max_watermark: int | None = None
    ) -> tuple[LoadedSnapshot | None, int]:
        """The newest loadable snapshot (and how many were rejected).

        Args:
            max_watermark: when given, snapshots whose watermark exceeds
                it are skipped — they reflect WAL records the surviving
                log no longer contains (see the module docstring).
        """
        rejected = 0
        for path in reversed(self.paths()):
            try:
                snapshot = self.load(path)
            except ReproError:
                rejected += 1
                continue
            if max_watermark is not None and snapshot.watermark > max_watermark:
                rejected += 1
                continue
            return snapshot, rejected
        return None, rejected
