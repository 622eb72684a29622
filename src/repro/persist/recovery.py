"""Crash recovery: newest valid snapshot + WAL replay past its watermark.

:func:`recover` rebuilds a queryable :class:`~repro.core.ggrid.GGridIndex`
from a durability directory (see
:class:`~repro.persist.manager.DurabilityManager` for the layout):

1. read the WAL — every complete, CRC-valid record up to the first torn
   frame is the *surviving prefix*;
2. pick the newest snapshot whose CRC validates and whose watermark does
   not exceed the surviving prefix's last LSN (a snapshot ahead of the
   log would resurrect updates the durable history lost);
3. restore the index from the snapshot body (or build a fresh one from
   the caller-provided graph/config when no snapshot qualifies) and
   replay the WAL records after the watermark.

The contract — proven by the conformance suite in ``tests/persist`` —
is that for any byte-level truncation of the log, the recovered index
answers kNN and range queries byte-identically to a fresh index fed the
same surviving prefix of updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.errors import PersistenceError, ReproError
from repro.obs.hub import Observability, default_observability
from repro.obs.metrics import log_scale_buckets
from repro.persist.snapshot import SnapshotStore, index_from_state
from repro.persist.wal import OP_INGEST, OP_REMOVE, read_wal
from repro.roadnet.graph import RoadNetwork

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"


@dataclass
class RecoveryReport:
    """What one :func:`recover` call found and did."""

    snapshot_path: Path | None = None
    snapshot_watermark: int = 0
    snapshots_rejected: int = 0
    wal_records_seen: int = 0
    records_replayed: int = 0
    records_skipped: int = 0  # lsn <= watermark: already in the snapshot
    records_failed: int = 0  # replay raised (counted, not fatal)
    torn_tail: bool = False
    last_lsn: int = 0
    duration_s: float = 0.0
    failures: list[str] = field(default_factory=list)


def recover(
    directory: str | Path,
    graph: RoadNetwork | None = None,
    config: GGridConfig | None = None,
    obs: Observability | None = None,
) -> tuple[GGridIndex, RecoveryReport]:
    """Rebuild an index from a durability directory.

    Args:
        directory: the :class:`DurabilityManager` root (``wal/`` +
            ``snapshots/`` subdirectories).
        graph: road network used when no usable snapshot exists (the
            WAL does not persist the graph); required in that case.
        config: index configuration for the no-snapshot path.
        obs: observability bundle; defaults to the process-wide one.
            Publishes ``repro_recovery_replayed_total``, the
            ``repro_recovery_seconds`` histogram and a ``recovery``
            span when a tracer is active.

    Raises:
        PersistenceError: nothing to recover from — no usable snapshot
            and no ``graph`` to build a fresh index with.
    """
    directory = Path(directory)
    obs = obs if obs is not None else default_observability()
    registry = obs.registry if obs is not None else None
    tracer = obs.tracer if obs is not None else None
    report = RecoveryReport()
    started = time.perf_counter()

    def _run() -> GGridIndex:
        wal = read_wal(directory / WAL_SUBDIR)
        report.wal_records_seen = len(wal.records)
        report.torn_tail = wal.torn
        report.last_lsn = wal.last_lsn
        store = SnapshotStore(directory / SNAPSHOT_SUBDIR)
        snapshot, rejected = store.newest_valid(max_watermark=wal.last_lsn)
        report.snapshots_rejected = rejected
        if snapshot is not None:
            report.snapshot_path = snapshot.path
            report.snapshot_watermark = snapshot.watermark
            index = index_from_state(snapshot.body)
        elif graph is not None:
            index = GGridIndex(graph, config)
        else:
            raise PersistenceError(
                f"cannot recover from {directory}: no usable snapshot and "
                f"no graph provided to build a fresh index"
            )
        watermark = report.snapshot_watermark
        for record in wal.records:
            if record.lsn <= watermark:
                report.records_skipped += 1
                continue
            try:
                if record.op == OP_INGEST:
                    index.ingest(record.to_message())
                elif record.op == OP_REMOVE:
                    index.remove_object(record.obj, record.t)
                else:
                    raise PersistenceError(
                        f"unknown WAL op {record.op!r} at lsn={record.lsn}"
                    )
            except ReproError as exc:
                # a record the live index also rejected (e.g. capacity
                # pressure under a chaos cap): count it and keep going —
                # losing the rest of the log over it would be worse
                report.records_failed += 1
                report.failures.append(f"lsn={record.lsn}: {exc}")
                continue
            report.records_replayed += 1
        return index

    if tracer is not None:
        with tracer.activate(), tracer.span("recovery") as sp:
            index = _run()
            sp.set_attr("records_replayed", report.records_replayed)
            sp.set_attr("snapshot_watermark", report.snapshot_watermark)
            sp.set_attr("torn_tail", report.torn_tail)
    else:
        index = _run()
    report.duration_s = time.perf_counter() - started
    if registry is not None:
        registry.counter(
            "repro_recovery_replayed_total",
            help="WAL records replayed by recovery runs.",
        ).default().inc(report.records_replayed)
        registry.counter(
            "repro_recoveries_total",
            help="Recovery runs completed.",
        ).default().inc()
        registry.histogram(
            "repro_recovery_seconds",
            help="Wall-clock duration of recovery runs.",
            buckets=log_scale_buckets(1e-4, 100.0, 4),
        ).default().observe(report.duration_s)
        if report.torn_tail:
            registry.counter(
                "repro_recovery_torn_tails_total",
                help="Recoveries that found a torn WAL tail.",
            ).default().inc()
        if report.records_failed:
            registry.warn(
                "recovery",
                f"{report.records_failed} WAL records failed to replay "
                f"(first: {report.failures[0]})",
            )
    return index, report
