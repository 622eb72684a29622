"""The three benchmark workloads.

Every workload drives the program through its public API at 1/8-NY
scale with the paper-scale index configuration.  One client runs in a
closed loop: the next request is sent only after the previous one
returned.  Inputs come from the seed alone and are generated before the
clock of the round that uses them starts; only the calls into the
program are timed.

* ``fleet_tick`` -- the paper's lazy-update regime: a whole fleet
  reports once per tick, then sequential kNN queries clean the fresh
  backlog.
* ``dispatch_burst`` -- no updates while timed; batched queries with k
  cycling through 1, 16 and 64, so SDist, First-k, refine and batch
  dedup carry the cost instead of ingest.
* ``durable_cluster`` -- the serving stack: front door, 4-shard router
  with per-shard WAL and standby replicas, and the index below.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from repro.cluster.router import ShardRouter
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.knn import KnnAnswer
from repro.core.messages import Message
from repro.errors import ShedError
from repro.mobility.moto import MotoGenerator
from repro.mobility.workload import Query
from repro.obs.slo import CLASS_PAID
from repro.roadnet import datasets
from repro.roadnet.datasets import load_dataset
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.serve.frontdoor import FrontDoor
from repro.serve.tenancy import TenantPolicy
from repro.server.batching import BatchPolicy
from repro.server.metrics import ReplayReport
from repro.server.server import QueryServer

from perfbench.oracle import exact_knn, same_answer

DATASET = "NY"

#: the repo's paper-scale configuration (``scale_datapath``); the
#: default multilevel partitioner takes ~26 s to build at this size
CONFIG = GGridConfig(delta_c=64, partitioner="geometric", sdist_backend="vectorized")

K_TICK = 16
K_CYCLE = (1, 16, 64)
BATCH = 16
CLUSTER_SHARDS = 4
CLUSTER_EPOCH = 8
TENANT = "fleet"


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run.

    ``*_counted`` is the number of timed rounds every run completes; the
    counts and modelled figures are taken over exactly those rounds, so
    they repeat exactly for a seed however fast the machine is.  Wall
    figures use every round run within ``--seconds``.
    """

    dataset_scale: float = 1.0 / 8.0
    fleet: int = 30_000
    cluster_fleet: int = 10_000
    tick_queries: int = 100
    burst_epochs: int = 6
    cluster_burst: int = 16
    fleet_counted: int = 3
    burst_counted: int = 12
    cluster_counted: int = 10
    setups: int = 3
    oracle_checks: int = 6


PAPER = Scale()


@dataclass
class Tally:
    """What the timed rounds did and how long the program took."""

    update_wall: float = 0.0
    query_wall: float = 0.0
    updates: int = 0
    queries: int = 0
    failed: int = 0
    shed: int = 0
    oracle_checked: int = 0
    oracle_mismatches: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    #: tracebacks of the first few failed operations
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int = 1) -> None:
        """Count ``count`` operations failed by the exception in flight."""
        self.failed += count
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc())

    @property
    def wall(self) -> float:
        return self.update_wall + self.query_wall

    @property
    def attempted(self) -> int:
        return self.updates + self.queries


def random_location(rng: random.Random, graph: RoadNetwork) -> NetworkLocation:
    edge = rng.randrange(graph.num_edges)
    return NetworkLocation(edge, rng.random() * graph.edge(edge).weight * 0.99)


def cold_network(scale: Scale) -> RoadNetwork:
    """Generate the road network, bypassing ``load_dataset``'s cache."""
    cache = getattr(datasets, "_load_cached", None)
    if cache is not None:
        cache.cache_clear()
    return load_dataset(DATASET, scale=scale.dataset_scale)


class Ticks:
    """A fleet's messages cut into ticks of one modelled second."""

    def __init__(self, gen: MotoGenerator) -> None:
        self._messages: Iterator[Message] = gen.messages(duration=math.inf)
        self._carry: Message | None = None
        self.tick = 0

    def next_tick(self) -> list[Message]:
        self.tick += 1
        out = [self._carry] if self._carry is not None else []
        self._carry = None
        for message in self._messages:
            if message.t > self.tick:
                self._carry = message
                break
            out.append(message)
        return out


class Workload:
    """Common state: inputs from the seed, the oracle's view of the
    fleet, and the counters a run reads before and after its rounds."""

    name = ""
    fleet_attr = "fleet"
    counted_attr = ""

    def __init__(self, scale: Scale, seed: int, out_dir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None
        self.graph = load_dataset(DATASET, scale=scale.dataset_scale)
        fleet = getattr(scale, self.fleet_attr)
        self.gen = MotoGenerator(self.graph, fleet, seed=seed)
        self.placements = self.gen.initial_placements()
        self.ticks = Ticks(self.gen)
        self.query_rng = random.Random(seed * 7919 + 1)
        #: latest location the benchmark sent, per object: the oracle's fleet
        self.sent: dict[int, tuple[int, float]] = {
            obj: (loc.edge_id, loc.offset) for obj, loc in self.placements.items()
        }
        self.counted_rounds = getattr(scale, self.counted_attr)
        self.queries_per_round = self.round_queries(scale)
        window = self.counted_rounds * self.queries_per_round
        self.oracle_sample = set(
            random.Random(seed * 7919 + 2).sample(
                range(window), min(scale.oracle_checks, window)
            )
        )
        #: timed queries issued so far (warm-up excluded); indexes the sample
        self.query_seq = -1
        self.answer_counts: dict[str, float] = {}
        self.clean_counts: dict[str, float] = {
            "clean_calls": 0,
            "clean_cells": 0,
            "clean_messages": 0,
            "clean_survivors": 0,
        }
        #: the initial fleet load, one message per object at t = 0
        self.load_messages = [
            Message(obj, loc.edge_id, loc.offset, 0.0)
            for obj, loc in self.placements.items()
        ]

    @staticmethod
    def round_queries(scale: Scale) -> int:
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------
    def build(self) -> None:
        """Generate the network and build the index or cluster."""
        raise NotImplementedError

    def load(self) -> None:
        """Send the initial fleet load through the serving entry point."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def warm_up(self) -> None:
        self.round(Tally(), warm=True)

    def round(self, tally: Tally, warm: bool = False) -> None:
        raise NotImplementedError

    def environment(self) -> dict[str, Any]:
        return {}

    # -- bookkeeping ----------------------------------------------------
    def _request(self) -> None:
        if self.tracer is not None:
            self.tracer.request += 1

    def _record_sent(self, messages: list[Message]) -> None:
        sent = self.sent
        for m in messages:
            sent[m.obj] = (m.edge, m.offset)

    def _answered(
        self, tally: Tally, query: Query, answer: KnnAnswer | None, warm: bool
    ) -> None:
        """Count one answer; compare it with the oracle when sampled."""
        if warm:
            return
        self.query_seq += 1
        if answer is None:
            return
        counts = self.answer_counts
        for key, value in (
            ("answers", 1),
            ("cells_requested", answer.cells_cleaned),
            ("unresolved", answer.unresolved),
            ("refine_settled", answer.refine_settled),
            ("fallbacks", int(answer.used_fallback)),
            ("select_s", answer.cpu_seconds.get("select", 0.0)),
        ):
            counts[key] = counts.get(key, 0) + value
        for phase, seconds in answer.gpu_phase_s.items():
            key = f"gpu_{phase}_s"
            counts[key] = counts.get(key, 0.0) + seconds
        if self.query_seq in self.oracle_sample:
            self.check(tally, query, answer)

    def check(self, tally: Tally, query: Query, answer: KnnAnswer) -> None:
        objects = {
            obj: NetworkLocation(edge, offset)
            for obj, (edge, offset) in self.sent.items()
        }
        want = exact_knn(self.graph, objects, query.location, query.k)
        got = [(e.obj, e.distance) for e in answer.entries]
        tally.oracle_checked += 1
        if not same_answer(got, want):
            tally.oracle_mismatches += 1
            tally.failed += 1
            if len(tally.errors) < 3:
                tally.errors.append(
                    f"oracle mismatch for {query}: got {got}, expected {want}"
                )

    def observe_cleaning(self, result: Any) -> None:
        counts = self.clean_counts
        counts["clean_calls"] += 1
        counts["clean_cells"] += len(result.cells)
        counts["clean_messages"] += result.messages_processed
        counts["clean_survivors"] += sum(len(o) for o in result.occupants.values())

    def indexes(self) -> list[GGridIndex]:
        raise NotImplementedError

    def report(self) -> ReplayReport:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cumulative deterministic counters (diffed around the window)."""
        out: dict[str, float] = dict(self.answer_counts)
        out.update(self.clean_counts)
        out.pop("select_s", None)
        for key in (
            "gpu_s",
            "gpu_bytes",
            "gpu_launches",
            "touches",
            "ingested",
            "backpressure",
        ):
            out[key] = 0
        for index in self.indexes():
            stats = index.stats
            out["gpu_s"] += stats.gpu_time_s
            out["gpu_bytes"] += stats.total_bytes
            out["gpu_launches"] += stats.kernel_launches
            out["touches"] += index.update_touches
            out["ingested"] += index.messages_ingested
            out["backpressure"] += index.backpressure_cleanings
        report = self.report()
        out["records"] = len(report.query_records)
        out["fanout"] = sum(r.fanout for r in report.query_records)
        out["migrations"] = report.shard_migrations
        out["wal_bytes"] = out["wal_records"] = out["fsyncs"] = 0
        return out


class FleetTick(Workload):
    """30k objects at f = 1 through a ``QueryServer``: each tick applies
    the whole fleet's updates, then issues sequential kNN queries."""

    name = "fleet_tick"
    counted_attr = "fleet_counted"

    @staticmethod
    def round_queries(scale: Scale) -> int:
        return scale.tick_queries

    def _server(self, index: GGridIndex) -> QueryServer:
        return QueryServer(index)

    def build(self) -> None:
        graph = cold_network(self.scale)
        self.index = GGridIndex(graph, CONFIG)
        self.server = self._server(self.index)
        self._report = ReplayReport(index_name=self.index.name)

    def load(self) -> None:
        update, report = self.server.update, self._report
        for m in self.load_messages:
            update(m, report)

    def indexes(self) -> list[GGridIndex]:
        return [self.index]

    def report(self) -> ReplayReport:
        return self._report

    def round(self, tally: Tally, warm: bool = False) -> None:
        messages = self.ticks.next_tick()
        t_now = float(self.ticks.tick)
        rng, graph = self.query_rng, self.graph
        queries = [
            Query(t_now, random_location(rng, graph), K_TICK)
            for _ in range(self.scale.tick_queries)
        ]
        update, query, report = self.server.update, self.server.query, self._report
        t0 = perf_counter()
        for m in messages:
            self._request()
            try:
                update(m, report)
            except Exception:
                tally.fail()
        tally.update_wall += perf_counter() - t0
        tally.updates += len(messages)
        self._record_sent(messages)
        for q in queries:
            self._request()
            t0 = perf_counter()
            try:
                answer = query(q, report)
            except Exception:
                answer = None
                tally.fail()
            wall = perf_counter() - t0
            tally.query_wall += wall
            tally.queries += 1
            tally.latencies_ms.append(wall * 1e3)
            self._answered(tally, q, answer, warm)


class DispatchBurst(FleetTick):
    """The same fleet, frozen: epochs of 16 batched queries, k cycling
    through 1, 16 and 64."""

    name = "dispatch_burst"
    counted_attr = "burst_counted"

    def __init__(self, scale: Scale, seed: int, out_dir: Path) -> None:
        super().__init__(scale, seed, out_dir)
        self.k_seq = 0

    @staticmethod
    def round_queries(scale: Scale) -> int:
        return scale.burst_epochs * BATCH

    def _server(self, index: GGridIndex) -> QueryServer:
        return QueryServer(index, batch=BatchPolicy(BATCH))

    def warm_up(self) -> None:
        # a maintenance pass compacts every cell's load-time backlog, so
        # the timed epochs see the steady state: compacted snapshots
        self.index.clean_cells(set(range(self.index.grid.num_cells)), t_now=0.0)
        super().warm_up()

    def round(self, tally: Tally, warm: bool = False) -> None:
        rng, graph = self.query_rng, self.graph
        epochs = []
        for _ in range(self.scale.burst_epochs):
            epoch = []
            for _ in range(BATCH):
                epoch.append(
                    Query(0.0, random_location(rng, graph), K_CYCLE[self.k_seq % 3])
                )
                self.k_seq += 1
            epochs.append(epoch)
        batch, report = self.server.query_batch, self._report
        for epoch in epochs:
            self._request()
            t0 = perf_counter()
            try:
                answers = batch(epoch, report)
            except Exception:
                answers = [None] * len(epoch)
                tally.fail(len(epoch))
            wall = perf_counter() - t0
            tally.query_wall += wall
            tally.queries += len(epoch)
            tally.latencies_ms.extend([wall * 1e3] * len(epoch))
            for q, answer in zip(epoch, answers):
                self._answered(tally, q, answer, warm)


class DurableCluster(Workload):
    """``FrontDoor`` -> 4-shard ``ShardRouter`` (per-shard WAL, standby
    replicas) -> ``GGridIndex``: a tick of updates through the front
    door, then a burst of queries admitted in epochs of 8."""

    name = "durable_cluster"
    fleet_attr = "cluster_fleet"
    counted_attr = "cluster_counted"

    def __init__(self, scale: Scale, seed: int, out_dir: Path) -> None:
        super().__init__(scale, seed, out_dir)
        self.router: ShardRouter | None = None
        self._builds = 0

    @staticmethod
    def round_queries(scale: Scale) -> int:
        return scale.cluster_burst

    def build(self) -> None:
        self._builds += 1
        self.wal_dir = self.out_dir / f"wal-{os.getpid()}-{self._builds}"
        graph = cold_network(self.scale)
        self.router = ShardRouter(
            graph, CONFIG, num_shards=CLUSTER_SHARDS, directory=self.wal_dir
        )
        burst = self.scale.cluster_burst
        # one paid tenant whose quota is far above the offered load
        tenant = TenantPolicy(
            TENANT, CLASS_PAID, rate=64.0 * burst, burst=4.0 * burst, deadline_s=2.0
        )
        self.door = FrontDoor(self.router, [tenant], batch_size=CLUSTER_EPOCH)

    def load(self) -> None:
        update = self.door.update
        for m in self.load_messages:
            update(m)

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            self.router = None

    def indexes(self) -> list[GGridIndex]:
        out = []
        for shard in self.router.shards.values():
            out.append(shard.index)
            if shard.replica is not None:
                out.append(shard.replica.index)
        return out

    def report(self) -> ReplayReport:
        return self.door.backend_report

    def counters(self) -> dict[str, float]:
        out = super().counters()
        for shard in self.router.shards.values():
            wal = shard.manager.wal
            out["wal_bytes"] += wal.bytes_appended
            out["wal_records"] += wal.records_appended
            out["fsyncs"] += wal.fsyncs
        return out

    def environment(self) -> dict[str, Any]:
        wal = next(iter(self.router.shards.values())).manager.wal
        return {
            "overload_max_level": self.door.max_level,
            "wal_dir": str(self.wal_dir),
            "wal_fs": filesystem_type(self.wal_dir),
            "wal_fsync_every": wal.fsync_every,
        }

    def round(self, tally: Tally, warm: bool = False) -> None:
        messages = self.ticks.next_tick()
        t_now = float(self.ticks.tick)
        rng, graph = self.query_rng, self.graph
        # each epoch's queries arrive together, epochs spread over the
        # tick, so one epoch's modelled service never queues the next
        epochs = max(1, self.scale.cluster_burst // CLUSTER_EPOCH)
        queries = [
            Query(
                t_now + (i // CLUSTER_EPOCH) / epochs,
                random_location(rng, graph),
                K_TICK,
            )
            for i in range(self.scale.cluster_burst)
        ]
        door = self.door
        update = door.update
        t0 = perf_counter()
        for m in messages:
            self._request()
            try:
                update(m)
            except Exception:
                tally.fail()
        tally.update_wall += perf_counter() - t0
        tally.updates += len(messages)
        self._record_sent(messages)

        pending: list[tuple[Query, Any]] = []
        epoch_wall = 0.0
        for q in queries:
            self._request()
            t0 = perf_counter()
            try:
                ticket = door.submit_nowait(TENANT, q)
            except ShedError:
                ticket = None
                tally.shed += 1
                tally.fail()
            except Exception:
                ticket = None
                tally.fail()
            epoch_wall += perf_counter() - t0
            tally.queries += 1
            if ticket is None:
                self._answered(tally, q, None, warm)
                continue
            pending.append((q, ticket))
            if ticket.done:  # this admission filled and flushed an epoch
                self._close_epoch(tally, pending, epoch_wall, warm)
                pending, epoch_wall = [], 0.0
        self._request()
        t0 = perf_counter()
        door.flush()
        epoch_wall += perf_counter() - t0
        if pending:
            self._close_epoch(tally, pending, epoch_wall, warm)
        else:
            tally.query_wall += epoch_wall

    def _close_epoch(
        self, tally: Tally, members: list[tuple[Query, Any]], wall: float, warm: bool
    ) -> None:
        tally.query_wall += wall
        tally.latencies_ms.extend([wall * 1e3] * len(members))
        for q, ticket in members:
            try:
                answer = ticket.result()
            except ShedError:
                answer = None
                tally.shed += 1
                tally.fail()
            self._answered(tally, q, answer, warm)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FleetTick, DispatchBurst, DurableCluster)
}


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind
