"""One benchmark run: set-up, warm-up, timed rounds, metrics.

Untraced (``trace=False``) runs produce the end-to-end metrics.  Traced
runs install the span wrappers of :mod:`perfbench.tracer`, produce the
per-layer metrics from a traced timed loop, and then time the same
number of seconds again with the wrappers removed, so the difference is
the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

import numpy as np

from perfbench.hostspeed import HostSpeed
from perfbench.tracer import Installed, Tracer, layer_of
from perfbench.workloads import PAPER, WORKLOADS, Scale, Tally, Workload

#: wall times of layers some workloads never reach: printed by every
#: traced run but kept out of the result line, where they would read
#: exactly 0 on every run of those workloads
PRINTED_ONLY = frozenset({
    "batch.epoch_ms",
    "router.update_self_us",
    "router.query_self_ms",
    "wal.append_us",
    "replica.ship_us_per_update",
    "frontdoor.submit_us",
    "frontdoor.flush_self_ms",
})

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: samples a tail percentile must leave above it
TAIL_BEYOND = 10


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile leaving ``TAIL_BEYOND`` of
    ``samples`` above it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p
    return 50.0


class Round(NamedTuple):
    """One timed round: program wall, work done, and the host factor
    measured around it."""

    update_wall: float
    query_wall: float
    updates: int
    queries: int
    #: host factor, the mean of the probes before and after the round
    factor: float
    #: this round's slice of ``Tally.latencies_ms``
    first_latency: int
    end_latency: int


@dataclass
class Loop:
    """The outcome of one timed loop."""

    tally: Tally
    rounds: list[Round]
    window: dict[str, float]
    #: select-phase wall the program itself measured (``KnnAnswer.cpu_seconds``)
    select_s: float = 0.0
    spans: dict[str, dict[str, float]] = field(default_factory=dict)

    def wall(self, scaled: bool) -> tuple[float, float]:
        """Update and query wall, optionally at reference host speed."""
        uw = sum(r.update_wall / (r.factor if scaled else 1.0) for r in self.rounds)
        qw = sum(r.query_wall / (r.factor if scaled else 1.0) for r in self.rounds)
        return uw, qw

    def latencies_ms(self, scaled: bool) -> np.ndarray:
        lat = np.asarray(self.tally.latencies_ms)
        if not scaled:
            return lat
        return np.concatenate([
            lat[r.first_latency:r.end_latency] / r.factor for r in self.rounds
        ])


def _diff(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def timed_loop(wl: Workload, seconds: float, host: HostSpeed) -> Loop:
    """Run rounds until ``seconds`` of program time have been measured
    and at least the counted window is complete; probe the host's speed
    between rounds."""
    # a long-running server freezes its start-up heap: full collections
    # then walk only what serving allocates, not the network, the grid,
    # the fleet and the benchmark's own inputs
    gc.collect()
    gc.freeze()
    tally = Tally()
    before = wl.counters()
    select_before = wl.answer_counts.get("select_s", 0.0)
    window: dict[str, float] = {}
    rounds: list[Round] = []
    speed = host.factor()
    while len(rounds) < wl.counted_rounds or tally.wall < seconds:
        mark = (tally.update_wall, tally.query_wall, tally.updates, tally.queries)
        first = len(tally.latencies_ms)
        wl.round(tally)
        after = host.factor()
        rounds.append(Round(
            tally.update_wall - mark[0],
            tally.query_wall - mark[1],
            tally.updates - mark[2],
            tally.queries - mark[3],
            (speed + after) / 2,
            first,
            len(tally.latencies_ms),
        ))
        speed = after
        if len(rounds) == wl.counted_rounds:
            window = _diff(wl.counters(), before)
            window["queries"] = tally.queries
            window["updates"] = tally.updates
    select_s = wl.answer_counts.get("select_s", 0.0) - select_before
    return Loop(tally, rounds, window, select_s)


def _setups(wl: Workload, tracer: Tracer | None, host: HostSpeed) -> dict[str, Any]:
    """Build the system and load the fleet cold ``scale.setups`` times,
    keeping the last; the host is probed around the build and the load."""
    out: dict[str, list[Any]] = {
        "build": [], "load": [], "build_factor": [], "load_factor": [], "spans": []
    }
    for i in range(wl.scale.setups):
        if i:
            wl.teardown()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        before = host.factor()
        t0 = perf_counter()
        wl.build()
        out["build"].append(perf_counter() - t0)
        between = host.factor()
        t0 = perf_counter()
        wl.load()
        out["load"].append(perf_counter() - t0)
        after = host.factor()
        out["build_factor"].append((before + between) / 2)
        out["load_factor"].append((between + after) / 2)
        if tracer is not None:
            out["spans"].append(tracer.by_name())
    return out


def _warm_up(wl: Workload, tracer: Tracer | None) -> None:
    wl.warm_up()
    if tracer is not None:
        tracer.reset()


def environment(wl: Workload, seed: int) -> dict[str, Any]:
    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vertices": wl.graph.num_vertices,
        "edges": wl.graph.num_edges,
        "wal_fs": "n/a",
        **wl.environment(),
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale = PAPER,
    out_dir: Path = Path(".perfbench_out"),
) -> dict[str, Any]:
    """One run; returns the result line plus everything it printed from."""
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](scale, seed, out_dir)
    host = HostSpeed()
    try:
        if trace:
            tracer = Tracer()
            tracer.observers["cleaning.clean"] = wl.observe_cleaning
            wl.tracer = tracer
            with Installed(tracer):
                setup = _setups(wl, tracer, host)
                _warm_up(wl, tracer)
                traced = timed_loop(wl, seconds, host)
                traced.spans = tracer.by_name()
            wl.tracer = None
            tracer.save(out_dir / f"spans-{workload}.npz")
        else:
            setup = _setups(wl, None, host)
            _warm_up(wl, None)
            traced = None
        plain = timed_loop(wl, seconds, host)
        env = environment(wl, seed)
    finally:
        gc.unfreeze()
        wl.teardown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = tail_percentile(wl.counted_rounds * wl.queries_per_round)
    loops = [plain] if traced is None else [traced, plain]
    tallies = [loop.tally for loop in loops]
    checked = sum(t.oracle_checked for t in tallies)
    failed = sum(t.failed for t in tallies)
    attempted = sum(t.attempted for t in tallies)
    result: dict[str, Any] = {
        "env": env,
        "rounds": [len(loop.rounds) for loop in loops],
        "round_ms_per_query": [
            round((r.update_wall + r.query_wall) / r.queries * 1e3, 3)
            for r in plain.rounds
        ],
        "host_factor": {
            "build": [round(f, 4) for f in setup["build_factor"]],
            "load": [round(f, 4) for f in setup["load_factor"]],
            "timed": [round(r.factor, 4) for r in plain.rounds],
        },
        "oracle": {
            "checked": checked,
            "mismatches": sum(t.oracle_mismatches for t in tallies),
        },
        "shed": sum(t.shed for t in tallies),
        "errors": [e for t in tallies for e in t.errors][:3],
        "error_rate": failed / max(1, attempted),
        "correct": failed == 0 and checked > 0,
        "attempted": attempted,
        "failed": failed,
    }
    result["latency"] = _latency_summary(plain.latencies_ms(True), tail)
    result["raw_end_to_end"] = end_to_end(wl, plain, setup, tail, peak_rss_mb, False)
    result["end_to_end"] = end_to_end(wl, plain, setup, tail, peak_rss_mb, True)
    result["window"] = (traced or plain).window
    if traced is not None:
        layers, table = per_layer(wl, traced, plain, setup)
        result["per_layer"] = layers
        result["table"] = table
        result["setup_spans"] = setup["spans"][-1]
    return result


def _latency_summary(lat: np.ndarray, tail: float) -> dict[str, Any]:
    value = float(np.percentile(lat, tail))
    return {
        "p50": float(np.percentile(lat, 50)),
        "tail": value,
        "percentile": tail,
        "samples": int(len(lat)),
        "beyond_tail": int(np.sum(lat > value)),
    }


def end_to_end(
    wl: Workload,
    loop: Loop,
    setup: dict[str, Any],
    tail: float,
    rss_mb: float,
    scaled: bool,
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, raw or at reference host speed.  Memory
    and modelled figures do not depend on host speed."""
    med = statistics.median
    t, w = loop.tally, loop.window
    lat = _latency_summary(loop.latencies_ms(scaled), tail)
    update_wall, query_wall = loop.wall(scaled)
    build, load = setup["build"], setup["load"]
    if scaled:
        build = [s / f for s, f in zip(build, setup["build_factor"])]
        load = [s / f for s, f in zip(load, setup["load_factor"])]
    if t.updates:
        updates_per_s = t.updates / update_wall
    else:  # no updates while timed: the rate of the fleet load
        updates_per_s = med(len(wl.load_messages) / s for s in load)
    return {
        "setup_s": (med(b + s for b, s in zip(build, load)), "s"),
        "knn_p50_ms": (lat["p50"], "ms"),
        "knn_tail_ms": (lat["tail"], "ms"),
        "queries_per_s": (t.queries / query_wall, "1/s"),
        "updates_per_s": (updates_per_s, "1/s"),
        "amortized_ms_per_query": (
            (update_wall + query_wall) / t.queries * 1e3, "ms"),
        "modelled_gpu_us_per_query": (w["gpu_s"] / w["queries"] * 1e6, "sim_us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _self(spans: dict[str, dict[str, float]], *names: str) -> float:
    return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)


def _calls(spans: dict[str, dict[str, float]], *names: str) -> int:
    return sum(spans.get(n, {}).get("calls", 0) for n in names)


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def per_layer(
    wl: Workload, traced: Loop, plain: Loop, setup: dict[str, Any]
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """Per-layer metrics plus the self-time table of the traced loop."""
    spans, t, w = traced.spans, traced.tally, traced.window
    q, wq = t.queries, w["queries"]
    setup_spans = setup["spans"]
    # the update path is read from the timed loop when it has updates,
    # else from the last (traced) fleet load
    update_spans = spans if t.updates else setup_spans[-1]
    ingest = w if w["ingested"] else wl.counters()
    med = statistics.median
    cleaning_s = spans.get("cleaning.clean", {}).get("total_s", 0.0)
    # each loop at reference speed, so a host slowdown between the two
    # loops is not read as tracing overhead
    overhead = (
        sum(traced.wall(True)) / t.queries
        / (sum(plain.wall(True)) / plain.tally.queries)
        - 1.0
    )
    self_total = sum(s["self_s"] for s in spans.values())
    unattributed = t.wall - self_total
    m: dict[str, tuple[float, str]] = {
        "roadnet.build_s": (
            med(_self(s, "roadnet.build") for s in setup_spans), "s"),
        "grid.build_s": (med(_self(s, "grid.build") for s in setup_spans), "s"),
        "load.us_per_object": (
            med(setup["load"]) / len(wl.load_messages) * 1e6, "us"),
        "ingest.us_per_update": (
            _per(_self(update_spans, "ingest.ingest"),
                 _calls(update_spans, "ingest.ingest")) * 1e6, "us"),
        "ingest.touches_per_update": (
            _per(ingest["touches"], ingest["ingested"]), "count"),
        "ingest.backpressure_cleanings": (w["backpressure"], "count"),
        "server.update_self_us": (
            _per(_self(update_spans, "server.update"),
                 _calls(update_spans, "server.update")) * 1e6, "us"),
        "server.query_self_us": (
            _self(spans, "server.query", "server.query_batch") / q * 1e6, "us"),
        "cleaning.ms_per_query": (cleaning_s / q * 1e3, "ms"),
        "cleaning.cells_per_query": (w["clean_cells"] / wq, "count"),
        "cleaning.messages_per_query": (w["clean_messages"] / wq, "count"),
        "cleaning.survivor_ratio": (
            _per(w["clean_survivors"], w["clean_messages"]), "ratio"),
        "cleaning.gpu_us_per_query": (
            w.get("gpu_clean_cells_s", 0.0) / wq * 1e6, "sim_us"),
        "select.ms_per_query": (
            (traced.select_s - cleaning_s) / q * 1e3, "ms"),
        "sdist.ms_per_query": (
            _self(spans, "sdist.kernel", "sdist.batch_kernel") / q * 1e3, "ms"),
        "sdist.gpu_us_per_query": (w.get("gpu_sdist_s", 0.0) / wq * 1e6, "sim_us"),
        "first_k.gpu_us_per_query": (
            w.get("gpu_first_k_s", 0.0) / wq * 1e6, "sim_us"),
        "unresolved.gpu_us_per_query": (
            w.get("gpu_unresolved_s", 0.0) / wq * 1e6, "sim_us"),
        "unresolved.vertices_per_query": (w["unresolved"] / wq, "count"),
        "refine.ms_per_query": (_self(spans, "refine.refine_knn") / q * 1e3, "ms"),
        "refine.settled_per_query": (w["refine_settled"] / wq, "count"),
        "refine.fallback_ratio": (w["fallbacks"] / wq, "ratio"),
        "batch.dedup_ratio": (
            _per(w["clean_cells"], w["cells_requested"]), "ratio"),
        "batch.epoch_ms": (
            _per(spans.get("server.query_batch", {}).get("total_s", 0.0),
                 _calls(spans, "server.query_batch")) * 1e3, "ms"),
        "gpu.transfer_bytes_per_query": (w["gpu_bytes"] / wq, "bytes"),
        "gpu.kernel_launches_per_query": (w["gpu_launches"] / wq, "count"),
        "router.update_self_us": (
            _per(_self(spans, "router.update"), _calls(spans, "router.update"))
            * 1e6, "us"),
        "router.query_self_ms": (_self(spans, "router.query_batch") / q * 1e3, "ms"),
        "router.mean_fanout": (_per(w["fanout"], w["records"]), "count"),
        "router.migrations": (w["migrations"], "count"),
        "wal.append_us": (
            _per(_self(spans, "wal.append_ingest"), _calls(spans, "wal.append_ingest"))
            * 1e6, "us"),
        "wal.bytes_per_update": (_per(w["wal_bytes"], w["updates"]), "bytes"),
        "wal.fsyncs": (w["fsyncs"], "count"),
        "replica.ship_us_per_update": (
            _per(_self(spans, "replica.ship_ingest", "replica.apply_buffer"),
                 t.updates) * 1e6, "us"),
        "frontdoor.submit_us": (
            _per(_self(spans, "frontdoor.submit_nowait"),
                 _calls(spans, "frontdoor.submit_nowait")) * 1e6, "us"),
        "frontdoor.flush_self_ms": (_self(spans, "frontdoor.flush") / q * 1e3, "ms"),
        "frontdoor.shed": (t.shed, "count"),
        "unattributed.ms_per_query": (unattributed / q * 1e3, "ms"),
        "tracing.overhead_pct": (overhead * 100.0, "%"),
    }
    layers: dict[str, dict[str, float]] = {}
    for name, s in spans.items():
        row = layers.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0})
        row["calls"] += s["calls"]
        row["self_s"] += s["self_s"]
    table = {
        "traced_wall_s": t.wall,
        "untraced_wall_s": plain.tally.wall,
        "untraced_queries": plain.tally.queries,
        "queries": q,
        "updates": t.updates,
        "spans": spans,
        "layers": layers,
        "unattributed_s": unattributed,
    }
    return m, table
