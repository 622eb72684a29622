"""Tests of the benchmark itself, at a scale that runs in seconds.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as cli
from perfbench.harness import Loop, Round, run, tail_percentile
from perfbench.oracle import exact_knn, same_answer
from perfbench.tracer import WRAP_POINTS, Installed, Tracer
from perfbench.workloads import WORKLOADS, Scale, Tally

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Scale(
    dataset_scale=1.0 / 500.0,
    fleet=400,
    cluster_fleet=300,
    tick_queries=10,
    burst_epochs=2,
    cluster_burst=16,
    fleet_counted=2,
    burst_counted=2,
    cluster_counted=2,
    setups=2,
    oracle_checks=3,
)


def tiny_run(workload: str, trace: bool, tmp: Path, seed: int = 3) -> dict:
    return run(workload, seed, 0.2, trace, scale=TINY, out_dir=tmp)


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("perfbench")
    return {
        (name, trace): tiny_run(name, trace, tmp)
        for name in WORKLOADS
        for trace in (False, True)
    }


def raw_attributes() -> list:
    out = []
    for module, cls, attr, _ in WRAP_POINTS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out.append(vars(owner)[attr])
    return out


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (False, True))
def test_every_metric_printed_with_its_unit(results, workload, trace):
    result = results[(workload, trace)]
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["shed"] == 0
    assert result["oracle"]["checked"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    line = cli.result_line(result, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    printed = "\n".join(cli.report_lines(result, trace))
    for m in spec:
        assert any(
            row.split()[:1] == [m["name"]] and row.split()[2:3] == [m["unit"]]
            for row in printed.splitlines()
        ), m["name"]
    json.dumps(line)  # the result line is valid JSON


def test_end_to_end_metrics_are_never_zero(results):
    for name in WORKLOADS:
        for metric, (value, _) in results[(name, False)]["end_to_end"].items():
            assert value > 0, (name, metric)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_layers_add_up_to_traced_wall(results, workload):
    table = results[(workload, True)]["table"]
    total = sum(s["self_s"] for s in table["spans"].values()) + table["unattributed_s"]
    assert total == pytest.approx(table["traced_wall_s"], rel=1e-9)
    assert table["unattributed_s"] >= 0.0


def test_each_workload_reaches_its_layers(results):
    reached = {
        name: {s for s, row in results[(name, True)]["table"]["spans"].items() if row["calls"]}
        for name in WORKLOADS
    }
    assert {"server.update", "server.query", "ingest.ingest", "cleaning.clean",
            "sdist.kernel", "refine.refine_knn"} <= reached["fleet_tick"]
    assert {"server.query_batch", "sdist.batch_kernel",
            "first_k.batch_kernel"} <= reached["dispatch_burst"]
    assert {"router.update", "router.query_batch", "wal.append_ingest",
            "replica.ship_ingest", "replica.apply_buffer",
            "frontdoor.submit_nowait", "frontdoor.flush"} <= reached["durable_cluster"]


def test_traced_run_restores_every_wrapped_function(results):
    before = raw_attributes()
    assert all(a is b for a, b in zip(before, raw_attributes()))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with Installed(tracer):
            wrapped = raw_attributes()
            assert all(a is not b for a, b in zip(before, wrapped))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, raw_attributes()))


def test_oracle_comparator_rejects_perturbed_answers():
    from repro.roadnet.generators import grid_road_network
    from repro.roadnet.location import NetworkLocation

    graph = grid_road_network(6, 6, seed=2)
    objects = {
        obj: NetworkLocation(e, graph.edge(e).weight / 3)
        for obj, e in enumerate(range(0, graph.num_edges, 5))
    }
    query = NetworkLocation(7, 0.0)
    want = exact_knn(graph, objects, query, 4)
    assert len(want) == 4 and same_answer(list(want), want)
    nudged = [(want[0][0], want[0][1] + 1e-6)] + want[1:]
    swapped = [(want[0][0] + 1000, want[0][1])] + want[1:]
    assert not same_answer(nudged, want)
    assert not same_answer(swapped, want)
    assert not same_answer(want[:-1], want)
    # objects tied at one distance may come back in either order
    tied = [(1, 2.0), (2, 2.0), (3, 5.0)]
    assert same_answer([(2, 2.0), (1, 2.0), (3, 5.0)], tied)


def test_same_seed_repeats_counts_and_modelled_metrics(tmp_path):
    first = tiny_run("durable_cluster", True, tmp_path, seed=5)
    second = tiny_run("durable_cluster", True, tmp_path, seed=5)
    assert first["window"] == second["window"]
    for name in ("cleaning.messages_per_query", "refine.settled_per_query",
                 "wal.bytes_per_update", "router.migrations"):
        assert first["per_layer"][name] == second["per_layer"][name]
    plain = [tiny_run("fleet_tick", False, tmp_path, seed=5) for _ in range(2)]
    assert (plain[0]["end_to_end"]["modelled_gpu_us_per_query"]
            == plain[1]["end_to_end"]["modelled_gpu_us_per_query"])
    assert plain[0]["window"] == plain[1]["window"]


def test_different_seed_gives_different_inputs(tmp_path):
    a, b, c = (WORKLOADS["fleet_tick"](TINY, seed, tmp_path) for seed in (5, 5, 6))
    assert a.placements == b.placements
    assert a.placements != c.placements
    assert a.ticks.next_tick() == b.ticks.next_tick()
    assert a.ticks.next_tick() != c.ticks.next_tick()


def test_rounds_scale_by_their_own_host_factor():
    tally = Tally(latencies_ms=[10.0, 10.0, 30.0])
    loop = Loop(tally, [Round(1.0, 2.0, 5, 2, 1.0, 0, 2), Round(3.0, 3.0, 5, 1, 3.0, 2, 3)], {})
    assert loop.wall(False) == (4.0, 5.0)
    assert loop.wall(True) == (2.0, 3.0)
    assert list(loop.latencies_ms(True)) == [10.0, 10.0, 10.0]
    assert list(loop.latencies_ms(False)) == [10.0, 10.0, 30.0]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(300) == 95.0
    assert tail_percentile(1152) == 99.0
    assert tail_percentile(64) == 80.0
    for n in (20, 64, 300, 1000, 5000):
        assert n * (100 - tail_percentile(n)) / 100 >= 10


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_tick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
