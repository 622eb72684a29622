"""Acceptance tests: a replayed workload through the observability layer.

These pin the ISSUE's deliverables: a Prometheus dump covering the full
query lifecycle, a merged CPU+GPU Chrome trace loadable in Perfetto,
latency percentiles in the replay report, and — the flip side — zero
GPU-visible overhead when observability is off.
"""

import json
import random

import pytest

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.mobility.workload import make_workload
from repro.obs import Observability, Tracer, write_chrome_trace
from repro.obs.hub import default_observability
from repro.server.server import QueryServer
from repro.simgpu.trace import GpuTrace

from tests.conftest import random_location

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def workload(small_graph):
    return make_workload(
        small_graph, num_objects=20, duration=8.0, num_queries=6, k=3, seed=7
    )


def _replay(small_graph, workload, obs):
    index = GGridIndex(small_graph, GGridConfig(eta=3, delta_b=8))
    server = QueryServer(index, obs=obs)
    report, _ = server.replay(workload)
    return index, report


def test_replay_produces_full_prometheus_dump(small_graph, workload):
    obs = Observability.with_tracing()
    _, report = _replay(small_graph, workload, obs)
    text = obs.registry.write_prometheus()

    # lifecycle counters
    assert "repro_ingest_messages_total" in text
    assert f"repro_queries_total {workload.num_queries}" in text
    # per-phase histograms: cleaning, GPU kernels, CPU refinement
    for phase in ("ingest", "select", "clean_cells", "sdist", "refine"):
        assert f'repro_phase_seconds_bucket{{phase="{phase}",le="+Inf"}}' in text
    # device families
    assert "repro_gpu_kernel_seconds_total" in text
    assert "repro_gpu_transfer_bytes_total" in text
    # server state gauges
    assert "repro_objects 20" in text
    assert "repro_backlog_messages" in text


def test_replay_populates_tracer_and_slowlog(small_graph, workload):
    obs = Observability.with_tracing()
    _, report = _replay(small_graph, workload, obs)

    names = {s.name for s in obs.tracer.spans}
    assert {"query", "select_candidates", "clean_cells", "sdist", "refine"} <= names
    roots = [s for s in obs.tracer.spans if s.name == "query"]
    assert len(roots) == workload.num_queries
    assert all(s.parent is None for s in roots)

    entries = obs.slow_queries.entries()
    assert 0 < len(entries) <= workload.num_queries
    slowest = entries[0]
    assert slowest.modeled_s == max(r.modeled_s for r in report.query_records)
    assert slowest.phases  # phase breakdown retained
    assert "candidates" in slowest.as_dict()


def test_report_percentiles_in_as_dict(small_graph, workload):
    obs = Observability()
    _, report = _replay(small_graph, workload, obs)
    d = report.as_dict()
    assert 0 < d["query_p50_s"] <= d["query_p95_s"] <= d["query_p99_s"]
    # per-phase percentiles cover the GPU and CPU sides of the lifecycle
    assert {"clean_cells", "sdist", "select", "refine"} <= set(d["phases"])
    assert d["phases"]["select"]["p50"] > 0
    assert d["fallback_queries"] == report.fallback_queries


def test_merged_chrome_trace_loads_and_covers_both_clocks(
    small_graph, workload, tmp_path
):
    obs = Observability.with_tracing()
    index = GGridIndex(small_graph, GGridConfig(eta=3, delta_b=8))
    server = QueryServer(index, obs=obs)
    with GpuTrace(index.gpu) as gpu_trace:
        server.replay(workload)
    path = write_chrome_trace(tmp_path / "timeline.json", obs.tracer, gpu_trace)

    doc = json.loads(path.read_text())  # valid JSON == Perfetto-loadable
    events = doc["traceEvents"]
    meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert meta == {0: "gpu (simulated)", 1: "cpu"}
    cpu_names = {e["name"] for e in events if e["ph"] == "X" and e["pid"] == 1}
    gpu_names = {e["name"] for e in events if e["ph"] == "X" and e["pid"] == 0}
    assert "query" in cpu_names and "refine" in cpu_names
    assert "GPU_SDist" in gpu_names
    assert any("X_Shuffle" in n for n in gpu_names)


def test_observability_off_adds_no_gpu_work(small_graph, workload):
    """The opt-in guarantee: instrumentation must not change what the
    device does — same kernel launches, same bytes moved."""
    assert default_observability() is None  # nothing configured globally
    plain_index, plain_report = _replay(small_graph, workload, obs=None)
    obs = Observability.with_tracing()
    inst_index, inst_report = _replay(small_graph, workload, obs)

    assert plain_index.gpu.stats.kernel_launches == inst_index.gpu.stats.kernel_launches
    assert plain_index.gpu.stats.total_bytes == inst_index.gpu.stats.total_bytes
    # and the answers/accounting are identical either way
    assert plain_report.n_queries == inst_report.n_queries
    assert plain_report.transfer_bytes == inst_report.transfer_bytes
    # with no bundle the server resolves no instruments at all
    server = QueryServer(plain_index)
    assert server.obs is None and server._inst is None


def _traced_knn(graph, run):
    """Load a fresh index, then trace ``run(index)`` on both clocks."""
    rng = random.Random(3)
    index = GGridIndex(graph, GGridConfig(eta=3, delta_b=8))
    for obj in range(60):
        loc = random_location(graph, rng)
        index.ingest(Message(obj, loc.edge_id, loc.offset, 1.0))
    tracer = Tracer()
    with tracer.activate(), GpuTrace(index.gpu) as gpu_trace:
        answers = run(index)
    kernels = {e.name for e in gpu_trace.events if e.category == "kernel"}
    return answers, tracer.spans, {n for n in kernels if n.startswith("GPU_")}


def test_single_query_and_batch_share_one_trace_shape(medium_graph):
    """A single query is a batch of one: both leave the same span names
    and launch the same kernels, and the fused SDist span counts its
    jobs."""
    rng = random.Random(8)
    queries = [(random_location(medium_graph, rng), 3) for _ in range(6)]

    batch, batch_spans, batch_kernels = _traced_knn(
        medium_graph, lambda index: index.knn_batch(queries)
    )
    single, single_spans, single_kernels = _traced_knn(
        medium_graph, lambda index: [index.knn(*queries[0])]
    )

    phases = {
        "select_candidates", "sdist", "first_k", "unresolved", "candidates_d2h", "refine",
    }
    assert phases <= {s.name for s in batch_spans}
    assert phases <= {s.name for s in single_spans}
    assert batch_kernels == single_kernels
    assert {"GPU_SDist", "GPU_First_k", "GPU_Unresolved"} <= batch_kernels
    for answers, spans in ((batch, batch_spans), (single, single_spans)):
        [sdist] = [s for s in spans if s.name == "sdist"]
        assert sdist.attrs["jobs"] == sum(1 for a in answers if not a.used_fallback)
    assert sum(1 for a in batch if not a.used_fallback) > 1
