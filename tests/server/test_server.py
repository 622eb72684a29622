"""Unit tests for workload replay through the query server."""

import pytest

from repro.baselines.naive import NaiveKnnIndex
from repro.core.ggrid import GGridIndex
from repro.config import GGridConfig
from repro.mobility.workload import Query, make_workload
from repro.server.maintenance import PeriodicCleaning
from repro.server.metrics import ReplayReport
from repro.server.server import KnnIndex, QueryServer
from repro.simgpu.stats import GpuStats


@pytest.fixture(scope="module")
def workload(small_graph):
    return make_workload(
        small_graph, num_objects=15, duration=6.0, num_queries=4, k=3, seed=2
    )


def test_replay_counts(small_graph, workload):
    server = QueryServer(NaiveKnnIndex(small_graph))
    report, answers = server.replay(workload, collect_answers=True)
    # initial placements count as updates too
    assert report.n_updates == workload.num_updates + len(workload.initial)
    assert report.n_queries == workload.num_queries
    assert len(answers) == workload.num_queries


def test_replay_records_touches(small_graph, workload):
    server = QueryServer(NaiveKnnIndex(small_graph))
    report, _ = server.replay(workload)
    assert report.update_touches == report.n_updates  # naive: 1 touch each


def test_replay_ggrid_accounts_gpu(small_graph, workload):
    index = GGridIndex(small_graph, GGridConfig(eta=3, delta_b=8))
    report, _ = server_replay(index, workload)
    assert report.gpu_seconds > 0
    assert report.transfer_bytes > 0
    assert all(r.modeled_s > 0 for r in report.query_records)


def server_replay(index: KnnIndex, workload):
    return QueryServer(index).replay(workload)


def test_answers_match_between_indexes(small_graph, workload):
    ggrid = GGridIndex(small_graph, GGridConfig(eta=3, delta_b=8))
    naive = NaiveKnnIndex(small_graph)
    _, a = QueryServer(ggrid).replay(workload, collect_answers=True)
    _, b = QueryServer(naive).replay(workload, collect_answers=True)
    for x, y in zip(a, b):
        assert [round(d, 9) for d in x.distances()] == [
            round(d, 9) for d in y.distances()
        ]


def test_protocol_conformance(small_graph):
    assert isinstance(NaiveKnnIndex(small_graph), KnnIndex)
    assert isinstance(GGridIndex(small_graph), KnnIndex)


class _DiffStats(GpuStats):
    """Reference accounting: ``mark``/``since`` through full
    ``snapshot()``/``diff()`` copies."""

    def mark(self):
        return self.snapshot()

    def since(self, mark):
        delta = self.diff(mark)
        return delta.gpu_time_s, delta.total_bytes


def _served_report(index: GGridIndex, workload) -> ReplayReport:
    server = QueryServer(
        index, maintenance=PeriodicCleaning(interval=2.0, slice_cells=64)
    )
    report, _ = server.replay(workload)
    t_end = workload.queries[-1].t
    epoch = [Query(t_end, q.location, k) for q, k in zip(workload.queries, (1, 3, 5, 2))]
    server.query_batch(epoch, report)
    server.query(epoch[0], report)
    return report


def test_mark_since_accounting_matches_snapshot_diff(small_graph):
    """Updates that reach the device (backpressure cleanings and
    whole-grid maintenance sweeps, whose multi-chunk transfers overlap)
    and queries, sequential and batched, charge exactly what a
    snapshot/diff around the same calls measures."""
    workload = make_workload(
        small_graph, num_objects=40, duration=6.0, num_queries=4, k=3, seed=5
    )
    config = GGridConfig(eta=1, delta_b=2, max_buckets_per_cell=2)
    index = GGridIndex(small_graph, config)
    twin = GGridIndex(small_graph, config)
    twin.gpu.stats.__class__ = _DiffStats

    got = _served_report(index, workload)
    want = _served_report(twin, workload)

    assert got.updates_backpressured > 0
    assert got.update_gpu_s > 0
    assert index.gpu.stats.pipelined_saved_s > 0
    assert got.update_gpu_s == want.update_gpu_s
    assert len(got.query_records) == len(want.query_records) == 9
    for mine, ref in zip(got.query_records, want.query_records):
        assert mine.gpu_s == ref.gpu_s
        assert mine.transfer_bytes == ref.transfer_bytes
    assert index.gpu.stats.as_dict() == twin.gpu.stats.as_dict()
