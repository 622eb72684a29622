"""Equivalence tests for the vectorised SDist backend."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.graph_grid import GraphGrid
from repro.core.messages import Message
from repro.core.sdist import get_sdist_kernel, sdist_kernel
from repro.core.sdist_vectorized import sdist_kernel_vectorized
from repro.errors import ConfigError
from repro.roadnet.generators import grid_road_network
from repro.roadnet.location import NetworkLocation
from repro.simgpu.device import SimGpu


def _both(graph, grid, cells, seeds, early_exit=True):
    """Run the lockstep and the vectorized kernel on the same input;
    returns ``[(distances, device stats), ...]`` in that order."""
    results = []
    for kernel in (sdist_kernel, sdist_kernel_vectorized):
        gpu = SimGpu()
        elements = grid.elements_of_cells(cells)
        vertices = grid.vertices_of_cells(cells)
        dist = gpu.launch(
            "sdist",
            max(1, len(elements)),
            kernel,
            elements,
            vertices,
            seeds,
            grid.config.delta_v,
            early_exit,
        )
        results.append((dist, gpu.stats))
    return results


def test_backends_agree(small_graph):
    grid = GraphGrid.build(small_graph, GGridConfig())
    cells = set(range(min(8, grid.num_cells)))
    seeds = {grid.vertices_of_cells(cells)[0]: 0.0}
    (lockstep, _), (vectorized, _) = _both(small_graph, grid, cells, seeds)
    assert lockstep == vectorized


def test_backends_charge_identically_without_early_exit(medium_graph):
    """With ``early_exit=False`` both kernels run all ``|V|`` rounds and
    charge identical work.  With early exit on they may not: the
    lockstep kernel relaxes in place within a round while the vectorized
    one relaxes from the previous round's array, so they can stop after
    different round counts (distances still agree)."""
    grid = GraphGrid.build(medium_graph, GGridConfig())
    rng = random.Random(11)
    for _ in range(5):
        n = grid.num_cells
        cells = set(rng.sample(range(n), rng.randrange(2, min(12, n))))
        vertices = grid.vertices_of_cells(cells)
        if not vertices:
            continue
        seeds = {rng.choice(vertices): rng.uniform(0, 2.0)}
        (lockstep, ls), (vectorized, vs) = _both(
            medium_graph, grid, cells, seeds, early_exit=False
        )
        assert lockstep == vectorized
        assert ls.lane_ops == vs.lane_ops
        assert ls.sync_count == vs.sync_count


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_backends_agree_property(seed):
    rng = random.Random(seed)
    graph = grid_road_network(6, 6, seed=seed % 5)
    grid = GraphGrid.build(graph, GGridConfig())
    n = grid.num_cells
    cells = set(rng.sample(range(n), rng.randrange(2, min(12, n))))
    vertices = grid.vertices_of_cells(cells)
    if not vertices:
        return
    seeds = {rng.choice(vertices): rng.uniform(0, 2.0)}
    (lockstep, _), (vectorized, _) = _both(graph, grid, cells, seeds)
    assert lockstep == vectorized


def test_get_sdist_kernel_resolution():
    assert get_sdist_kernel("lockstep") is sdist_kernel
    assert get_sdist_kernel("vectorized") is sdist_kernel_vectorized
    with pytest.raises(ConfigError):
        get_sdist_kernel("cuda")


def test_config_rejects_unknown_backend():
    with pytest.raises(ConfigError):
        GGridConfig(sdist_backend="metal")


def _launch(gpu, grid, kernel, elements, vertices, seeds):
    return gpu.launch(
        "sdist",
        max(1, len(elements)),
        kernel,
        elements,
        vertices,
        seeds,
        grid.config.delta_v,
        True,
    )


def test_slab_counter_identity(medium_graph):
    """Regression: the packed CellSlab fast path must charge exactly the
    work the per-launch re-flattening path charged, and return the same
    distances bit for bit.

    The slab's edge records follow the same (cell, vertex, record) order
    the legacy flatten produced, so ``np.minimum.at`` sees identical
    update sequences — any divergence in ``lane_ops`` or a single float
    means the layouts drifted apart.
    """
    grid = GraphGrid.build(medium_graph, GGridConfig())
    rng = random.Random(9)
    for trial in range(5):
        n = grid.num_cells
        cells = set(rng.sample(range(n), rng.randrange(2, min(12, n))))
        elements = grid.elements_of_cells(cells)
        vertices = grid.vertices_of_cells(cells)
        slab = grid.pack_of_cells(cells)
        assert len(slab) == len(elements)
        assert slab.vertex_list == vertices
        if not vertices:
            continue
        seeds = {rng.choice(vertices): rng.uniform(0, 2.0)}

        gpu_legacy, gpu_slab = SimGpu(), SimGpu()
        legacy = _launch(
            gpu_legacy, grid, sdist_kernel_vectorized, elements, vertices, seeds
        )
        packed = _launch(
            gpu_slab, grid, sdist_kernel_vectorized, slab, slab.vertex_list, seeds
        )
        assert packed == legacy  # bit-identical floats, same key set
        assert gpu_slab.stats.lane_ops == gpu_legacy.stats.lane_ops
        assert gpu_slab.stats.kernel_launches == gpu_legacy.stats.kernel_launches


def test_slab_feeds_lockstep_kernel_too(small_graph):
    """The lockstep kernel iterates the slab's lazily materialised
    elements; distances must match running it on the legacy list."""
    grid = GraphGrid.build(small_graph, GGridConfig())
    cells = set(range(min(6, grid.num_cells)))
    elements = grid.elements_of_cells(cells)
    slab = grid.pack_of_cells(cells)
    vertices = grid.vertices_of_cells(cells)
    seeds = {vertices[0]: 0.0}
    legacy = _launch(SimGpu(), grid, sdist_kernel, elements, vertices, seeds)
    packed = _launch(SimGpu(), grid, sdist_kernel, slab, slab.vertex_list, seeds)
    assert packed == legacy


def test_end_to_end_answers_identical(medium_graph):
    """Full kNN answers must not depend on the backend."""
    rng = random.Random(5)
    answers = []
    for backend in ("lockstep", "vectorized"):
        index = GGridIndex(
            medium_graph, GGridConfig(eta=3, delta_b=8, sdist_backend=backend)
        )
        rng2 = random.Random(5)
        for obj in range(30):
            e = rng2.randrange(medium_graph.num_edges)
            index.ingest(
                Message(obj, e, rng2.uniform(0, medium_graph.edge(e).weight), 1.0)
            )
        got = []
        for _ in range(5):
            e = rng2.randrange(medium_graph.num_edges)
            q = NetworkLocation(e, rng2.uniform(0, medium_graph.edge(e).weight))
            got.append([round(x, 9) for x in index.knn(q, 6, t_now=1.0).distances()])
        answers.append(got)
    assert answers[0] == answers[1]
