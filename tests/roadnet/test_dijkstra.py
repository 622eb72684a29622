"""Unit tests for the shortest-path primitives."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet.dijkstra import (
    BoundedSearch,
    SearchStats,
    bounded_dijkstra,
    dijkstra,
    dijkstra_with_paths,
    multi_source_dijkstra,
    reconstruct_path,
    shortest_path_distance,
)
from repro.roadnet.generators import grid_road_network


def test_line_graph_distances(line_graph):
    dist = dijkstra(line_graph, 0)
    assert dist == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}


def test_directed_triangle_asymmetry(triangle_graph):
    assert shortest_path_distance(triangle_graph, 0, 2) == 3.0  # 0->1->2
    assert shortest_path_distance(triangle_graph, 2, 1) == 4.0  # 2->0->1


def test_unreachable_is_inf():
    from repro.roadnet.graph import RoadNetwork

    g = RoadNetwork()
    g.add_vertices(2)
    g.add_edge(0, 1, 1.0)
    assert shortest_path_distance(g, 1, 0) == float("inf")


def test_same_vertex_distance_zero(line_graph):
    assert shortest_path_distance(line_graph, 2, 2) == 0.0


def test_targets_early_exit(line_graph):
    dist = dijkstra(line_graph, 0, targets=[1])
    assert dist[1] == 1.0
    assert 4 not in dist  # search stopped before the far end


def test_multi_source_takes_min(line_graph):
    dist = multi_source_dijkstra(line_graph, {0: 0.0, 4: 0.0})
    assert dist[2] == 2.0
    assert dist[1] == 1.0 and dist[3] == 1.0


def test_multi_source_with_offsets(line_graph):
    dist = multi_source_dijkstra(line_graph, {0: 10.0, 4: 0.0})
    assert dist[0] == min(10.0, 4.0)  # reachable from seed 4 via the path


def test_bounded_dijkstra_respects_radius(line_graph):
    dist = bounded_dijkstra(line_graph, 0, radius=2.5)
    assert set(dist) == {0, 1, 2}


def test_bounded_dijkstra_zero_radius(line_graph):
    assert set(bounded_dijkstra(line_graph, 2, radius=0.0)) == {2}


def test_paths_reconstruction(line_graph):
    dist, parent = dijkstra_with_paths(line_graph, 0)
    assert reconstruct_path(parent, 0, 3) == [0, 1, 2, 3]
    assert reconstruct_path(parent, 0, 0) == [0]


def test_reconstruct_unreached_returns_empty():
    assert reconstruct_path({}, 0, 7) == []


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dijkstra_matches_bellman_ford(seed):
    """Property: Dijkstra distances equal a naive Bellman-Ford's."""
    rng = random.Random(seed)
    g = grid_road_network(4, 4, seed=rng.randrange(1000))
    source = rng.randrange(g.num_vertices)
    fast = dijkstra(g, source)
    slow = {v.id: float("inf") for v in g.vertices()}
    slow[source] = 0.0
    for _ in range(g.num_vertices):
        for e in g.edges():
            if slow[e.source] + e.weight < slow[e.dest]:
                slow[e.dest] = slow[e.source] + e.weight
    for v, d in fast.items():
        assert slow[v] == pytest.approx(d)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.5, 5.0))
def test_bounded_is_restriction_of_full(seed, radius):
    """Property: bounded search equals the full search filtered by radius."""
    g = grid_road_network(5, 5, seed=seed % 100)
    source = seed % g.num_vertices
    full = dijkstra(g, source)
    bounded = bounded_dijkstra(g, source, radius)
    assert bounded == {v: d for v, d in full.items() if d <= radius}


def test_bounded_search_breaks_instead_of_draining(line_graph):
    """Regression: a pop beyond the radius must *stop* the search.

    Pops are monotone non-decreasing, so once one exceeds the radius
    nothing later can settle — the old code `continue`d and drained the
    rest of the heap one stale pop at a time.  With three over-radius
    seeds queued, breaking pops exactly once past the radius; draining
    would pop all three.
    """
    seeds = {0: 0.0, 2: 10.0, 3: 11.0, 4: 12.0}
    stats = SearchStats()
    dist = multi_source_dijkstra(line_graph, seeds, radius=1.0, stats=stats)
    assert dist == {0: 0.0, 1: 1.0}
    assert stats.settled == 2
    # pops: (0.0, 0), (1.0, 1), then (10.0, 2) triggers the break —
    # seeds 3 and 4 are never popped
    assert stats.pops == 3


def test_bounded_search_stats_settled_matches_result(line_graph):
    stats = SearchStats()
    dist = multi_source_dijkstra(line_graph, {0: 0.0}, radius=2.5, stats=stats)
    assert stats.settled == len(dist) == 3


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.5, 5.0))
def test_shared_array_search_matches_dict_search(seed, radius):
    """Property: BoundedSearch == multi_source_dijkstra, pops included."""
    g = grid_road_network(5, 5, seed=seed % 100)
    source = seed % g.num_vertices
    ref_stats = SearchStats()
    ref = multi_source_dijkstra(g, {source: 0.0}, radius=radius, stats=ref_stats)
    search = BoundedSearch(g)
    got_stats = SearchStats()
    settled = search.run(source, radius, stats=got_stats)
    got = {int(v): float(d) for v, d in zip(settled, search.distances(settled))}
    assert got == ref  # exact float equality: same additions, same order
    assert (got_stats.pops, got_stats.settled) == (ref_stats.pops, ref_stats.settled)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 3.0), st.floats(0.5, 5.0))
def test_seeded_search_continues_the_upstream_sum(seed, origin, radius):
    """A run from ``origin`` equals the dict search seeded at ``origin``:
    distances are ``origin + w1 + w2 + ...`` left to right, bounded by
    ``radius`` as a whole."""
    g = grid_road_network(5, 5, seed=seed % 100)
    source = seed % g.num_vertices
    ref = multi_source_dijkstra(g, {source: origin}, radius=origin + radius)
    search = BoundedSearch(g)
    settled = search.run(source, origin + radius, origin=origin)
    got = {int(v): float(d) for v, d in zip(settled, search.distances(settled))}
    assert got == ref


def test_shared_array_search_resets_between_runs(small_graph):
    """A second run must not see the first run's distances or stamps."""
    search = BoundedSearch(small_graph)
    search.run(0, 5.0)
    for source, radius in ((3, 1.5), (0, 0.0), (7, 2.5)):
        settled = search.run(source, radius)
        ref = bounded_dijkstra(small_graph, source, radius)
        got = {int(v): float(d) for v, d in zip(settled, search.distances(settled))}
        assert got == ref
        # is_settled answers for the *latest* run only
        verts = np.arange(small_graph.num_vertices, dtype=np.int64)
        assert set(verts[search.is_settled(verts)].tolist()) == set(ref)


def test_triangle_inequality_holds(small_graph):
    rng = random.Random(0)
    for _ in range(10):
        a, b, c = (rng.randrange(small_graph.num_vertices) for _ in range(3))
        ab = shortest_path_distance(small_graph, a, b)
        bc = shortest_path_distance(small_graph, b, c)
        ac = shortest_path_distance(small_graph, a, c)
        assert ac <= ab + bc + 1e-9
