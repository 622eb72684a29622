"""Unit tests for the RoadNetwork container."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.roadnet.graph import RoadNetwork


def test_add_vertex_assigns_sequential_ids():
    g = RoadNetwork()
    assert g.add_vertex() == 0
    assert g.add_vertex(1.0, 2.0) == 1
    assert g.num_vertices == 2
    assert g.vertex(1).x == 1.0 and g.vertex(1).y == 2.0


def test_add_vertices_bulk():
    g = RoadNetwork()
    ids = g.add_vertices(5)
    assert ids == [0, 1, 2, 3, 4]
    assert g.num_vertices == 5


def test_add_edge_records_endpoints_and_weight():
    g = RoadNetwork()
    g.add_vertices(2)
    eid = g.add_edge(0, 1, 2.5)
    e = g.edge(eid)
    assert (e.source, e.dest, e.weight) == (0, 1, 2.5)


def test_add_edge_rejects_unknown_vertex():
    g = RoadNetwork()
    g.add_vertex()
    with pytest.raises(GraphError):
        g.add_edge(0, 1, 1.0)
    with pytest.raises(GraphError):
        g.add_edge(5, 0, 1.0)


def test_add_edge_rejects_self_loop():
    g = RoadNetwork()
    g.add_vertex()
    with pytest.raises(GraphError):
        g.add_edge(0, 0, 1.0)


def test_negative_weight_rejected():
    g = RoadNetwork()
    g.add_vertices(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 1, -0.5)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_rejected(weight):
    """A NaN or infinite weight makes every path through the edge
    undefined; the graph refuses it like a negative one."""
    g = RoadNetwork()
    g.add_vertices(2)
    with pytest.raises(GraphError, match="non-finite"):
        g.add_edge(0, 1, weight)
    assert g.num_edges == 0


def test_bidirectional_edge_creates_both_directions():
    g = RoadNetwork()
    g.add_vertices(2)
    e1, e2 = g.add_bidirectional_edge(0, 1, 3.0)
    assert g.edge(e1).source == 0 and g.edge(e1).dest == 1
    assert g.edge(e2).source == 1 and g.edge(e2).dest == 0
    assert g.edge(e1).weight == g.edge(e2).weight == 3.0


def test_out_and_in_edges(triangle_graph):
    g = triangle_graph
    assert [e.dest for e in g.out_edges(0)] == [1]
    assert [e.source for e in g.in_edges(0)] == [2]
    assert g.out_degree(1) == 1 and g.in_degree(1) == 1


def test_neighbors(triangle_graph):
    assert triangle_graph.neighbors(0) == [1]


def test_unknown_vertex_and_edge_raise(triangle_graph):
    with pytest.raises(GraphError):
        triangle_graph.vertex(99)
    with pytest.raises(GraphError):
        triangle_graph.edge(99)
    with pytest.raises(GraphError):
        triangle_graph.out_edges(-1)


def test_coordinates_shape(small_graph):
    coords = small_graph.coordinates()
    assert coords.shape == (small_graph.num_vertices, 2)
    assert coords.dtype == np.float64


def test_coordinates_empty_graph():
    assert RoadNetwork().coordinates().shape == (0, 2)


def test_csr_out_matches_adjacency(triangle_graph):
    indptr, targets, weights, edge_ids = triangle_graph.csr_out()
    assert list(indptr) == [0, 1, 2, 3]
    assert list(targets) == [1, 2, 0]
    assert list(weights) == [1.0, 2.0, 3.0]
    assert list(edge_ids) == [0, 1, 2]


def test_csr_in_holds_sources(triangle_graph):
    indptr, sources, weights, _ = triangle_graph.csr_in()
    # in-edge of vertex 0 comes from vertex 2 with weight 3
    assert list(sources[indptr[0] : indptr[1]]) == [2]
    assert list(weights[indptr[0] : indptr[1]]) == [3.0]


def test_csr_invalidated_on_mutation(triangle_graph):
    g = triangle_graph
    g.csr_out()
    v = g.add_vertex()
    g.add_edge(0, v, 1.0)
    indptr, targets, _, _ = g.csr_out()
    assert len(indptr) == g.num_vertices + 1
    assert len(targets) == g.num_edges


def test_reversed_flips_edges(triangle_graph):
    r = triangle_graph.reversed()
    assert r.num_vertices == 3 and r.num_edges == 3
    assert [e.dest for e in r.out_edges(1)] == [0]


def test_subgraph_induces_edges(small_graph):
    keep = list(range(10))
    sub, mapping = small_graph.subgraph(keep)
    assert sub.num_vertices == 10
    assert set(mapping.keys()) == set(keep)
    kept = set(keep)
    expected = sum(
        1 for e in small_graph.edges() if e.source in kept and e.dest in kept
    )
    assert sub.num_edges == expected


def test_subgraph_preserves_weights(line_graph):
    sub, mapping = line_graph.subgraph([1, 2])
    assert sub.num_edges == 2
    assert all(e.weight == 1.0 for e in sub.edges())


def test_strongly_connected_positive(small_graph):
    assert small_graph.is_strongly_connected()


def test_strongly_connected_negative():
    g = RoadNetwork()
    g.add_vertices(2)
    g.add_edge(0, 1, 1.0)  # no way back
    assert not g.is_strongly_connected()


def test_single_vertex_is_connected():
    g = RoadNetwork()
    g.add_vertex()
    assert g.is_strongly_connected()


def test_total_weight(triangle_graph):
    assert triangle_graph.total_weight() == 6.0
