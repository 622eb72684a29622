"""Unit tests for DIMACS graph I/O."""

import gzip

import pytest

from repro.errors import GraphFormatError
from repro.roadnet.dimacs import read_co, read_gr, write_co, write_gr
from repro.roadnet.generators import grid_road_network


def test_roundtrip_gr(tmp_path, small_graph):
    path = tmp_path / "g.gr"
    write_gr(small_graph, path, comment="test graph")
    g = read_gr(path)
    assert g.num_vertices == small_graph.num_vertices
    assert g.num_edges == small_graph.num_edges
    for a, b in zip(g.edges(), small_graph.edges()):
        assert (a.source, a.dest) == (b.source, b.dest)
        assert a.weight == pytest.approx(b.weight)


def test_roundtrip_gzip(tmp_path):
    g0 = grid_road_network(4, 4, seed=2)
    path = tmp_path / "g.gr.gz"
    write_gr(g0, path)
    with gzip.open(path) as fh:  # really gzipped
        assert fh.read(1)
    g = read_gr(path)
    assert g.num_edges == g0.num_edges


def test_roundtrip_coordinates(tmp_path, small_graph):
    gr, co = tmp_path / "g.gr", tmp_path / "g.co"
    write_gr(small_graph, gr)
    write_co(small_graph, co)
    g = read_gr(gr)
    read_co(co, g)
    assert g.vertex(5).x == pytest.approx(small_graph.vertex(5).x)
    assert g.vertex(5).y == pytest.approx(small_graph.vertex(5).y)


def test_read_known_file(tmp_path):
    path = tmp_path / "tiny.gr"
    path.write_text("c comment\np sp 3 2\na 1 2 5\na 2 3 7\n")
    g = read_gr(path)
    assert g.num_vertices == 3
    assert g.edge(0).source == 0 and g.edge(0).dest == 1 and g.edge(0).weight == 5.0


def test_missing_problem_line(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("a 1 2 5\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)


def test_duplicate_problem_line(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 1\np sp 2 1\na 1 2 5\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)


def test_arc_count_mismatch(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 2\na 1 2 5\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)


def test_vertex_out_of_range(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 1\na 1 9 5\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)


def test_unknown_record(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 1\nz 1 2 5\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)


def test_malformed_arc(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 1\na 1 2\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)


def test_bad_coordinate_line(tmp_path, line_graph):
    path = tmp_path / "bad.co"
    path.write_text("v 1 2\n")
    with pytest.raises(GraphFormatError):
        read_co(path, line_graph)


def test_coordinate_for_unknown_vertex(tmp_path, line_graph):
    path = tmp_path / "bad.co"
    path.write_text("v 99 1.0 2.0\n")
    with pytest.raises(GraphFormatError):
        read_co(path, line_graph)


@pytest.mark.parametrize(
    "text,where",
    [
        ("p sp 2 x\na 1 2 5\n", ":1:"),  # non-numeric header
        ("p sp 2 1\na 1 y 5\n", ":2:"),  # non-numeric vertex id
        ("p sp 2 1\na 1 2 w\n", ":2:"),  # non-numeric weight
        ("p sp 2 1\na 1 2 nan\n", ":2:"),  # NaN weight
        ("p sp 2 1\na 1 2 inf\n", ":2:"),  # infinite weight
        ("p sp 2 1\na 1 2 -5\n", ":2:"),  # negative weight
    ],
)
def test_bad_arc_fields_are_format_errors(tmp_path, text, where):
    path = tmp_path / "bad.gr"
    path.write_text(text)
    with pytest.raises(GraphFormatError, match=where):
        read_gr(path)


def test_non_numeric_coordinate_line(tmp_path, line_graph):
    path = tmp_path / "bad.co"
    path.write_text("p aux sp co 2\nv x 1 2\n")
    with pytest.raises(GraphFormatError, match=":2:"):
        read_co(path, line_graph)
    path.write_text("v 1 1 y\n")
    with pytest.raises(GraphFormatError, match=":1:"):
        read_co(path, line_graph)


def test_non_ascii_byte_is_a_format_error(tmp_path, line_graph):
    path = tmp_path / "bad.gr"
    path.write_bytes(b"p sp 2 1\nc caf\xe9\na 1 2 5\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)
    co = tmp_path / "bad.co"
    co.write_bytes(b"v 1 1.0 2.0\xff\n")
    with pytest.raises(GraphFormatError):
        read_co(co, line_graph)


def test_truncated_gzip_is_a_format_error(tmp_path, small_graph):
    path = tmp_path / "g.gr.gz"
    write_gr(small_graph, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GraphFormatError):
        read_gr(path)


def test_not_gzip_is_a_format_error(tmp_path, line_graph):
    path = tmp_path / "g.gr.gz"
    path.write_text("p sp 2 1\na 1 2 5\n")
    with pytest.raises(GraphFormatError):
        read_gr(path)
    co = tmp_path / "g.co.gz"
    co.write_text("v 1 1.0 2.0\n")
    with pytest.raises(GraphFormatError):
        read_co(co, line_graph)
