"""Directed weighted road-network graph.

The paper (Section II) models a road network as a directed graph
``G = <V, E>`` where an edge ``e_ij`` carries a travel cost ``w``.
Undirected roads are represented by two directed edges of equal weight.

:class:`RoadNetwork` is the single graph container used by every other
subsystem (G-Grid, the baselines, the generators and the mobility layer).
It keeps adjacency in plain Python lists for easy mutation during
construction and can be *frozen* into numpy CSR arrays for fast repeated
shortest-path computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphError


@dataclass(frozen=True)
class Vertex:
    """A road-network vertex.

    Attributes:
        id: dense integer id in ``[0, num_vertices)``.
        x: longitude-like coordinate (arbitrary units).
        y: latitude-like coordinate (arbitrary units).
    """

    id: int
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class Edge:
    """A directed road-network edge ``source -> dest`` with weight ``w``.

    Mirrors the paper's edge tuple ``e = <id, v_s, w>`` (the destination is
    implicit from where the edge is stored in the graph grid; here we keep
    it explicit for convenience).
    """

    id: int
    source: int
    dest: int
    weight: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.weight):
            raise GraphError(f"edge {self.id} has non-finite weight {self.weight}")
        if self.weight < 0:
            raise GraphError(f"edge {self.id} has negative weight {self.weight}")


@dataclass
class _Csr:
    """Frozen CSR adjacency used by the hot shortest-path loops."""

    indptr: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    edge_ids: np.ndarray


class RoadNetwork:
    """A mutable directed graph with integer vertex ids and dense edge ids.

    Vertices must be added before edges referencing them.  Edge ids are
    assigned sequentially by :meth:`add_edge`, which matches the paper's
    assumption that an edge id keys the inverted index of the graph grid.

    Example:
        >>> g = RoadNetwork()
        >>> a, b = g.add_vertex(0.0, 0.0), g.add_vertex(1.0, 0.0)
        >>> eid = g.add_edge(a, b, 5.0)
        >>> g.edge(eid).weight
        5.0
    """

    def __init__(self) -> None:
        self._vertices: list[Vertex] = []
        self._edges: list[Edge] = []
        self._out: list[list[int]] = []  # vertex id -> list of edge ids
        self._in: list[list[int]] = []  # vertex id -> list of edge ids
        self._csr_out: _Csr | None = None
        self._csr_in: _Csr | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, x: float = 0.0, y: float = 0.0) -> int:
        """Add a vertex at coordinates ``(x, y)`` and return its id."""
        vid = len(self._vertices)
        self._vertices.append(Vertex(vid, x, y))
        self._out.append([])
        self._in.append([])
        self._invalidate()
        return vid

    def add_vertices(self, count: int) -> list[int]:
        """Add ``count`` vertices at the origin; return their ids."""
        return [self.add_vertex() for _ in range(count)]

    def add_edge(self, source: int, dest: int, weight: float) -> int:
        """Add a directed edge and return its id.

        Raises:
            GraphError: if an endpoint does not exist, the weight is
                negative or not finite, or the edge is a self-loop
                (road networks have no zero-length loops).
        """
        self._check_vertex(source)
        self._check_vertex(dest)
        if source == dest:
            raise GraphError(f"self-loop at vertex {source} is not allowed")
        eid = len(self._edges)
        self._edges.append(Edge(eid, source, dest, float(weight)))
        self._out[source].append(eid)
        self._in[dest].append(eid)
        self._invalidate()
        return eid

    def add_bidirectional_edge(self, u: int, v: int, weight: float) -> tuple[int, int]:
        """Add ``u -> v`` and ``v -> u`` with the same weight.

        This is the paper's recipe for modelling undirected roads.
        """
        return self.add_edge(u, v, weight), self.add_edge(v, u, weight)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex(self, vid: int) -> Vertex:
        self._check_vertex(vid)
        return self._vertices[vid]

    def edge(self, eid: int) -> Edge:
        if not 0 <= eid < len(self._edges):
            raise GraphError(f"unknown edge id {eid}")
        return self._edges[eid]

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def out_edges(self, vid: int) -> list[Edge]:
        """Edges whose *source* is ``vid``."""
        self._check_vertex(vid)
        return [self._edges[e] for e in self._out[vid]]

    def in_edges(self, vid: int) -> list[Edge]:
        """Edges whose *destination* is ``vid``.

        The graph grid stores edges grouped by destination vertex
        (Section III-A), so this accessor is on the index build path.
        """
        self._check_vertex(vid)
        return [self._edges[e] for e in self._in[vid]]

    def out_degree(self, vid: int) -> int:
        self._check_vertex(vid)
        return len(self._out[vid])

    def in_degree(self, vid: int) -> int:
        self._check_vertex(vid)
        return len(self._in[vid])

    def neighbors(self, vid: int) -> list[int]:
        """Destination vertices of the out-edges of ``vid`` (with repeats)."""
        return [e.dest for e in self.out_edges(vid)]

    def coordinates(self) -> np.ndarray:
        """Return an ``(n, 2)`` float array of vertex coordinates."""
        if not self._vertices:
            return np.zeros((0, 2), dtype=np.float64)
        return np.array([(v.x, v.y) for v in self._vertices], dtype=np.float64)

    def total_weight(self) -> float:
        return float(sum(e.weight for e in self._edges))

    # ------------------------------------------------------------------
    # frozen CSR views
    # ------------------------------------------------------------------
    def csr_out(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays over out-edges: ``(indptr, targets, weights, edge_ids)``.

        Built lazily and cached; any mutation invalidates the cache.
        """
        if self._csr_out is None:
            self._csr_out = self._build_csr(self._out, by_dest=False)
        c = self._csr_out
        return c.indptr, c.targets, c.weights, c.edge_ids

    def csr_in(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays over in-edges: targets hold the *source* vertices."""
        if self._csr_in is None:
            self._csr_in = self._build_csr(self._in, by_dest=True)
        c = self._csr_in
        return c.indptr, c.targets, c.weights, c.edge_ids

    def _build_csr(self, adj: list[list[int]], by_dest: bool) -> _Csr:
        n = len(self._vertices)
        indptr = np.zeros(n + 1, dtype=np.int64)
        for vid in range(n):
            indptr[vid + 1] = indptr[vid] + len(adj[vid])
        m = int(indptr[-1])
        targets = np.zeros(m, dtype=np.int64)
        weights = np.zeros(m, dtype=np.float64)
        edge_ids = np.zeros(m, dtype=np.int64)
        pos = 0
        for vid in range(n):
            for eid in adj[vid]:
                e = self._edges[eid]
                targets[pos] = e.source if by_dest else e.dest
                weights[pos] = e.weight
                edge_ids[pos] = eid
                pos += 1
        return _Csr(indptr, targets, weights, edge_ids)

    # ------------------------------------------------------------------
    # derived graphs / queries
    # ------------------------------------------------------------------
    def reversed(self) -> "RoadNetwork":
        """Return a new graph with every edge direction flipped.

        Edge ids are *not* preserved (they are re-assigned densely), which
        is fine for the reverse-search uses inside the library.
        """
        g = RoadNetwork()
        for v in self._vertices:
            g.add_vertex(v.x, v.y)
        for e in self._edges:
            g.add_edge(e.dest, e.source, e.weight)
        return g

    def subgraph(self, vertex_ids: Iterable[int]) -> tuple["RoadNetwork", dict[int, int]]:
        """Induced subgraph over ``vertex_ids``.

        Returns the new graph and a mapping ``old id -> new id``.
        """
        keep = sorted(set(vertex_ids))
        mapping: dict[int, int] = {}
        g = RoadNetwork()
        for old in keep:
            v = self.vertex(old)
            mapping[old] = g.add_vertex(v.x, v.y)
        kept = set(keep)
        for e in self._edges:
            if e.source in kept and e.dest in kept:
                g.add_edge(mapping[e.source], mapping[e.dest], e.weight)
        return g, mapping

    def is_strongly_connected(self) -> bool:
        """True iff every vertex reaches every other vertex.

        Uses two BFS passes (forward and reverse) from vertex 0.
        """
        n = self.num_vertices
        if n <= 1:
            return True
        return self._bfs_reach(0, self._out) == n and self._bfs_reach(0, self._in) == n

    def _bfs_reach(self, start: int, adj: list[list[int]]) -> int:
        seen = bytearray(self.num_vertices)
        seen[start] = 1
        frontier = [start]
        count = 1
        while frontier:
            nxt: list[int] = []
            for vid in frontier:
                for eid in adj[vid]:
                    e = self._edges[eid]
                    other = e.dest if adj is self._out else e.source
                    if not seen[other]:
                        seen[other] = 1
                        count += 1
                        nxt.append(other)
            frontier = nxt
        return count

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_vertex(self, vid: int) -> None:
        if not 0 <= vid < len(self._vertices):
            raise GraphError(f"unknown vertex id {vid}")

    def _invalidate(self) -> None:
        self._csr_out = None
        self._csr_in = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoadNetwork(|V|={self.num_vertices}, |E|={self.num_edges})"
