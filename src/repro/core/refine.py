"""Refine_kNN: CPU refinement of the GPU candidate set (Algorithm 6).

The GPU phase only saw the candidate cells, so two things can be missing:
objects *outside* those cells that are actually nearer than the k-th
candidate, and *shorter paths* that leave the candidate subgraph and come
back.  Both are recovered from the unresolved vertices: for each boundary
vertex ``v`` with restricted distance ``dist(q, v) < l``, a bounded
Dijkstra seeded at ``dist(q, v)`` with bound ``l`` explores v's
unresolved range on the full graph and scores every object found there.  Each unresolved
vertex is independent, so the paper runs them on parallel CPU threads;
this implementation runs them sequentially and lets the metrics layer
model the division across ``cpu_workers`` (see DESIGN.md §2).

At paper scale the per-search ``dict`` allocations and per-object scoring
dominate, so the searches share one full-size distance array
(:class:`~repro.roadnet.dijkstra.BoundedSearch`, reset by version stamp)
and objects are scored cell-at-a-time off the object table's cached
columns — same values, same results (DESIGN.md §16).

Correctness sketch (tested against a brute-force oracle): any true
shortest path to an object not fully inside the candidate cells first
exits the cell set at some boundary vertex ``u``; its in-set prefix is at
least the restricted ``dist[u]``, so the remaining suffix fits inside
``u``'s unresolved range whenever the object beats the bound ``l``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.object_table import ObjectTable
from repro.core.ordering import rank_results
from repro.obs.tracing import span
from repro.roadnet.dijkstra import BoundedSearch
from repro.roadnet.graph import RoadNetwork

_INF = float("inf")


class RefineScratch:
    """Reusable per-graph arrays for repeated refinement passes.

    Holds the shared-distance-array bounded search plus the two gather
    tables refinement scores with: vertex → cell and edge → source
    vertex.  One instance per :class:`~repro.core.knn.KnnProcessor`;
    building it is ``O(|V| + |E|)`` once, after which a refinement pass
    allocates nothing proportional to the graph.
    """

    def __init__(self, graph: RoadNetwork, cell_of_vertex: Sequence[int]) -> None:
        self.search = BoundedSearch(graph)
        self.cell_of_vertex = np.asarray(cell_of_vertex, dtype=np.int64)
        n = graph.num_edges
        self.edge_source = np.fromiter(
            (graph.edge(e).source for e in range(n)), np.int64, n
        )


def refine_knn(
    graph: RoadNetwork,
    object_table: ObjectTable,
    cell_of_vertex: Sequence[int],
    candidates: dict[int, float],
    unresolved: list[tuple[int, float]],
    k: int,
    l_bound: float,
    scratch: RefineScratch | None = None,
) -> tuple[list[tuple[int, float]], int]:
    """Produce the final kNN from candidates plus unresolved ranges.

    Args:
        graph: the full road network.
        object_table: eager latest locations (used to enumerate objects
            inside an unresolved range by cell).
        cell_of_vertex: vertex id -> grid cell, to map settled vertices to
            the cells whose objects must be scored.
        candidates: ``{obj: restricted distance}`` from ``GPU_First_k``
            (may contain more than k entries; infinite distances allowed).
        unresolved: ``(vertex, dist(q, vertex))`` pairs from
            ``GPU_Unresolved``.
        k: result size.
        l_bound: the k-th smallest candidate distance ``l``.
        scratch: reusable per-graph arrays; built ad hoc when omitted
            (the query processor passes a long-lived one).

    Returns:
        ``(results, vertices_settled)`` where results is at most ``k``
        ``(obj, distance)`` pairs sorted ascending and vertices_settled
        counts the total Dijkstra work done (for the metrics layer).
    """
    best: dict[int, float] = dict(candidates)
    settled_total = 0
    if unresolved:
        if scratch is None:
            scratch = RefineScratch(graph, cell_of_vertex)
        search = scratch.search
    for u, d_qu in unresolved:
        if d_qu >= l_bound:
            continue
        with span("refine_dijkstra") as sp:
            # seeded at dist(q, u): distances continue the restricted
            # sum, so an object reached here scores bit-identically to
            # the same path found inside the candidate cells
            settled = search.run(u, l_bound, origin=d_qu)
            sp.set_attr("vertex", u)
            sp.set_attr("settled", len(settled))
        settled_total += len(settled)
        if not len(settled):
            continue
        touched_cells = np.unique(scratch.cell_of_vertex[settled])
        for cell in touched_cells.tolist():
            cols = object_table.cell_columns(cell)
            if cols is None:
                continue
            sources = scratch.edge_source[cols.edges]
            reached = search.is_settled(sources)
            if not reached.any():
                continue
            # same float64 chain as the scalar path: dist[src] + offset
            d_obj = search.distances(sources) + cols.offsets
            for obj, d in zip(
                cols.objs[reached].tolist(), d_obj[reached].tolist()
            ):
                if d < best.get(obj, _INF):
                    best[obj] = d
    # canonical result order (distance, then object id) — see
    # repro.core.ordering for why every ranking path must agree on ties
    return rank_results(best.items(), k), settled_total
