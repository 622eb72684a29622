"""Vectorised GPU_SDist backend.

:func:`repro.core.sdist.sdist_kernel` walks the vertex elements in a
Python loop — faithful to the per-thread kernel but slow on large
candidate sets.  This backend performs the same restricted Bellman–Ford
with numpy array operations: all edges of the candidate subgraph are
relaxed per round with one ``minimum.at`` scatter, which is also exactly
how a real GPU executes the kernel (one lane per edge slot, lockstep
rounds, no write conflicts beyond atomic-min semantics).

When the caller passes a :class:`~repro.core.graph_grid.CellSlab` (the
packed array view sliced from the grid's one-time CSR form), the kernel
consumes its pre-flattened local-index arrays directly — no per-launch
``index_of`` rebuild, no per-edge Python loop.  A plain element list
still works (the flattening happens here, as before), which keeps the
kernel callable on hand-built subgraphs in tests.

Selected via ``GGridConfig.sdist_backend = "vectorized"``; distances are
bit-identical to the lockstep backend (property-tested).  The charged
GPU work is identical only when every round runs (``early_exit=False``):
the lockstep kernel relaxes in place, so a round can already see values
written earlier in that round, while this kernel relaxes from the
previous round's array.  With early exit on, the two can therefore stop
after different round counts and charge different ``lane_ops``.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph_grid import CellSlab, GridVertexElement
from repro.simgpu.kernel import KernelContext

_INF = float("inf")


def _flatten_elements(
    elements: list[GridVertexElement], vertices: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, int]]:
    """Legacy per-launch flattening for plain element lists."""
    index_of = {v: i for i, v in enumerate(vertices)}
    sources = []
    targets = []
    weights = []
    for element in elements:
        ti = index_of[element.real_id]
        for rec in element.edges:
            si = index_of.get(rec.source)
            if si is None:
                continue  # source outside the shipped cells
            sources.append(si)
            targets.append(ti)
            weights.append(rec.weight)
    return (
        np.array(sources, dtype=np.int64),
        np.array(targets, dtype=np.int64),
        np.array(weights, dtype=np.float64),
        index_of,
    )


def sdist_kernel_vectorized(
    ctx: KernelContext,
    elements: list[GridVertexElement] | CellSlab,
    vertices: list[int],
    seeds: dict[int, float],
    delta_v: int,
    early_exit: bool = True,
) -> dict[int, float]:
    """Drop-in replacement for :func:`repro.core.sdist.sdist_kernel`.

    Same signature and results; the relaxation loop runs as numpy
    scatter operations instead of per-element Python, and charges
    ``delta_v`` slot scans per thread per round it ran.
    ``elements`` may be a :class:`CellSlab`, in which case the flattened
    arrays come straight from the packed grid (``vertices`` must then be
    the slab's own vertex list, which the query processor guarantees).
    """
    n = len(vertices)
    dist = np.full(n, np.inf)
    if isinstance(elements, CellSlab):
        src, tgt, wgt = elements.src_local, elements.tgt_local, elements.weights
        for v, cost in seeds.items():
            i = elements.local_of(v)
            if i is not None:
                dist[i] = min(dist[i], cost)
    else:
        src, tgt, wgt, index_of = _flatten_elements(elements, vertices)
        for v, cost in seeds.items():
            i = index_of.get(v)
            if i is not None:
                dist[i] = min(dist[i], cost)

    rounds_run = 0
    for _ in range(max(1, n)):
        rounds_run += 1
        before = dist.copy()
        if len(src):
            candidate = dist[src] + wgt
            np.minimum.at(dist, tgt, candidate)
        ctx.sync_threads()
        if early_exit and np.array_equal(before, dist):
            break
    ctx.charge(rounds_run * delta_v, n_threads=max(1, len(elements)))
    return {
        vertices[i]: float(dist[i]) for i in range(n) if dist[i] < _INF
    }
