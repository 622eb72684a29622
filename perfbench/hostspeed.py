"""A fixed task that follows the host's speed during a run.

The benchmark runs on shared machines whose speed drifts by up to 2x
over minutes, which no statistic taken inside one run can remove.
:class:`HostSpeed` times a task the benchmark owns -- a pure-Python
Dijkstra over its own seeded grid, which no change to the program can
make faster or slower -- before and after every timed round and every
set-up.  Dividing a round's wall time by its factor (the probe's time
over ``REFERENCE_S``) gives the time it would have taken on a host on
which the probe takes ``REFERENCE_S``.  The raw figures and the factors
are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

#: probe time of the host the scaled figures refer to
REFERENCE_S = 0.015

_SIDE = 90
_SEED = 12345


class HostSpeed:
    """The probe task and its timing."""

    def __init__(self) -> None:
        rng = random.Random(_SEED)
        self._adj: list[list[tuple[int, float]]] = [[] for _ in range(_SIDE * _SIDE)]
        for r in range(_SIDE):
            for c in range(_SIDE):
                for rr, cc in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c)):
                    if 0 <= rr < _SIDE and 0 <= cc < _SIDE:
                        self._adj[r * _SIDE + c].append(
                            (rr * _SIDE + cc, rng.uniform(1.0, 10.0))
                        )

    def probe(self) -> float:
        """Seconds the task takes once, with the collector paused so the
        program's heap cannot slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._dijkstra()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """How much slower than the reference host this host runs now
        (the mean of two probes)."""
        return (self.probe() + self.probe()) / 2 / REFERENCE_S

    def _dijkstra(self) -> int:
        adj = self._adj
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        done: set[int] = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for u, w in adj[v]:
                nd = d + w
                if nd < dist.get(u, float("inf")):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        return len(done)
