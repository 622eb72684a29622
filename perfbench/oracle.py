"""Exact kNN by one Dijkstra sweep, and the answer comparator.

The oracle scores the locations the benchmark itself sent, never the
index's object table, so an index that loses or mangles an update is
caught.  Answers are compared by the conformance suite's rule:
distances rounded to 9 decimals must match position by position, and
objects are compared as id sets per rounded distance, because two
searches may sum the same path's weights in a different order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.roadnet.dijkstra import multi_source_dijkstra
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation, entry_costs, location_distance

_INF = float("inf")


def exact_knn(
    graph: RoadNetwork,
    objects: Mapping[int, NetworkLocation],
    query: NetworkLocation,
    k: int,
) -> list[tuple[int, float]]:
    """The k nearest of ``objects`` in ``(distance, id)`` order."""
    dist = multi_source_dijkstra(graph, entry_costs(graph, query))
    scored = [
        (obj, d)
        for obj, loc in objects.items()
        if (d := location_distance(graph, dist, query, loc)) < _INF
    ]
    scored.sort(key=lambda kv: (kv[1], kv[0]))
    return scored[:k]


def _tie_groups(pairs: Sequence[tuple[int, float]]) -> dict[float, set[int]]:
    groups: dict[float, set[int]] = {}
    for obj, d in pairs:
        groups.setdefault(round(d, 9), set()).add(obj)
    return groups


def same_answer(
    got: Sequence[tuple[int, float]], want: Sequence[tuple[int, float]]
) -> bool:
    """Whether ``got`` matches the oracle's ``want``."""
    return [round(d, 9) for _, d in got] == [
        round(d, 9) for _, d in want
    ] and _tie_groups(got) == _tie_groups(want)
