#!/usr/bin/env python3
"""Dispatch console: the library's extension features in one scenario.

A dispatcher watches a delivery fleet on the Colorado network:

* **range queries** — "every vehicle within radius r of the depot"
  (exact, built on the same lazy cleaning as kNN);
* **batched queries** — several dispatch points answered in one GPU
  pass (the paper's multi-query parallelism);
* **background maintenance** — a backlog-bounded cleaning policy keeps
  cold-region latency spikes in check;
* **diagnostics** — live backlog/occupancy/device counters;
* **persistence** — snapshot the index, restart, keep serving.

Run:
    python examples/dispatch_console.py
"""

import tempfile
from pathlib import Path

from repro import GGridIndex, NetworkLocation
from repro.core.diagnostics import snapshot
from repro.mobility import MotoGenerator, random_locations
from repro.persist import load_index, save_index
from repro.server.maintenance import BacklogCleaning

FLEET = 150
DURATION = 45.0


def main() -> None:
    from repro.roadnet import load_dataset

    graph = load_dataset("COL")
    print(f"Colorado (scaled): {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")

    index = GGridIndex(graph)
    policy = BacklogCleaning(max_backlog=64)
    generator = MotoGenerator(graph, FLEET, update_frequency=1.0, seed=31)
    index.bulk_load(generator.initial_placements(), t=0.0)

    # live update stream with background maintenance
    for message in generator.messages(duration=DURATION):
        index.ingest(message)
        policy.on_update(index, message.t)

    stats = snapshot(index)
    print(f"\nafter {stats['messages_ingested']} updates:")
    print(f"  backlog: {stats['backlog_messages']} messages "
          f"(max {stats['backlog_max_cell']} in one cell; policy swept "
          f"{policy.cells_cleaned} cells)")
    print(f"  device: {stats['gpu_kernels']} kernels, "
          f"{stats['gpu_bytes'] / 1024:.1f} KiB moved")

    # range query around the depot
    depot = NetworkLocation(0, 0.0)
    for radius in (2.0, 5.0):
        hits = index.range_query(depot, radius, t_now=DURATION)
        print(f"\nvehicles within {radius:.0f} of the depot: "
              f"{len(hits.entries)} (cleaned {hits.cells_cleaned} cells)")
        for e in hits.entries[:4]:
            print(f"  vehicle {e.obj} at {e.distance:.2f}")

    # batched kNN from three dispatch points in one GPU pass
    points = random_locations(graph, 3, seed=77)
    batch = index.knn_batch([(p, 3) for p in points], t_now=DURATION)
    print("\nbatched dispatch (3 points, one shared GPU pass):")
    for i, answer in enumerate(batch):
        nearest = ", ".join(f"{e.obj}@{e.distance:.2f}" for e in answer.entries)
        print(f"  point {i}: {nearest}")

    # snapshot, restart, keep serving identically
    path = Path(tempfile.mkdtemp()) / "dispatch.json"
    save_index(index, path)
    restored = load_index(path)
    before = index.knn(depot, 3, t_now=DURATION).entries
    after = restored.knn(depot, 3, t_now=DURATION).entries
    same = [(e.obj, e.distance) for e in before] == [
        (e.obj, e.distance) for e in after
    ]
    print(f"\nsnapshot -> restart: answers identical: {same} "
          f"({path.stat().st_size / 1024:.1f} KiB snapshot)")


if __name__ == "__main__":
    main()
