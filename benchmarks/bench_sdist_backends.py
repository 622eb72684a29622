"""Extension bench: SDist backend comparison (lockstep vs vectorized).

Both backends compute identical restricted distances; the vectorised
backend exists to make the *host* simulation faster on large candidate
sets.  Their charged GPU work is identical only without early exit: the
lockstep kernel relaxes in place within a round while the vectorized one
relaxes from the previous round's array, so with early exit on they can
stop after different round counts.  This bench verifies answer equality
on a full replay and reports the wall-time and modelled-time difference.
"""

import time

from repro.bench.harness import cached_workload
from repro.bench.reporting import format_table, save_results
from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.roadnet.datasets import load_dataset
from repro.server.server import QueryServer


def _run() -> list[dict]:
    graph = load_dataset("USA")
    workload = cached_workload("USA", 2000, 15.0, 6, 64, 1.0, 7)
    rows = []
    answers = {}
    for backend in ("lockstep", "vectorized"):
        index = GGridIndex(graph, GGridConfig(sdist_backend=backend))
        server = QueryServer(index)
        t0 = time.perf_counter()
        report, ans = server.replay(workload, collect_answers=True)
        wall = time.perf_counter() - t0
        answers[backend] = [
            [round(d, 9) for d in a.distances()] for a in ans
        ]
        rows.append(
            {
                "backend": backend,
                "replay_wall_s": wall,
                "modeled_amortized_s": report.amortized_s(),
                "gpu_s": report.gpu_seconds,
            }
        )
    assert answers["lockstep"] == answers["vectorized"]
    return rows


def test_sdist_backends(run_once):
    rows = run_once(_run)
    print("\n" + format_table(rows, "Extension: SDist backend comparison"))
    save_results("sdist_backends", rows)

    by = {r["backend"]: r for r in rows}
    # same kernels and transfers; only the early-exit round counts differ
    ratio = by["vectorized"]["gpu_s"] / by["lockstep"]["gpu_s"]
    assert 0.5 < ratio < 2.0
