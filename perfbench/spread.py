"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on each named workload and prints, per
metric, the median and the distance between the first and third
quartiles as a share of the median -- the figure each metric's
``bound`` in ``BENCHMARK.json`` must stay above::

    python3 perfbench/spread.py --workloads fleet_tick dispatch_burst --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line)
            if proc.returncode or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            ), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {workload:<16} {name:<28} median {med:12.5g}  "
                  f"spread {spread:6.3f}  bound {bounds.get(name, float('nan'))}")
    return status


if __name__ == "__main__":
    sys.exit(main())
