"""Wall-clock benchmark of the G-Grid reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_tick --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the self-time table of a traced run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every sampled
answer matched the oracle and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def metrics_of(result: dict[str, Any], trace: bool) -> dict[str, tuple[float, str]]:
    return result["per_layer"] if trace else result["end_to_end"]


def result_line(result: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The final JSON object of a run."""
    from perfbench.harness import PRINTED_ONLY

    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics_of(result, trace).items()
            if name not in PRINTED_ONLY
        },
    }


def self_time_table(table: dict[str, Any]) -> list[str]:
    """Self time per span name; the rows plus the unattributed remainder
    add up to the traced wall time."""
    wall = table["traced_wall_s"]
    lines = [
        f"per-layer self time over {wall:.3f} s traced wall "
        f"({table['queries']} queries, {table['updates']} updates)",
        f"  {'span':<28}{'calls':>10}{'total ms':>12}{'self ms':>12}{'self %':>9}",
    ]
    rows = sorted(table["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, s in rows:
        lines.append(
            f"  {name:<28}{s['calls']:>10}{s['total_s'] * 1e3:>12.1f}"
            f"{s['self_s'] * 1e3:>12.1f}{s['self_s'] / wall * 100:>8.1f}%"
        )
    rest = table["unattributed_s"]
    lines.append(
        f"  {'unattributed':<28}{'':>22}{rest * 1e3:>12.1f}{rest / wall * 100:>8.1f}%"
    )
    lines.append(f"  {'traced wall':<28}{'':>22}{wall * 1e3:>12.1f}{100:>8.1f}%")
    lines.append("  by layer: " + ", ".join(
        f"{layer} {row['self_s'] * 1e3:.1f} ms / {row['calls']} calls"
        for layer, row in sorted(table["layers"].items())
    ))
    return lines


def report_lines(result: dict[str, Any], trace: bool) -> list[str]:
    """Everything a run prints before its JSON line."""
    from perfbench.hostspeed import REFERENCE_S

    env, lat, oracle = result["env"], result["latency"], result["oracle"]
    lines = [
        "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
        f"timed rounds: {result['rounds']}; latency samples: {lat['samples']}; "
        f"knn_tail_ms is p{lat['percentile']:g} with {lat['beyond_tail']} samples "
        f"beyond it",
        f"oracle: {oracle['checked']} sampled answers checked, "
        f"{oracle['mismatches']} mismatched; shed {result['shed']}; "
        f"error_rate {result['error_rate']:.6g} "
        f"({result['failed']} of {result['attempted']} operations failed)",
        "counted window: " + json.dumps(result["window"], sort_keys=True),
        "ms per query, by timed round: "
        + " ".join(f"{v:g}" for v in result["round_ms_per_query"]),
    ]
    metrics = metrics_of(result, trace)
    if trace:
        table = result["table"]
        lines.append("spans of the last traced set-up:")
        lines += [
            f"  {name:<28}{s['calls']:>10}{s['total_s'] * 1e3:>12.1f}"
            f"{s['self_s'] * 1e3:>12.1f}"
            for name, s in sorted(result["setup_spans"].items())
        ]
        lines += self_time_table(table)
        lines.append(
            f"tracing overhead: {metrics['tracing.overhead_pct'][0]:.1f}% "
            f"(traced {table['traced_wall_s'] / table['queries'] * 1e3:.3f} ms/query, "
            f"untraced {table['untraced_wall_s'] / table['untraced_queries'] * 1e3:.3f}"
            f" ms/query)"
        )
    factors = result["host_factor"]
    lines.append(
        f"host factor (probe time / {REFERENCE_S * 1e3:g} ms): builds "
        + " ".join(f"{f:.3f}" for f in factors["build"])
        + "; loads " + " ".join(f"{f:.3f}" for f in factors["load"])
        + "; timed rounds " + " ".join(f"{f:.3f}" for f in factors["timed"])
    )
    if not trace:
        lines.append(
            "wall figures are at reference host speed, raw values in brackets"
        )
    raw = result["raw_end_to_end"]
    for name, (value, unit) in metrics.items():
        line = f"  {name:<34} {value:>14.6g} {unit}"
        if not trace and raw[name][0] != value:
            line += f"  [raw {raw[name][0]:.6g}]"
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    trace = bool(args.trace)
    result = run(
        args.workload, args.seed, args.seconds, trace, out_dir=ROOT / ".perfbench_out"
    )
    for error in result["errors"]:
        print(error, file=sys.stderr)
    print("\n".join(report_lines(result, trace)))
    print(json.dumps(result_line(result, trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
