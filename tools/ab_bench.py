"""A/B benchmark of two checkouts: alternating runs of each one's own benchmark.

    python3 tools/ab_bench.py PARENT CHANGE --pairs 10 --seconds 8 --out BENCH_26.json
    python3 tools/ab_bench.py CHECKOUT --aa --pairs 5 --seconds 8 --out aa.json

``PARENT`` and ``CHANGE`` are checkout directories, for example plain
copies of two commits.  For each workload, pair k runs both sides one after
the other, the parent first in even pairs and the change first in odd ones.
Every run is a fresh interpreter running that checkout's own
``bench/run_bench.py --workload W --seconds S --trace 0``; its last line of
standard output is the run's result.  ``--trace 1`` adds one traced run per
side and workload, for the per-layer metrics.

Per workload and end-to-end metric the output holds both sides' runs, their
median and quartiles, the change in per cent, the median of the in-pair
ratios change/parent, the pairs the change wins, and ``beyond_parent_iqr``:
whether the medians differ by more than the parent's interquartile range in
the better direction.  ``--aa`` runs one checkout against itself and also
reports how often a verdict comes out beyond the parent's IQR although
nothing changed: the noise floor a verdict is judged against.

Only the standard library is used, and nothing under ``src/`` imports this.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: Time one benchmark run may take beyond its ``--seconds``.
RUN_GRACE_S = 600

STATISTICS_NOTE = (
    "median and quartiles (statistics.quantiles, method inclusive) per side over the pairs; "
    "change_wins counts pairs in which the change is better; pair_ratio_median is the median "
    "of change/parent within a pair; beyond_parent_iqr is true when the medians differ by "
    "more than the parent's q3-q1 in the better direction"
)
PAIR_ORDER = ("alternating: parent first in even pairs, change first in odd pairs; "
              "each run a fresh interpreter, one at a time")


def spread(runs: list[float]) -> dict:
    """Median and quartiles of ``runs``; one run is its own quartiles."""
    if len(runs) < 2:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0], "n": len(runs)}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(runs)}


def compare(parent_runs: list[float], change_runs: list[float], better: str) -> dict:
    """The verdict on one metric over paired runs; ``better`` is "lower" or "higher"."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of runs on each side")
    sign = -1.0 if better == "lower" else 1.0
    parent, change = spread(parent_runs), spread(change_runs)
    gains = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    ratios = [c / p for p, c in zip(parent_runs, change_runs) if p]
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "change_pct": (change["median"] / parent["median"] - 1.0) * 100.0
        if parent["median"] else None,
        "pair_ratio_median": statistics.median(ratios) if ratios else None,
        "change_wins": sum(1 for g in gains if g > 0),
        "ties": sum(1 for g in gains if g == 0),
        "beyond_parent_iqr": sign * (change["median"] - parent["median"])
        > parent["q3"] - parent["q1"],
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def noise_floor(workloads: dict) -> dict:
    """How often an A/A comparison's verdicts came out beyond the parent's IQR."""
    per_metric: dict[str, list[bool]] = {}
    for result in workloads.values():
        for name, verdict in result["end_to_end"].items():
            per_metric.setdefault(name, []).append(verdict["beyond_parent_iqr"])
    verdicts = [v for vs in per_metric.values() for v in vs]
    return {
        "beyond_parent_iqr": {name: f"{sum(vs)}/{len(vs)}" for name, vs in per_metric.items()},
        "share": sum(verdicts) / len(verdicts) if verdicts else None,
    }


def declared(checkout: Path) -> dict:
    """The checkout's BENCHMARK.json, or an empty declaration."""
    path = checkout / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def bench_once(checkout: Path, workload: str, seconds: float, trace: bool) -> dict:
    """One fresh-interpreter run of the checkout's own benchmark."""
    cmd = [sys.executable, str(checkout / "bench" / "run_bench.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + RUN_GRACE_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing (exit {done.returncode}):\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_sha(checkout: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def run_workload(parent: Path, change: Path, workload: str, pairs: int, seconds: float,
                 trace: bool, better: dict[str, str]) -> dict:
    sides = {"parent": parent, "change": change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench_once(sides[side], workload, seconds, False)
            results[side].append(result)
            metrics = {n: round(m["value"], 4) for n, m in result["metrics"].items()}
            print(f"[pair {k}] {workload} {side}: failed={result['failed']} {metrics}",
                  file=sys.stderr)
    names = list(results["parent"][0]["metrics"])
    out = {
        "pairs": pairs,
        "failed_cells": {s: sum(r["failed"] for r in rs) for s, rs in results.items()},
        "attempted_cells": {s: sum(r["attempted"] for r in rs) for s, rs in results.items()},
        "end_to_end": {
            name: {
                "unit": results["parent"][0]["metrics"][name]["unit"],
                **compare([r["metrics"][name]["value"] for r in results["parent"]],
                          [r["metrics"][name]["value"] for r in results["change"]],
                          better.get(name, "lower")),
            }
            for name in names
        },
    }
    if trace:
        traced = {side: bench_once(path, workload, seconds, True) for side, path in sides.items()}
        out["per_layer"] = {
            name: {"unit": m["unit"], "better": better.get(name, "lower"),
                   "parent": traced["parent"]["metrics"].get(name, {}).get("value"),
                   "change": m["value"]}
            for name, m in traced["change"]["metrics"].items()
        }
        out["failed_cells_traced"] = {s: r["failed"] for s, r in traced.items()}
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent checkout")
    p.add_argument("change", type=Path, nargs="?", help="the changed checkout (not with --aa)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0, help="measuring time per run")
    p.add_argument("--workload", action="append",
                   help="a workload to run (repeatable; default: every declared one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also one traced run per side and workload")
    p.add_argument("--aa", action="store_true", help="run the parent against itself")
    p.add_argument("--note", default="", help="what the change does, for the output file")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if args.aa == (args.change is not None):
        p.error("give CHANGE, or --aa without it")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    parent = args.parent.resolve()
    change = parent if args.aa else args.change.resolve()
    for checkout in {parent, change}:
        if not (checkout / "bench" / "run_bench.py").is_file():
            p.error(f"{checkout} has no bench/run_bench.py")
    spec = declared(change)
    better = {m["name"]: m["better"]
              for m in (*spec.get("end_to_end", ()), *spec.get("per_layer", ()))}
    workloads = args.workload or [w["name"] for w in spec.get("workloads", ())]
    if not workloads:
        p.error("no --workload given and none declared in BENCHMARK.json")
    doc = {
        "change": "A/A: the parent against itself" if args.aa else args.note,
        "parent": git_sha(parent),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "command": f"python3 bench/run_bench.py --workload W --seconds {args.seconds:g} "
                   "--trace 0",
        "seconds": args.seconds,
        "pair_order": PAIR_ORDER,
        "statistics": STATISTICS_NOTE,
        "workloads": {},
    }
    for workload in workloads:
        doc["workloads"][workload] = run_workload(parent, change, workload, args.pairs,
                                                  args.seconds, bool(args.trace), better)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.aa:
        doc["noise_floor"] = noise_floor(doc["workloads"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(n for w in doc["workloads"].values() for n in w["failed_cells"].values())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
