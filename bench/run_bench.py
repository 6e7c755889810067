"""Benchmark of the vnfsdnsim simulator: timed and traced rounds of one workload.

Run from the repository root:

    python3 bench/run_bench.py --workload flash_crowd --seed 101 --seconds 40 --trace 0
    python3 bench/run_bench.py --quick            # every workload, tiny horizons

A round runs every cell of the workload through ``scenarios.run_scenario``,
emits the result with ``scenarios.emit_results`` and checks the output.
Rounds repeat until the next one would end past ``--seconds``; there are at
least two, so every run also checks that a rerun is byte-identical.  The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count cells, ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics of the traced run (``--trace 1``).
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("flash_crowd", "edge_flood", "host_sweep")
#: Extra fresh interpreters that only set up, for the median of ``setup_s``.
SETUP_PROBES = 6
MIN_ROUNDS = 2


class NoProgram(Exception):
    """The checkout holds no simulator sources to benchmark."""


def import_program() -> None:
    """Import vnfsdnsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "vnfsdnsim" / "__init__.py").is_file():
        raise NoProgram(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vnfsdnsim

    if not Path(vnfsdnsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise NoProgram(f"vnfsdnsim was imported from {vnfsdnsim.__file__}, not {SRC}")


def setup(workload: str, seed: int | None, quick: bool = False):
    """Import, build and validate the workload's config, load the targets.

    Returns (seconds taken, config tree, calibration targets).
    """
    t0 = perf_counter()
    import_program()
    from vnfsdnsim import config, scenarios

    import workloads

    w = workloads.WORKLOADS[workload]
    tree = workloads.build_tree(w, w.seed if seed is None else seed, quick)
    config.from_dict(copy.deepcopy(tree))
    targets = scenarios.CalibrationTargets.shipped()
    return perf_counter() - t0, tree, targets


def setup_probe(workload: str, seed: int | None) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Run:
    """Rounds of one workload in this process, and what they measured."""

    def __init__(self, workload: str, tree: dict, targets, work_dir: Path):
        import checks

        self.workload = workload
        self.tree = tree
        self.targets = targets
        self.work_dir = work_dir
        self.labels = [label for label, _, _ in checks.expected_rows(tree)]
        self.reference = None  # (digest, file fingerprints) of the first round
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def round(self, tracer=None) -> None:
        from vnfsdnsim import config, scenarios

        import checks

        out = self.work_dir / f"round{len(self.rounds)}"
        # Each cell is one run_one call; time it with a single clock pair.
        run_one = scenarios.run_one
        cells: list[float] = []

        def timed_cell(*args, **kwargs):
            t0 = perf_counter()
            try:
                return run_one(*args, **kwargs)
            finally:
                cells.append(perf_counter() - t0)

        scenarios.run_one = timed_cell
        if tracer is not None:
            tracer.install()
        try:
            cfg = config.from_dict(copy.deepcopy(self.tree))
            t0 = perf_counter()
            result = scenarios.run_scenario(
                cfg.scenario, cfg, out_dir=out, targets=self.targets)
            scenarios.emit_results(result, out)
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
            scenarios.run_one = run_one

        failures = checks.check_round(self.tree, result, out)
        prints = checks.fingerprint(out)
        digest = result.digest()
        if self.reference is None:
            self.reference = (digest, prints)
        else:
            ref_digest, ref_prints = self.reference
            changed = sorted(
                p for p in set(prints) | set(ref_prints) if prints.get(p) != ref_prints.get(p)
            )
            for path in changed:
                for label in checks.owner(path, self.labels):
                    failures[label].append(f"rerun changed emitted file {path}")
            if digest != ref_digest and not changed:
                for label in self.labels:
                    failures[label].append("rerun changed the result digest")
        for label, msgs in failures.items():
            for msg in msgs:
                print(f"[fail] {self.workload} round {len(self.rounds)} {label}: {msg}",
                      file=sys.stderr)
        self.attempted += len(failures)
        self.failed += sum(1 for msgs in failures.values() if msgs)

        self.rounds.append({
            "traced": tracer is not None,
            "wall_s": wall,
            "cells_s": cells,
            "packets": sum(r.result.report.counters.total_packets for r in result.rows),
            "events": sum(r.result.events_processed for r in result.rows),
            "reroutes": sum(r.result.reroutes for r in result.rows),
            "bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        })
        shutil.rmtree(out)
        # A finished cell is cyclic garbage (engine heap -> bound methods ->
        # simulator); free it now so peak RSS does not grow with the rounds.
        del result
        gc.collect()
        print(f"[round] {self.workload} {len(self.rounds)} traced={tracer is not None} "
              f"wall={wall:.3f}s cells={[round(c, 3) for c in cells]} "
              f"peak_rss={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}MB",
              file=sys.stderr)

    def repeat(self, seconds: float, tracer=None) -> None:
        """Whole rounds until the next would end past ``seconds``; odd ones traced."""
        start = perf_counter()
        longest = 0.0
        while True:
            traced = tracer is not None and len(self.rounds) % 2 == 1
            t0 = perf_counter()
            self.round(tracer if traced else None)
            longest = max(longest, perf_counter() - t0)
            if len(self.rounds) >= MIN_ROUNDS and perf_counter() - start + longest > seconds:
                return

    def end_to_end(self, setup_samples: list[float]) -> dict:
        """Median of each part of a round over the rounds, summed into wall_s."""
        rounds = [r for r in self.rounds if not r["traced"]]
        per_cell = zip(*(r["cells_s"] for r in rounds))
        rest = statistics.median(r["wall_s"] - sum(r["cells_s"]) for r in rounds)
        wall = sum(statistics.median(times) for times in per_cell) + rest
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "wall_s": (wall, "s"),
            "packets_per_s": (rounds[0]["packets"] / wall, "1/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    def per_layer(self, tracer) -> dict:
        traced = [r for r in self.rounds if r["traced"]]
        plain = [r for r in self.rounds if not r["traced"]]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0) * 100.0
        return tracer.layer_metrics(
            rounds=len(traced),
            events=sum(r["events"] for r in traced),
            reroutes=sum(r["reroutes"] for r in traced),
            bytes_written=sum(r["bytes"] for r in traced),
            overhead_pct=overhead,
        )


def bench(workload: str, tree: dict, targets, seconds: float, trace: bool,
          setup_samples: list[float]) -> dict:
    """Run one workload in this process; returns the result object."""
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        run = Run(workload, tree, targets, work_dir)
        if trace:
            import tracing

            tracer = tracing.Tracer()
            run.repeat(seconds, tracer)
            metrics = run.per_layer(tracer)
            tracer.write(
                OUT / f"trace_{workload}_{tree['seed']}_{tree['duration_s']:g}s.json",
                {"workload": workload, "seed": tree["seed"], "rounds": run.rounds},
                metrics,
            )
        else:
            run.repeat(seconds)
            metrics = run.end_to_end(setup_samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def quick(seed: int | None) -> int:
    """Every workload and every check on tiny horizons, untraced then traced."""
    failed = 0
    for name in WORKLOADS:
        setup_s, tree, targets = setup(name, seed, quick=True)
        for trace in (False, True):
            result = bench(name, tree, targets, 0.0, trace, [setup_s])
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
            failed += result["failed"]
    print(json.dumps({"quick": "done", "failed": failed}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, help="workload seed (default: the shipped seed)")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="every workload on a tiny horizon, untraced and traced")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required unless --quick is given")
    try:
        if args.quick:
            return quick(args.seed)
        setup_s, tree, targets = setup(args.workload, args.seed)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    samples = [setup_s]
    if not args.trace:
        samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    result = bench(args.workload, tree, targets, args.seconds, bool(args.trace), samples)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
