"""Command-line surface.

Exit codes are a stable contract: 0 success, 1 a target comparison (or
size-monotonicity verdict) failed, 2 the invocation or configuration is
invalid, 3 the run itself failed.  The default output directory can be
set with the VNFSDNSIM_OUT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config
from .scenarios import (
    BadFormat,
    CalibrationTargets,
    ConfigMismatch,
    MissingMetric,
    UnsupportedVersion,
    capture_dump,
    check_formats,
    compare_to_targets,
    emit_results,
    load_results,
    run_scenario,
    verify_hypothesis1,
)
from .vnf import IoFailure


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnfsdnsim",
        description="Deterministic simulator of an SDN network guarded by a VNF chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one evaluation scenario")
    run.add_argument("--scenario", type=int, required=True, metavar="1..6")
    run.add_argument("--config", metavar="FILE", help="configuration file (default: shipped)")
    run.add_argument("--seed", type=int, help="override the configured seed")
    run.add_argument("--out", metavar="DIR", help="output directory (default: $VNFSDNSIM_OUT or ./results)")
    run.add_argument(
        "--format",
        default="csv,records",
        metavar="csv|records",
        help="comma-separated output formats (default: both)",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration entry (dot path, repeatable)",
    )
    run.add_argument("--targets", metavar="FILE", help="calibration targets file (default: shipped)")
    run.add_argument("--quiet", action="store_true", help="suppress the per-config summary")

    verify = sub.add_parser(
        "verify-hypothesis1",
        help="check that accumulated security strength rises with network size",
    )
    verify.add_argument("--n-max", type=int, required=True, metavar="K")
    verify.add_argument("--gamma", type=float, default=0.0, help="oscillation amplitude (default 0)")
    verify.add_argument(
        "--gamma-scale",
        choices=("const", "sqrt"),
        default="const",
        help="amplitude fixed, or growing with sqrt(n)",
    )
    verify.add_argument("--m", type=float, default=1.0, help="frequency factor (default 1)")
    verify.add_argument("--horizon", type=float, default=1.0, metavar="T", help="integration horizon, seconds")
    verify.add_argument("--a", type=float, default=1.0, help="per-size amplitude a_n (default 1)")

    capture = sub.add_parser("capture", help="capture file tools")
    capture_sub = capture.add_subparsers(dest="capture_command", required=True)
    dump = capture_sub.add_parser("dump", help="validate and list a capture file")
    dump.add_argument("path", metavar="FILE")

    compare = sub.add_parser("compare", help="check emitted results against calibration targets")
    compare.add_argument("--result", required=True, metavar="DIR", help="directory written by `run`")
    compare.add_argument("--targets", metavar="FILE", help="targets file (default: shipped)")

    return parser


def _out_dir(arg: str | None) -> str:
    return arg or os.environ.get("VNFSDNSIM_OUT") or "results"


def _load_targets(path: str | None) -> CalibrationTargets:
    return CalibrationTargets.shipped() if path is None else CalibrationTargets.load(path)


def _check_line(check) -> str:
    mark = "pass" if check.passed else "FAIL"
    kind = "" if check.normative else " (informational)"
    if check.comparator == "ge":
        bound = f">= {check.expected - check.tolerance:g}"
    elif check.comparator == "le":
        bound = f"<= {check.expected + check.tolerance:g}"
    else:
        bound = f"{check.expected:g} +/- {check.tolerance:g}"
    return f"  [{mark}] {check.name}: measured {check.measured:.4f}, target {bound}{kind}"


def _fmt(value, spec: str = ".3f") -> str:
    return "-" if value is None else format(value, spec)


def _cmd_run(args) -> int:
    formats = tuple(part.strip() for part in args.format.split(",") if part.strip())
    check_formats(formats)  # before the run, not after it
    tree = config.load_tree(args.config) if args.config else config.default_config(args.scenario)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        tree = config.apply_overrides(tree, overrides)
    cfg = config.from_dict(tree)
    targets = _load_targets(args.targets)
    out = _out_dir(args.out)

    result = run_scenario(args.scenario, cfg, out_dir=out, targets=targets)
    paths = emit_results(result, out, formats)

    if not args.quiet:
        print(f"scenario {result.scenario} seed {result.seed} "
              f"({result.duration_s:g}s simulated, config {result.config_digest[:12]})")
        for row in result.rows:
            rep = row.result.report
            print(
                f"  {row.label:<24} hosts={row.hosts:<3} "
                f"benign_loss={rep.benign_loss_total:<6} "
                f"tdr={_fmt(rep.tdr)} "
                f"avail={_fmt(rep.availability_pct, '.2f')}% "
                f"latency={_fmt(rep.mean_latency_ms)}ms "
                f"thpt={rep.throughput_mbps:.3f}Mbps"
            )
        for check in result.checks:
            print(_check_line(check))
        print(f"wrote {len(paths)} files under {out}")
    return 0


def _cmd_verify(args) -> int:
    if args.n_max < 2:
        raise config.ConfigError(f"--n-max must be at least 2, got {args.n_max}")
    try:
        result = verify_hypothesis1(
            args.n_max,
            gamma=args.gamma,
            m=args.m,
            horizon_s=args.horizon,
            a=args.a,
            gamma_scale=args.gamma_scale,
        )
    except ValueError as exc:
        raise config.ConfigError(str(exc)) from exc
    print(f"{'n':>6}  {'integral':>18}")
    for n, integral in result.rows:
        print(f"{n:>6}  {integral:>18.10f}")
    print(f"strictly increasing: {'yes' if result.increasing else 'NO'}")
    return 0 if result.increasing else 1


def _cmd_compare(args) -> int:
    targets = _load_targets(args.targets)
    results = load_results(args.result)
    if not results:
        raise config.ConfigError(f"no result summaries found under {args.result}")
    all_passed = True
    for result in results:
        comparison = compare_to_targets(result, targets)
        if not comparison.checks:
            continue
        print(f"scenario {result.scenario} seed {result.seed}:")
        for check in comparison.checks:
            print(_check_line(check))
        for name, reason in comparison.skipped:
            print(f"  [skip] {name}: {reason}")
        all_passed = all_passed and comparison.normative_passed
    return 0 if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-hypothesis1":
            return _cmd_verify(args)
        if args.command == "capture":
            print(capture_dump(args.path))
            return 0
        if args.command == "compare":
            return _cmd_compare(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (
        config.ConfigError,
        ConfigMismatch,
        MissingMetric,
        BadFormat,
        UnsupportedVersion,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # the stable exit-code contract needs a catch-all
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
