"""Scenario orchestration and result emission.

Six canned evaluations share one execution path: size the star, wire
a security configuration (an ordered function chain plus controller
settings), run the scenario's traffic profiles through it, and fold KPIs.
Every security configuration of a scenario runs under the same seed, and
the cells of one sweep point run in lockstep on one draw of the offered
traffic: every configuration is fed the very same packets, so KPI deltas
are attributable to the security configuration alone.

Results are emitted as CSV tables and as newline-delimited record streams
whose bytes are reproducible under a fixed seed (one wall-clock header
field excepted), plus per-figure plot-data files.  Measured values can be
checked against the shipped calibration targets.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, fields, replace
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Literal, get_args, get_type_hints

from .config import (
    SCENARIO,
    SECURITY_LABEL,
    ConfigError,
    PROFILE_PREFIX,
    ScenarioConfig,
    _build,
    canonical_json,
    load_tree,
)
from .engine import RngStream, SimEngine
from .metrics import (
    AnalyticParams,
    Hypothesis1Result,
    KpiCounters,
    KpiReport,
    WindowRow,
    check_hypothesis1,
)
from .model import POSITIVE, StarSpec, require
from .runtime import NetworkSim, RunResult, run_cells
from .sdn import Controller
from .vnf import (
    CAPTURE_FORMAT_VERSION,
    CAPTURE_RECORD_KEYS,
    NDREC_JSON,
    CaptureVnf,
    FilterVnf,
    FirewallVnf,
    IdsVnf,
    MitigationProfile,
    VnfChain,
)


class ConfigMismatch(Exception):
    """The configuration does not belong to the requested scenario."""


class MissingMetric(Exception):
    """A calibration target references a value the result does not contain."""


class BadFormat(Exception):
    """A capture file violates the line-delimited record contract."""


class UnsupportedVersion(Exception):
    """A capture file declares a format version this reader cannot parse."""


# ----------------------------------------------------------------------
# security configuration -> function chain


def build_chain(
    label: str,
    cfg: ScenarioConfig,
    topology: StarSpec,
    capture_folder: Path | None,
) -> tuple[VnfChain, CaptureVnf | None]:
    """Realise a security-config label as (chain, capture tap)."""
    sec = cfg.security
    capture = None
    if label == "no_security":
        return VnfChain([]), None
    if label == "firewall_only":
        return VnfChain([FirewallVnf(sec.firewall_rules, topology)]), None
    if label == "ids_only":
        return VnfChain([IdsVnf(sec.ids)]), None
    if label in ("vnfsdn", "vnfsdn_firewall"):
        vnfs = [FilterVnf(policy=cfg.policy)]
        if label == "vnfsdn_firewall":
            vnfs.append(FirewallVnf(sec.firewall_rules, topology))
        vnfs.append(IdsVnf(sec.ids))
        if sec.capture and capture_folder is not None:
            capture = CaptureVnf(capture_folder, cfg.seed)
        return VnfChain(vnfs), capture
    if label.startswith(PROFILE_PREFIX):
        name = label[len(PROFILE_PREFIX):]
        rng = RngStream(cfg.seed, f"profile/{name}")
        return VnfChain([MitigationProfile(name, sec.profiles[name], rng)]), None
    raise ConfigError(f"unknown security config {label!r}")


# ----------------------------------------------------------------------
# running


def _build_sim(
    cfg: ScenarioConfig, label: str, hosts: int | None, out_dir: str | Path | None
) -> NetworkSim:
    """Wire one (security config, topology size) cell of a scenario."""
    topology = cfg.topology if hosts is None else replace(cfg.topology, hosts=hosts)
    capture_folder = None
    if out_dir is not None:
        capture_folder = Path(out_dir) / "captures" / f"s{cfg.scenario}_{label}"
    chain, capture = build_chain(label, cfg, topology, capture_folder)
    return NetworkSim(
        topology,
        SimEngine(cfg.seed),
        Controller(topology, cfg.controller),
        chain,
        capture=capture,
        window_s=cfg.window_s,
        monitor_interval_s=cfg.monitor_interval_s,
        memory_base_mb=cfg.memory_base_mb,
    )


def _run_point(
    cfg: ScenarioConfig,
    labels: tuple[str, ...],
    hosts: int | None,
    out_dir: str | Path | None,
) -> list[RunResult]:
    """Run one sweep point: every labelled cell, fed the same packets in lockstep."""
    sims = [_build_sim(cfg, label, hosts, out_dir) for label in labels]
    traffic = cfg.traffic
    return run_cells(sims, cfg.duration_s, traffic.benign, traffic.ddos, traffic.access)


def run_one(
    cfg: ScenarioConfig,
    label: str,
    *,
    hosts: int | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute one (security config, topology size) cell of a scenario: a
    sweep point with that one cell."""
    (result,) = _run_point(cfg, (label,), hosts, out_dir)
    return result


@dataclass(frozen=True)
class RunRow:
    label: str
    hosts: int
    result: RunResult


@dataclass(frozen=True)
class TargetCheck:
    name: str
    measured: float
    expected: float
    tolerance: float
    comparator: str
    passed: bool
    normative: bool
    note: str = ""


@dataclass
class ScenarioResult:
    scenario: int
    seed: int
    config_digest: str
    duration_s: float
    rows: tuple[RunRow, ...]
    checks: tuple[TargetCheck, ...] = ()

    def row(self, label: str) -> RunRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise MissingMetric(f"no run for security config {label!r}")

    def digest(self) -> str:
        """Content digest over everything emitted except the wall-clock field."""
        h = hashlib.sha256()
        h.update(canonical_json(_result_object(self)).encode())
        return h.hexdigest()


def run_scenario(
    scenario_id: int,
    cfg: ScenarioConfig,
    *,
    out_dir: str | Path | None = None,
    targets: "CalibrationTargets | None" = None,
) -> ScenarioResult:
    """Run every security configuration (and sweep point) of a scenario."""
    if cfg.scenario != scenario_id:
        raise ConfigMismatch(
            f"configuration is for scenario {cfg.scenario}, not {scenario_id}"
        )
    labels = tuple(cfg.security.configs)
    # Sweep points run in ascending order, so the capture a later point saves
    # replaces the earlier ones'; rows stay label-major.
    points = cfg.sweep.hosts or (cfg.topology.hosts,)
    cells = {
        (label, n): result
        for n in points
        for label, result in zip(labels, _run_point(cfg, labels, n, out_dir))
    }
    suffixed = bool(cfg.sweep.hosts)
    rows = [
        RunRow(f"{label}_h{n:03d}" if suffixed else label, n, cells[label, n])
        for label in labels
        for n in points
    ]
    result = ScenarioResult(
        scenario=scenario_id,
        seed=cfg.seed,
        config_digest=cfg.digest(),
        duration_s=cfg.duration_s,
        rows=tuple(rows),
    )
    if targets is None:
        targets = CalibrationTargets.shipped()
    result.checks = compare_to_targets(result, targets).checks
    return result


# ----------------------------------------------------------------------
# calibration targets


@dataclass(frozen=True)
class TargetSpec:
    """The summary column ``metric`` of run ``config``; with a ``baseline`` run,
    its ``gain`` over that run or its ``reduction_pct`` from it.  ``Metric`` is
    declared beside the summary column table.  A scenario 2 target names the
    sweep point it reads with ``hosts``: the rows ``<config>_h<NNN>``."""

    name: str
    scenario: int
    config: str
    metric: Metric
    value: float
    baseline: str | None = None
    form: Literal["reduction_pct", "gain"] | None = None
    comparator: Literal["abs", "ge", "le"] = "abs"
    tolerance: float | None = None
    tolerance_pct: float | None = None
    normative: bool = True
    reference_duration_s: float | None = None  # scales the value by run length
    note: str = ""
    hosts: int | None = None

    def __post_init__(self) -> None:
        require(self, SCENARIO, "scenario")
        require(self, SECURITY_LABEL, "config")
        given = ("given exactly when baseline is", lambda v: (v is None) == (self.baseline is None))
        require(self, given, "form")
        for key in ("baseline", "tolerance", "tolerance_pct", "reference_duration_s"):
            if getattr(self, key) is not None:
                require(self, SECURITY_LABEL if key == "baseline" else POSITIVE, key)
        if self.hosts is not None:
            require(self, ("at least 1, and given only for scenario 2",
                           lambda v: self.scenario == 2 and v >= 1), "hosts")
        if (self.tolerance is None) == (self.tolerance_pct is None):
            raise ValueError(f"target {self.name}: exactly one tolerance form required")


@dataclass(frozen=True)
class CalibrationTargets:
    """A targets file; ``from_dict`` reads it through the config schema walker."""

    targets: tuple[TargetSpec, ...] = ()
    comment: str = ""

    @staticmethod
    def from_dict(tree: dict) -> "CalibrationTargets":
        return _build(CalibrationTargets, tree, "")

    @staticmethod
    def load(path: str | Path) -> "CalibrationTargets":
        return CalibrationTargets.from_dict(load_tree(path))

    @staticmethod
    def shipped() -> "CalibrationTargets":
        text = (
            resources.files("vnfsdnsim")
            .joinpath("data/default_targets.json")
            .read_text(encoding="utf-8")
        )
        return CalibrationTargets.from_dict(json.loads(text))


def _availability_range(report: KpiReport) -> tuple[float | None, float | None]:
    """(min, peak) of the per-window availability; None for both when no window has one."""
    values = [w.availability_pct for w in report.windows if w.availability_pct is not None]
    return (min(values), max(values)) if values else (None, None)


def _measure(result: ScenarioResult, spec: TargetSpec) -> float:
    """The value a calibration target checks; MissingMetric when it is undefined."""

    def value(label: str) -> float:
        found = _summary_values(result.scenario, result.row(label))[spec.metric]
        if found is None:
            raise MissingMetric(f"{spec.metric} is undefined for {label!r}")
        return float(found)

    suffix = "" if spec.hosts is None else f"_h{spec.hosts:03d}"
    measured = value(spec.config + suffix)
    if spec.baseline is None:
        return measured
    base = value(spec.baseline + suffix)
    if spec.form == "gain":
        return measured - base
    if base <= 0:
        raise MissingMetric(f"no reduction from a baseline {spec.metric} of {base!r}")
    return (base - measured) / base * 100.0


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple[TargetCheck, ...]
    normative_passed: bool
    skipped: tuple[tuple[str, str], ...] = ()


def compare_to_targets(
    result: ScenarioResult, targets: CalibrationTargets
) -> ComparisonReport:
    """Mark each target for this scenario pass/fail against measured values.

    A target is skipped rather than failed, so partial runs stay
    comparable, only when its config or baseline was not part of the run
    or its value is undefined there (a None metric, or a reduction from a
    baseline of 0 or less).  A target that could fit no run at all is
    already rejected when the targets file loads.
    """
    checks = []
    skipped = []
    for spec in targets.targets:
        if spec.scenario != result.scenario:
            continue
        expected = spec.value
        if spec.reference_duration_s is not None:
            expected *= result.duration_s / spec.reference_duration_s
        tol = (
            spec.tolerance
            if spec.tolerance is not None
            else abs(expected) * spec.tolerance_pct / 100.0
        )
        try:
            measured = _measure(result, spec)
        except MissingMetric as exc:
            skipped.append((spec.name, str(exc)))
            continue
        if spec.comparator == "abs":
            passed = abs(measured - expected) <= tol
        elif spec.comparator == "ge":
            passed = measured >= expected - tol
        else:
            passed = measured <= expected + tol
        checks.append(
            TargetCheck(
                name=spec.name,
                measured=measured,
                expected=expected,
                tolerance=tol,
                comparator=spec.comparator,
                passed=passed,
                normative=spec.normative,
                note=spec.note,
            )
        )
    normative_passed = all(c.passed for c in checks if c.normative)
    return ComparisonReport(tuple(checks), normative_passed, tuple(skipped))


# ----------------------------------------------------------------------
# emission
#
# Each record kind has one column table.  The emitters read every column
# from it, and load_results parses every column back through it, so a
# column's name, position, owner and value type are stated once.


_type_hints = cache(get_type_hints)


@cache
def _value_type(owner: type, attr: str) -> type:
    """The type a dataclass field holds (int, float or str), None stripped."""
    hint = _type_hints(owner)[attr]
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


# Window columns: the WindowRow fields a row is built from, in declaration
# order, with ``index`` written as ``window``; the window sums are not columns.
_WINDOW_COLUMNS = tuple(
    ("window" if f.name == "index" else f.name, f) for f in fields(WindowRow) if f.init
)


def _columns(owner: type | None, *names: str) -> tuple[tuple, ...]:
    return tuple((name, owner, name) for name in names)


# Summary columns in file order: (column, owner, attribute).  Owner None
# marks a column derived from the whole row; the others are read from the
# run, its report or the report's counters.
_SUMMARY_COLUMNS = (
    *_columns(None, "scenario", "config", "hosts"),
    *_columns(RunResult, "seed", "duration_s"),
    *_columns(
        KpiReport,
        "secure_traffic_pct", "tdr", "ubr", "exposure", "access_outcome",
        "reliability", "mean_latency_ms", "jitter_ms", "mean_rtt_ms",
        "detection_time_ms", "response_time_ms", "throughput_mbps", "availability_pct",
    ),
    *_columns(None, "availability_min_pct", "availability_peak_pct"),
    *_columns(
        KpiReport,
        "cpu_pct", "memory_mb_mean", "memory_mb_max",
        "benign_sent", "benign_delivered", "benign_loss_total",
    ),
    *_columns(
        KpiCounters,
        "total_packets", "delivered_packets", "blocked_packets", "queue_dropped",
        "threat_packets",
    ),
    ("blocked_threats", KpiCounters, "blocked_threat_packets"),
    *_columns(KpiCounters, "unauthorized_attempts", "blocked_unauthorized"),
    *_columns(RunResult, "rules_installed", "reroutes", "events_processed", "event_hash"),
)

#: A calibration target's metric: any numeric summary column.
Metric = Literal[tuple(
    col for col, owner, attr in _SUMMARY_COLUMNS
    if col != "config" and (owner is None or _value_type(owner, attr) is not str)
)]


def _cell(value) -> str:
    """Canonical CSV cell: empty for undefined, 6-decimal fixed for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    return value


def _parse(text: str, kind: type, default=None):
    """Inverse of ``_cell`` for one value of type ``kind``."""
    return default if text == "" else kind(text)


def _window_object(w: WindowRow) -> dict:
    obj = {"kind": "window"}
    for col, f in _WINDOW_COLUMNS:
        obj[col] = _round6(getattr(w, f.name))
    return obj


def _summary_values(scenario: int, row: RunRow) -> dict:
    """A run's summary columns, unrounded, in file order."""
    rep = row.result.report
    avail_min, avail_peak = _availability_range(rep)
    derived = {
        "scenario": scenario,
        "config": row.label,
        "hosts": row.hosts,
        "availability_min_pct": avail_min,
        "availability_peak_pct": avail_peak,
    }
    owners = {RunResult: row.result, KpiReport: rep, KpiCounters: rep.counters}
    return {
        col: derived[col] if owner is None else getattr(owners[owner], attr)
        for col, owner, attr in _SUMMARY_COLUMNS
    }


def _summary_object(scenario: int, row: RunRow) -> dict:
    values = _summary_values(scenario, row)
    return {"kind": "summary", **{col: _round6(v) for col, v in values.items()}}


def _result_object(result: ScenarioResult) -> dict:
    return {
        "scenario": result.scenario,
        "seed": result.seed,
        "config_digest": result.config_digest,
        "rows": [
            {
                "summary": _summary_object(result.scenario, row),
                "windows": [_window_object(w) for w in row.result.report.windows],
            }
            for row in result.rows
        ],
    }


def _cells(objs, header):
    """CSV rows of record objects, cells in header order."""
    return ([_cell(obj[col]) for col in header] for obj in objs)


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_results(result: ScenarioResult, out_dir: str | Path) -> list[Path]:
    """Write every result file under ``out_dir``; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    header = [col for col, _ in _WINDOW_COLUMNS]
    for row in result.rows:
        objs = map(_window_object, row.result.report.windows)
        path = out / f"s{result.scenario}_{row.label}_{result.seed}.csv"
        paths.append(_write_csv(path, header, _cells(objs, header)))
    header = [col for col, _, _ in _SUMMARY_COLUMNS]
    objs = (_summary_object(result.scenario, row) for row in result.rows)
    path = out / f"s{result.scenario}_summary_{result.seed}.csv"
    paths.append(_write_csv(path, header, _cells(objs, header)))
    paths.extend(_emit_plotdata(result, out))

    for row in result.rows:
        path = out / f"s{result.scenario}_{row.label}_{result.seed}.ndrec"
        header = {
            "kind": "header",
            "format_version": 1,
            "generated_unix_ms": int(time.time() * 1000),
            "scenario": result.scenario,
            "config": row.label,
            "config_digest": result.config_digest,
            "seed": result.seed,
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(header, **NDREC_JSON) + "\n")
            for w in row.result.report.windows:
                fh.write(json.dumps(_window_object(w), **NDREC_JSON) + "\n")
            fh.write(json.dumps(_summary_object(result.scenario, row), **NDREC_JSON) + "\n")
        paths.append(path)

    return paths


# Per-window figure analogs of each scenario: figure -> {column prefix:
# WindowRow field}.  S1 availability and cumulative loss; per-window
# response and resource series; the S4 latency/jitter/throughput series;
# the S5 availability and resource series.  Scenario 2's size sweep
# (figure 6) has one row per run instead; see ``_sweep_csv``.
_SERIES_FIGURES = {
    1: {"5a": {"avail": "availability_pct"}, "5b": {"loss": "cumulative_benign_loss"}},
    3: {
        "7": {
            "rtt": "mean_rtt_ms",
            "avail": "availability_pct",
            "cpu": "cpu_pct",
            "mem": "memory_mb",
        }
    },
    4: {
        "8": {
            "latency": "mean_latency_ms",
            "jitter": "jitter_ms",
            "throughput": "throughput_mbps",
        }
    },
    5: {"9": {"avail": "availability_pct"}, "10": {"cpu": "cpu_pct", "mem": "memory_mb"}},
}

_SWEEP_FIELDS = (
    "detection_time_ms",
    "mean_latency_ms",
    "benign_loss_total",
    "throughput_mbps",
    "cpu_pct",
    "memory_mb_max",
)


def _series_csv(
    out: Path, fig: str, result: ScenarioResult, series: dict[str, str]
) -> Path:
    """One row per window; one column group per (field, config)."""
    n_windows = max((len(r.result.report.windows) for r in result.rows), default=0)
    header = ["window"]
    for prefix in series:
        header.extend(f"{prefix}_{row.label}" for row in result.rows)
    rows = []
    for i in range(n_windows):
        cells = [str(i)]
        for attr in series.values():
            for row in result.rows:
                windows = row.result.report.windows
                value = getattr(windows[i], attr) if i < len(windows) else None
                cells.append(_cell(value))
        rows.append(cells)
    return _write_csv(out / f"plotdata_fig{fig}.csv", header, rows)


def _sweep_csv(out: Path, result: ScenarioResult) -> Path:
    """Figure 6: one row per (size, config) run."""
    return _write_csv(
        out / "plotdata_fig6.csv",
        ("hosts", "config", *_SWEEP_FIELDS),
        (
            [_cell(v) for v in (row.hosts, row.label)]
            + [_cell(getattr(row.result.report, f)) for f in _SWEEP_FIELDS]
            for row in result.rows
        ),
    )


def _emit_plotdata(result: ScenarioResult, out: Path) -> list[Path]:
    if result.scenario == 2:
        return [_sweep_csv(out, result)]
    return [
        _series_csv(out, fig, result, series)
        for fig, series in _SERIES_FIGURES.get(result.scenario, {}).items()
    ]


# ----------------------------------------------------------------------
# reading emitted results back


def _read_windows(path: Path) -> list[WindowRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            WindowRow(**{
                f.name: _parse(rec[col], _value_type(WindowRow, f.name), f.default)
                for col, f in _WINDOW_COLUMNS
            })
            for rec in csv.DictReader(fh)
        ]


def load_results(out_dir: str | Path) -> list[ScenarioResult]:
    """Rebuild scenario results from the CSV files written by emit_results.

    Only fields present in the files are populated; in particular the
    configuration digest is not recoverable from CSV output.
    """
    out = Path(out_dir)
    results = []
    for summary_path in sorted(out.glob("s*_summary_*.csv")):
        match = re.fullmatch(r"s(\d+)_summary_(\d+)\.csv", summary_path.name)
        if not match:
            continue
        scenario, seed = int(match.group(1)), int(match.group(2))
        rows = []
        with open(summary_path, "r", encoding="utf-8", newline="") as fh:
            for rec in csv.DictReader(fh):
                values: dict[type, dict] = {RunResult: {}, KpiReport: {}, KpiCounters: {}}
                for col, owner, attr in _SUMMARY_COLUMNS:
                    if owner is not None:
                        values[owner][attr] = _parse(rec[col], _value_type(owner, attr))
                label = rec["config"]
                window_path = out / f"s{scenario}_{label}_{seed}.csv"
                run = values[RunResult]
                report = KpiReport(
                    duration_s=run["duration_s"],
                    counters=KpiCounters(**values[KpiCounters]),
                    windows=_read_windows(window_path) if window_path.exists() else [],
                    **values[KpiReport],
                )
                rows.append(RunRow(label, int(rec["hosts"]), RunResult(report=report, **run)))
        duration = max((r.result.duration_s for r in rows), default=0.0)
        results.append(
            ScenarioResult(
                scenario=scenario,
                seed=seed,
                config_digest="",
                duration_s=duration,
                rows=tuple(rows),
            )
        )
    return results


# ----------------------------------------------------------------------
# capture dump

# The writer's keys, in the sorted order NDREC_JSON writes them.
_CAPTURE_HEADER_KEYS = tuple(sorted(CaptureVnf(".", 0).header_object()))


def _parse_capture_line(line: str, number: int, keys: tuple[str, ...]) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BadFormat(f"line {number}: not a valid record ({exc.msg})") from exc
    if not isinstance(obj, dict) or tuple(obj.keys()) != keys:
        raise BadFormat(
            f"line {number}: expected keys {list(keys)}, got "
            f"{list(obj.keys()) if isinstance(obj, dict) else type(obj).__name__}"
        )
    return obj


def capture_dump(path: str | Path) -> str:
    """Validate a capture file and render a human-readable listing."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise BadFormat(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise BadFormat("line 1: file is empty, header object missing")
    header = _parse_capture_line(lines[0], 1, _CAPTURE_HEADER_KEYS)
    if header["format_version"] != CAPTURE_FORMAT_VERSION:
        raise UnsupportedVersion(
            f"format version {header['format_version']} "
            f"(supported: {CAPTURE_FORMAT_VERSION})"
        )
    out = [
        f"capture file {path}",
        f"  interface {header['iface']} channel {header['channel']} "
        f"ap {header['ap_mac']} seed {header['run_seed']}",
    ]
    count = 0
    for number, line in enumerate(lines[1:], start=2):
        rec = _parse_capture_line(line, number, CAPTURE_RECORD_KEYS)
        count += 1
        out.append(
            f"  [{rec['sim_time_us']:>12} us] #{rec['id']} "
            f"{rec['src']}->{rec['dst']} {rec['size']}B {rec['protocol']} "
            f"tag={rec['tag']} class={rec['class']} verdict={rec['verdict']}"
        )
    out.append(f"  {count} records")
    return "\n".join(out)


# ----------------------------------------------------------------------
# size-vs-security verification


def hypothesis1_sizes(n_max: int) -> list[int]:
    """Perfect squares up to n_max, plus n_max itself."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    sizes = {i * i for i in range(1, math.isqrt(n_max) + 1)}
    sizes.add(n_max)
    return sorted(sizes)


def verify_hypothesis1(
    n_max: int,
    gamma: float = 0.0,
    m: float = 1.0,
    horizon_s: float = 1.0,
    a: float = 1.0,
    gamma_scale: str = "const",
) -> Hypothesis1Result:
    base = AnalyticParams(n=1, a_n=a, gamma_n=gamma, m=m, horizon_s=horizon_s)
    return check_hypothesis1(base, hypothesis1_sizes(n_max), gamma_scale)
