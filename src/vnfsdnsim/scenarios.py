"""Scenario orchestration and result emission.

Six canned evaluations share one execution path: build the topology, wire
a security configuration (an ordered function chain plus controller
settings), attach the scenario's traffic profiles, run, and fold KPIs.
Every security configuration of a scenario runs under the same seed; the
per-(profile, source) random streams guarantee the offered traffic is
byte-identical across configurations, so KPI deltas are attributable to
the security configuration alone.

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
    ConfigError,
    PROFILE_PREFIX,
    ScenarioConfig,
    _build,
    canonical_json,
    load_tree,
)
from .engine import SimEngine
from .metrics import (
    AnalyticParams,
    Hypothesis1Result,
    KpiCounters,
    KpiReport,
    WindowRow,
    check_hypothesis1,
)
from .model import build_topology
from .runtime import NetworkSim, RunResult
from .sdn import Controller
from .vnf import (
    CAPTURE_FORMAT_VERSION,
    NDREC_JSON,
    CaptureRecord,
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
    engine: SimEngine,
    topology,
    capture_folder: Path | None,
) -> tuple[VnfChain, CaptureVnf | None, bool]:
    """Realise a security-config label as (chain, capture tap, flow rules on)."""
    sec = cfg.security
    capture = None
    if label == "no_security":
        return VnfChain([]), None, False
    if label == "firewall_only":
        return VnfChain([FirewallVnf(sec.firewall_rules, topology)]), None, True
    if label == "ids_only":
        return VnfChain([IdsVnf(sec.ids)]), None, True
    if label in ("vnfsdn", "vnfsdn_firewall"):
        vnfs = [FilterVnf(policy=cfg.policy)]
        if label == "vnfsdn_firewall":
            vnfs.append(FirewallVnf(sec.firewall_rules, topology))
        vnfs.append(IdsVnf(sec.ids))
        if sec.capture and capture_folder is not None:
            capture = CaptureVnf(capture_folder, engine.seed)
        return VnfChain(vnfs), capture, True
    if label.startswith(PROFILE_PREFIX):
        name = label[len(PROFILE_PREFIX):]
        rng = engine.register_stream(f"profile/{name}")
        return VnfChain([MitigationProfile(name, sec.profiles[name], rng)]), None, True
    raise ConfigError(f"unknown security config {label!r}")


# ----------------------------------------------------------------------
# running


def run_one(
    cfg: ScenarioConfig,
    label: str,
    *,
    hosts: int | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute one (security config, topology size) cell of a scenario."""
    star = cfg.topology if hosts is None else replace(cfg.topology, hosts=hosts)
    topology = build_topology(star)
    engine = SimEngine(cfg.seed)
    capture_folder = None
    if out_dir is not None:
        capture_folder = Path(out_dir) / "captures" / f"s{cfg.scenario}_{label}"
    chain, capture, flow_rules = build_chain(label, cfg, engine, topology, capture_folder)
    controller = Controller(topology, cfg.controller, flow_rules=flow_rules)
    sim = NetworkSim(
        topology,
        engine,
        controller,
        chain,
        capture=capture,
        window_s=cfg.window_s,
        monitor_interval_s=cfg.monitor_interval_s,
        memory_base_mb=cfg.memory_base_mb,
        label=label,
    )
    sim.attach_traffic(
        cfg.duration_s,
        benign=list(cfg.traffic.benign),
        ddos=list(cfg.traffic.ddos),
        access=list(cfg.traffic.access),
    )
    return sim.run(cfg.duration_s)


@dataclass(frozen=True)
class RunRow:
    label: str
    hosts: int
    result: RunResult


@dataclass(frozen=True)
class TargetCheck:
    name: str
    measured: float | None
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
    window_s: float
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
    rows: list[RunRow] = []
    if cfg.sweep.hosts:
        for label in cfg.security.configs:
            for n in cfg.sweep.hosts:
                result = run_one(cfg, label, hosts=n, out_dir=out_dir)
                rows.append(RunRow(f"{label}_h{n:03d}", n, result))
    else:
        for label in cfg.security.configs:
            result = run_one(cfg, label, out_dir=out_dir)
            rows.append(RunRow(label, cfg.topology.hosts, result))
    result = ScenarioResult(
        scenario=scenario_id,
        seed=cfg.seed,
        config_digest=cfg.digest(),
        duration_s=cfg.duration_s,
        window_s=cfg.window_s,
        rows=tuple(rows),
    )
    if targets is None:
        targets = CalibrationTargets.shipped()
    relevant = [t for t in targets.targets if t.scenario == scenario_id]
    if relevant:
        comparison = compare_to_targets(result, targets)
        result.checks = tuple(comparison.checks)
    return result


# ----------------------------------------------------------------------
# calibration targets


@dataclass(frozen=True)
class TargetSpec:
    name: str
    scenario: int
    value: float
    comparator: Literal["abs", "ge", "le"] = "abs"
    tolerance: float | None = None
    tolerance_pct: float | None = None
    normative: bool = True
    scale_with_duration: bool = False
    reference_duration_s: float | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if (self.tolerance is None) == (self.tolerance_pct is None):
            raise ValueError(f"target {self.name}: exactly one tolerance form required")
        tol = self.tolerance if self.tolerance is not None else self.tolerance_pct
        if tol <= 0:
            raise ValueError(f"target {self.name}: tolerance must be positive")
        if self.scale_with_duration and not self.reference_duration_s:
            raise ValueError(f"target {self.name}: scaling needs a reference duration")


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


def _reduction_pct(baseline: float | None, improved: float | None, what: str) -> float:
    if baseline is None or improved is None or baseline <= 0:
        raise MissingMetric(f"cannot compute {what} reduction (baseline {baseline!r})")
    return (baseline - improved) / baseline * 100.0


def _measure(result: ScenarioResult, name: str) -> float:
    """Resolve a calibration-target name to a measured value."""

    def report(label: str) -> KpiReport:
        return result.row(label).result.report

    if name.startswith("s1_benign_loss_"):
        return float(report(name.removeprefix("s1_benign_loss_")).benign_loss_total)
    if name == "s1_availability_min_no_security":
        value = _availability_range(report("no_security"))[0]
    elif name == "s1_availability_peak_vnfsdn_firewall":
        value = _availability_range(report("vnfsdn_firewall"))[1]
    elif name.startswith("s4_latency_ms_"):
        value = report(name.removeprefix("s4_latency_ms_")).mean_latency_ms
    elif name.startswith("s4_jitter_ms_"):
        value = report(name.removeprefix("s4_jitter_ms_")).jitter_ms
    elif name.startswith("s4_throughput_mbps_"):
        value = report(name.removeprefix("s4_throughput_mbps_")).throughput_mbps
    elif name == "s4_lab_throughput_mbps":
        value = report("vnfsdn").throughput_mbps
    elif name == "s5_response_reduction_pct":
        return _reduction_pct(
            report("no_security").response_time_ms,
            report("vnfsdn").response_time_ms,
            "response-time",
        )
    elif name == "s5_benign_loss_reduction_pct":
        return _reduction_pct(
            float(report("no_security").benign_loss_total),
            float(report("vnfsdn").benign_loss_total),
            "benign-loss",
        )
    elif name == "s5_availability_gain_pp":
        base = report("no_security").availability_pct
        new = report("vnfsdn").availability_pct
        if base is None or new is None:
            raise MissingMetric("availability undefined in one of the runs")
        return new - base
    else:
        raise ConfigError(f"unknown calibration target {name!r}")
    if value is None:
        raise MissingMetric(f"metric for {name!r} is undefined in this run")
    return float(value)


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple[TargetCheck, ...]
    normative_passed: bool
    skipped: tuple[tuple[str, str], ...] = ()


def compare_to_targets(
    result: ScenarioResult, targets: CalibrationTargets
) -> ComparisonReport:
    """Mark each target for this scenario pass/fail against measured values.

    Targets whose metric cannot be resolved in this result — typically a
    security configuration that was not part of the run — are reported as
    skipped rather than failed, so partial runs stay comparable.  Target
    names the resolver does not know at all raise ConfigError.
    """
    checks = []
    skipped = []
    for spec in targets.targets:
        if spec.scenario != result.scenario:
            continue
        expected = spec.value
        if spec.scale_with_duration:
            expected *= result.duration_s / spec.reference_duration_s
        tol = (
            spec.tolerance
            if spec.tolerance is not None
            else abs(expected) * spec.tolerance_pct / 100.0
        )
        try:
            measured = _measure(result, spec.name)
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


@cache
def _value_type(owner: type, attr: str) -> type:
    """The type a dataclass field holds (int, float or str), None stripped."""
    hint = get_type_hints(owner)[attr]
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


# Window columns: the WindowRow fields in declaration order, with ``index``
# written as ``window``.
_WINDOW_COLUMNS = tuple(
    ("window" if f.name == "index" else f.name, f) for f in fields(WindowRow)
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


def _summary_object(scenario: int, row: RunRow) -> dict:
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
    obj = {"kind": "summary"}
    for col, owner, attr in _SUMMARY_COLUMNS:
        value = derived[col] if owner is None else getattr(owners[owner], attr)
        obj[col] = _round6(value)
    return obj


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


#: The result file formats ``emit_results`` writes.
OUTPUT_FORMATS = ("csv", "records")


def check_formats(formats: tuple[str, ...]) -> None:
    """Raise a ConfigError unless ``formats`` is a non-empty choice of OUTPUT_FORMATS."""
    if not formats:
        raise ConfigError("at least one output format is required")
    for fmt in formats:
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(f"unknown output format {fmt!r} (choose from {OUTPUT_FORMATS})")


def emit_results(
    result: ScenarioResult,
    out_dir: str | Path,
    formats: tuple[str, ...] = OUTPUT_FORMATS,
) -> list[Path]:
    """Write result files under ``out_dir``; returns the paths written."""
    check_formats(formats)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    if "csv" in formats:
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

    if "records" in formats:
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
                fh.write(
                    json.dumps(_summary_object(result.scenario, row), **NDREC_JSON) + "\n"
                )
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
                rows.append(
                    RunRow(label, int(rec["hosts"]), RunResult(label=label, report=report, **run))
                )
        duration = max((r.result.duration_s for r in rows), default=0.0)
        window_s = 1.0
        for r in rows:
            w = r.result.report.windows
            if len(w) >= 2:
                window_s = w[1].start_s - w[0].start_s
                break
        results.append(
            ScenarioResult(
                scenario=scenario,
                seed=seed,
                config_digest="",
                duration_s=duration,
                window_s=window_s,
                rows=tuple(rows),
            )
        )
    return results


# ----------------------------------------------------------------------
# capture dump

# The writer's keys, in the sorted order NDREC_JSON writes them.
_CAPTURE_HEADER_KEYS = tuple(sorted(CaptureVnf(".", 0).header_object()))
_CAPTURE_RECORD_KEYS = tuple(sorted(CaptureRecord(0, 0, 0, 0, "", "", "", 0, "").as_object()))


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
        rec = _parse_capture_line(line, number, _CAPTURE_RECORD_KEYS)
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
