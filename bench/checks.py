"""Output checks for one benchmark round, computed apart from the simulator.

Expected values come from the workload's configuration tree and from the
star topology's shape, never from the simulator's own helpers.  Each check
names the cell (row label) it fails, so the runner can count failed cells.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from vnfsdnsim import scenarios

#: Tolerance on offered-load counts, in standard deviations of a Poisson count.
SIGMAS = 5.0
_GENERATED = re.compile(rb'"generated_unix_ms":\d+')
_HOST = re.compile(r"host(\d+)")


# ----------------------------------------------------------------------
# expectations from the configuration tree


def active_seconds(window: dict | None, horizon_s: float) -> float:
    """Seconds within [0, horizon) during which a profile with ``window`` emits."""
    window = window or {}
    start = window.get("start_s", 0.0)
    stop = window.get("stop_s")
    stop = horizon_s if stop is None else min(stop, horizon_s)
    span = max(0.0, stop - start)
    period = window.get("burst_period_s")
    if period is None:
        return span
    on = window["burst_on_s"]
    cycles, rest = divmod(span, period)
    return cycles * on + min(rest, on)


def _count(names, hosts: int) -> int:
    return hosts if names == "all_hosts" else len(names)


def _is_host(name: str, hosts: int) -> bool:
    m = _HOST.fullmatch(name)
    return m is not None and int(m.group(1)) < hosts


def expected_offered(tree: dict, hosts: int) -> dict[str, float]:
    """Poisson means of the offered threat, unauthorized and measured-benign counts."""
    horizon = tree["duration_s"]
    traffic = tree["traffic"]
    benign = sum(
        p["rate_pps"] * _count(p["sources"], hosts) * active_seconds(p.get("window"), horizon)
        for p in traffic.get("benign", ())
        if p.get("measured", True)
    )
    threat = 0.0
    for p in traffic.get("ddos", ()):
        attackers = p.get("attackers", "all_but_target")
        if attackers == "all_but_target":
            n = hosts - (1 if _is_host(p["target"], hosts) else 0)
        else:
            n = len(attackers)
        rate = p["rate_multiplier"] * p["base_rate_pps"]
        threat += rate * n * active_seconds(p.get("window"), horizon)
    unauthorized = sum(
        p["unauthorized_pps"] * _count(p["sources"], hosts)
        * active_seconds(p.get("window"), horizon)
        for p in traffic.get("access", ())
    )
    return {"threat": threat, "unauthorized": unauthorized, "benign": benign}


def _edge_link(tree: dict, node: str) -> dict:
    """The link joining an endpoint to the star's switch."""
    topo = tree["topology"]
    m = _HOST.fullmatch(node)
    if m is None:
        return topo["trunk"]
    return topo.get("per_host_access", {}).get(m.group(1), topo["access"])


def _hop_us(link: dict, size: int) -> float:
    serialise = max(1, math.ceil(size * 8 * 1_000_000 / link["bandwidth_bps"]))
    return link["latency_us"] + serialise


def latency_floor_us(tree: dict, hosts: int) -> float:
    """Smallest propagation + serialisation delay of any measured benign packet."""
    floors = []
    for p in tree["traffic"].get("benign", ()):
        if not p.get("measured", True):
            continue
        size = p["size"]["lo"] if isinstance(p["size"], dict) else p["size"]
        sources = p["sources"]
        if sources == "all_hosts":
            sources = [f"host{i}" for i in range(hosts)]
        for src in sources:
            floors.append(
                _hop_us(_edge_link(tree, src), size) + _hop_us(_edge_link(tree, p["dst"]), size)
            )
    return min(floors)


def _profile_never_blocks(tree: dict, label: str) -> bool:
    if label == "no_security":
        return True
    if label.startswith("profile-"):
        profile = tree["security"]["profiles"][label.removeprefix("profile-")]
        return profile["detection_probability"] == 0.0
    return False


def expected_rows(tree: dict) -> list[tuple[str, str, int]]:
    """(row label, security config, hosts) in the order a scenario runs them."""
    sweep = tree.get("sweep", {}).get("hosts", ())
    rows = []
    for label in tree["security"]["configs"]:
        if sweep:
            rows.extend((f"{label}_h{n:03d}", label, n) for n in sweep)
        else:
            rows.append((label, label, tree["topology"]["hosts"]))
    return rows


# ----------------------------------------------------------------------
# checks


def _within_poisson(observed: int, mean: float) -> bool:
    if mean == 0.0:
        return observed == 0
    return abs(observed - mean) <= SIGMAS * math.sqrt(mean) + 1.0


def _check_row(tree: dict, config: str, hosts: int, row, fail) -> None:
    rep = row.result.report
    c = rep.counters
    in_flight = c.total_packets - c.delivered_packets - c.blocked_packets - c.queue_dropped
    if in_flight < 0:
        fail(f"conservation: {c.total_packets} emitted < delivered+blocked+dropped")
    if rep.benign_sent < rep.benign_delivered + rep.benign_loss_total:
        fail("conservation: measured benign delivered+lost exceeds sent")
    if c.blocked_threat_packets > c.threat_packets:
        fail("blocked threats exceed threats")
    if c.blocked_unauthorized > c.unauthorized_attempts:
        fail("blocked unauthorized exceeds attempts")

    expected = expected_offered(tree, hosts)
    observed = {
        "threat": c.threat_packets,
        "unauthorized": c.unauthorized_attempts,
        "benign": rep.benign_sent,
    }
    for kind, mean in expected.items():
        if not _within_poisson(observed[kind], mean):
            fail(f"offered {kind} count {observed[kind]} is not within "
                 f"{SIGMAS:g} sigma of {mean:.1f}")

    floor_ms = latency_floor_us(tree, hosts) / 1000.0
    if rep.benign_delivered > 0 and rep.mean_latency_ms is None:
        fail("benign packets delivered but mean latency undefined")
    latencies = [rep.mean_latency_ms] + [w.mean_latency_ms for w in rep.windows]
    low = [v for v in latencies if v is not None and v < floor_ms]
    if low:
        fail(f"mean latency {min(low):.6f} ms below the path floor {floor_ms:.6f} ms")

    if _profile_never_blocks(tree, config):
        if c.blocked_packets or row.result.rules_installed:
            fail(f"{config} blocked {c.blocked_packets} packets and installed "
                 f"{row.result.rules_installed} rules")
    if config.startswith("vnfsdn"):
        if c.threat_packets and not (rep.tdr or 0.0) > 0.0:
            fail(f"{config} saw {c.threat_packets} threats but tdr is {rep.tdr}")
        if not c.threat_packets and rep.tdr is not None:
            fail(f"{config} saw no threats but tdr is {rep.tdr}")


def _summary_fields(row) -> dict:
    rep = row.result.report
    c = rep.counters
    fields = {
        "label": row.label,
        "hosts": row.hosts,
        "seed": row.result.seed,
        "benign_sent": rep.benign_sent,
        "benign_delivered": rep.benign_delivered,
        "benign_loss_total": rep.benign_loss_total,
        "rules_installed": row.result.rules_installed,
        "reroutes": row.result.reroutes,
        "events_processed": row.result.events_processed,
        "event_hash": row.result.event_hash,
        "windows": [
            (w.index, w.sent_benign, w.delivered_benign, w.benign_queue_drops,
             w.benign_blocked, w.threat_sent, w.threat_blocked, w.cumulative_benign_loss)
            for w in rep.windows
        ],
    }
    for name in ("total_packets", "delivered_packets", "blocked_packets", "queue_dropped",
                 "threat_packets", "blocked_threat_packets", "unauthorized_attempts",
                 "blocked_unauthorized"):
        fields[name] = getattr(c, name)
    for name in ("tdr", "ubr", "mean_latency_ms", "availability_pct", "throughput_mbps"):
        value = getattr(rep, name)
        fields[name] = None if value is None else round(value, 6)
    return fields


def _check_reload(result, out_dir: Path, fail_row, fail_all) -> None:
    loaded = scenarios.load_results(out_dir)
    if len(loaded) != 1:
        fail_all(f"load_results found {len(loaded)} results, expected 1")
        return
    reloaded = {row.label: row for row in loaded[0].rows}
    for row in result.rows:
        other = reloaded.get(row.label)
        if other is None:
            fail_row(row.label, "row missing from the emitted summary")
            continue
        mine, theirs = _summary_fields(row), _summary_fields(other)
        diff = sorted(k for k in mine if mine[k] != theirs[k])
        if diff:
            fail_row(row.label, f"emitted files disagree with the run on {diff}")


def _check_captures(tree: dict, result, out_dir: Path, fail_row) -> None:
    horizon_us = round(tree["duration_s"] * 1_000_000)
    capturing = tree["security"].get("capture", True)
    for config in tree["security"]["configs"]:
        rows = [r for r in result.rows if r.label == config or r.label.startswith(config + "_h")]
        folder = out_dir / "captures" / f"s{tree['scenario']}_{config}"
        files = sorted(folder.glob("*.ndrec")) if folder.exists() else []
        expect = 1 if capturing and config.startswith("vnfsdn") else 0

        def fail(msg, rows=rows):
            for r in rows:
                fail_row(r.label, msg)

        if len(files) != expect:
            fail(f"{len(files)} capture files for {config}, expected {expect}")
        for path in files:
            try:
                scenarios.capture_dump(path)
            except (scenarios.BadFormat, scenarios.UnsupportedVersion) as exc:
                fail(f"capture_dump rejected {path.name}: {exc}")
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            header = json.loads(lines[0])
            records = [json.loads(line) for line in lines[1:]]
            if header["run_seed"] != tree["seed"]:
                fail(f"capture header seed {header['run_seed']} != {tree['seed']}")
            times = [r["sim_time_us"] for r in records]
            if times != sorted(times) or (times and not 0 <= times[0] <= times[-1] <= horizon_us):
                fail("capture times out of order or outside the horizon")
            if any(not r["verdict"].startswith("block:") for r in records):
                fail("capture holds a packet the chain did not block")
            if len({r["id"] for r in records}) != len(records):
                fail("capture holds a packet twice")
            if len(records) > max(r.result.report.counters.blocked_packets for r in rows):
                fail("capture holds more packets than were blocked")


def check_round(tree: dict, result, out_dir: Path) -> dict[str, list[str]]:
    """Run every output check; returns the failures of each row label."""
    failures: dict[str, list[str]] = {label: [] for label, _, _ in expected_rows(tree)}

    def fail_row(label: str, msg: str) -> None:
        failures.setdefault(label, []).append(msg)

    def fail_all(msg: str) -> None:
        for label in failures:
            fail_row(label, msg)

    got = [(r.label, r.hosts) for r in result.rows]
    want = [(label, hosts) for label, _, hosts in expected_rows(tree)]
    if got != want:
        fail_all(f"rows {got} differ from the expected {want}")
        return failures

    configs = {label: config for label, config, _ in expected_rows(tree)}
    for row in result.rows:
        _check_row(tree, configs[row.label], row.hosts, row,
                   lambda msg, label=row.label: fail_row(label, msg))

    by_hosts: dict[int, list] = {}
    for row in result.rows:
        by_hosts.setdefault(row.hosts, []).append(row)
    for rows in by_hosts.values():
        offered = {
            (r.result.report.counters.threat_packets,
             r.result.report.counters.unauthorized_attempts,
             r.result.report.benign_sent)
            for r in rows
        }
        if len(offered) > 1:
            for r in rows:
                fail_row(r.label, f"offered traffic differs across configs: {sorted(offered)}")

    _check_reload(result, out_dir, fail_row, fail_all)
    _check_captures(tree, result, out_dir, fail_row)
    return failures


# ----------------------------------------------------------------------
# determinism


def fingerprint(out_dir: Path) -> dict[str, str]:
    """Digest of every emitted file, with the wall-clock header field masked."""
    prints = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = _GENERATED.sub(b'"generated_unix_ms":0', path.read_bytes())
        prints[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return prints


def owner(relpath: str, labels: list[str]) -> list[str]:
    """Row labels whose output a file belongs to; all labels for shared files."""
    parts = relpath.split("/")
    if parts[0] == "captures":
        config = parts[1].split("_", 1)[1]  # captures/s<N>_<config>/...
        return [l for l in labels if l == config or l.startswith(config + "_h")]
    for label in labels:
        if re.fullmatch(rf"s\d+_{re.escape(label)}_\d+\.(csv|ndrec)", parts[-1]):
            return [label]
    return list(labels)
