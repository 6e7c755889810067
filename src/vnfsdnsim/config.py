"""Scenario configuration: schema, defaults, file loading, overrides, digest.

A configuration is a JSON tree with a fixed schema (see README).  It is
loaded into a typed ``ScenarioConfig``; the canonical serialisation of
that tree — sorted keys, compact separators — is hashed into the config
digest that stamps every emitted result, so identical inputs are provably
identical.

``default_config(n)`` returns the shipped workload for scenario n.  The
constants in these defaults are calibrated: the traffic rates, link
capacities and queue depths were tuned so that the stock runs land on the
published reference values (see the shipped targets file), and they are
part of the reproducibility contract — change them and the calibration
comparisons will drift.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .model import (
    DEFAULT_ACCESS,
    DEFAULT_CONTROL,
    DEFAULT_TRUNK,
    LinkParams,
    SecurityPolicy,
    StarSpec,
    ThreatKind,
)
from .traffic import (
    AccessProfile,
    ActivityWindow,
    BenignProfile,
    DdosProfile,
    SizeDist,
)

SCENARIO_IDS = (1, 2, 3, 4, 5, 6)

#: Security configurations a scenario may evaluate.  ``profile-<name>``
#: selects one of the mitigation baselines declared under security.profiles.
KNOWN_LABELS = ("no_security", "firewall_only", "ids_only", "vnfsdn", "vnfsdn_firewall")
PROFILE_PREFIX = "profile-"


class ConfigError(Exception):
    """The configuration tree is malformed or inconsistent."""


# ----------------------------------------------------------------------
# typed sub-configs


@dataclass(frozen=True)
class ControllerSettings:
    install_delay_us: int = 1000
    drop_idle_timeout_s: float = 30.0
    congestion_threshold: float = 0.8
    congestion_penalty: float = 10.0


@dataclass(frozen=True)
class IdsSettings:
    signatures: tuple[str, ...] = ()
    anomaly_window_s: float = 1.0
    anomaly_threshold_pps: float = 1000.0


@dataclass(frozen=True)
class ProfileSettings:
    detection_probability: float
    detection_delay_us: int = 0
    cost_us: int = 3
    memory_kb_per_flow: float = 8.0
    prioritize_benign: bool = False


@dataclass(frozen=True)
class FirewallRuleSpec:
    action: str  # "allow" | "deny"
    src: str | None = None
    dst: str | None = None
    protocol: str | None = None


@dataclass(frozen=True)
class SecuritySettings:
    configs: tuple[str, ...]
    firewall_rules: tuple[FirewallRuleSpec, ...] = ()
    ids: IdsSettings = IdsSettings()
    profiles: dict[str, ProfileSettings] = field(default_factory=dict)
    capture: bool = True


@dataclass(frozen=True)
class TrafficSettings:
    benign: tuple[BenignProfile, ...] = ()
    ddos: tuple[DdosProfile, ...] = ()
    access: tuple[AccessProfile, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: int
    seed: int
    duration_s: float
    window_s: float
    topology: StarSpec
    policy: SecurityPolicy
    controller: ControllerSettings
    security: SecuritySettings
    traffic: TrafficSettings
    sweep_hosts: tuple[int, ...] = ()
    monitor_interval_s: float = 1.0
    memory_base_mb: float = 64.0
    raw: dict = field(default_factory=dict, repr=False, compare=False)

    def digest(self) -> str:
        """Hex digest of the canonical configuration tree."""
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def canonical_json(tree: dict) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# dict -> typed config

_KIND_BY_VALUE = {k.value: k for k in ThreatKind}


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _link(d: dict, where: str) -> LinkParams:
    try:
        return LinkParams(
            latency_us=int(_require(d, "latency_us", where)),
            bandwidth_bps=int(_require(d, "bandwidth_bps", where)),
            queue_capacity=int(_require(d, "queue_capacity", where)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad link parameters in {where}: {exc}") from exc


def _size(v, where: str) -> SizeDist:
    if isinstance(v, int):
        return SizeDist(v)
    if isinstance(v, dict):
        return SizeDist(int(_require(v, "lo", where)), v.get("hi"))
    raise ConfigError(f"size in {where} must be an int or {{lo[, hi]}}")


def _window(v: dict | None, where: str) -> ActivityWindow:
    if v is None:
        return ActivityWindow()
    try:
        return ActivityWindow(
            start_s=float(v.get("start_s", 0.0)),
            stop_s=v.get("stop_s"),
            burst_period_s=v.get("burst_period_s"),
            burst_on_s=v.get("burst_on_s"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad activity window in {where}: {exc}") from exc


def _sources(v, where: str):
    if v == "all_hosts":
        return v
    if isinstance(v, list):
        return tuple(v)
    raise ConfigError(f"sources in {where} must be \"all_hosts\" or a name list")


def _benign(d: dict, where: str) -> BenignProfile:
    return BenignProfile(
        name=_require(d, "name", where),
        sources=_sources(_require(d, "sources", where), where),
        dst=_require(d, "dst", where),
        rate_pps=float(_require(d, "rate_pps", where)),
        size=_size(_require(d, "size", where), where),
        tag=_require(d, "tag", where),
        protocol=d.get("protocol", "tcp"),
        request_fraction=float(d.get("request_fraction", 0.0)),
        response_size=int(d.get("response_size", 200)),
        measured=bool(d.get("measured", True)),
        window=_window(d.get("window"), where),
    )


def _ddos(d: dict, where: str) -> DdosProfile:
    kind = _require(d, "threat_kind", where)
    if kind not in _KIND_BY_VALUE:
        raise ConfigError(f"unknown threat kind {kind!r} in {where}")
    attackers = d.get("attackers", "all_but_target")
    if attackers != "all_but_target":
        attackers = tuple(attackers)
    return DdosProfile(
        name=_require(d, "name", where),
        target=_require(d, "target", where),
        threat_kind=_KIND_BY_VALUE[kind],
        tag=_require(d, "tag", where),
        attackers=attackers,
        rate_multiplier=float(d.get("rate_multiplier", 50.0)),
        base_rate_pps=float(d.get("base_rate_pps", 10.0)),
        size=_size(d.get("size", 1000), where),
        protocol=d.get("protocol", "synflood"),
        window=_window(d.get("window"), where),
    )


def _firewall_rule(d: dict, where: str) -> FirewallRuleSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(d) - {"action", "src", "dst", "protocol"})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    action = _require(d, "action", where)
    if action not in ("allow", "deny"):
        raise ConfigError(f"action in {where} must be allow or deny, got {action!r}")
    return FirewallRuleSpec(
        action=action, src=d.get("src"), dst=d.get("dst"), protocol=d.get("protocol")
    )


def _access(d: dict, where: str) -> AccessProfile:
    return AccessProfile(
        name=_require(d, "name", where),
        sources=_sources(_require(d, "sources", where), where),
        dst=_require(d, "dst", where),
        authorized_pps=float(_require(d, "authorized_pps", where)),
        unauthorized_pps=float(_require(d, "unauthorized_pps", where)),
        authorized_tag=_require(d, "authorized_tag", where),
        unauthorized_tag=d.get("unauthorized_tag", "unauthorized"),
        size=_size(d.get("size", 128), where),
        protocol=d.get("protocol", "tcp"),
        window=_window(d.get("window"), where),
    )


def from_dict(tree: dict) -> ScenarioConfig:
    """Validate a configuration tree and build the typed view of it."""
    if not isinstance(tree, dict):
        raise ConfigError("configuration root must be an object")
    scenario = _require(tree, "scenario", "root")
    if scenario not in SCENARIO_IDS:
        raise ConfigError(f"scenario must be one of {SCENARIO_IDS}, got {scenario!r}")

    topo = _require(tree, "topology", "root")
    if topo.get("kind", "star") != "star":
        raise ConfigError(f"unsupported topology kind {topo.get('kind')!r}")
    per_host = {
        int(idx): _link(params, f"topology.per_host_access.{idx}")
        for idx, params in topo.get("per_host_access", {}).items()
    }
    star = StarSpec(
        hosts=int(_require(topo, "hosts", "topology")),
        servers=int(topo.get("servers", 1)),
        access=_link(topo.get("access", vars(DEFAULT_ACCESS)), "topology.access"),
        trunk=_link(topo.get("trunk", vars(DEFAULT_TRUNK)), "topology.trunk"),
        control=_link(topo.get("control", vars(DEFAULT_CONTROL)), "topology.control"),
        per_host_access=per_host,
    )

    policy_tags = _require(_require(tree, "policy", "root"), "accepted_tags", "policy")
    try:
        policy = SecurityPolicy(frozenset(policy_tags))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    ctl = tree.get("controller", {})
    controller = ControllerSettings(
        install_delay_us=int(ctl.get("install_delay_us", 1000)),
        drop_idle_timeout_s=float(ctl.get("drop_idle_timeout_s", 30.0)),
        congestion_threshold=float(ctl.get("congestion_threshold", 0.8)),
        congestion_penalty=float(ctl.get("congestion_penalty", 10.0)),
    )

    sec = _require(tree, "security", "root")
    labels = tuple(_require(sec, "configs", "security"))
    profiles = {
        name: ProfileSettings(
            detection_probability=float(_require(p, "detection_probability", f"profiles.{name}")),
            detection_delay_us=int(p.get("detection_delay_us", 0)),
            cost_us=int(p.get("cost_us", 3)),
            memory_kb_per_flow=float(p.get("memory_kb_per_flow", 8.0)),
            prioritize_benign=bool(p.get("prioritize_benign", False)),
        )
        for name, p in sec.get("profiles", {}).items()
    }
    for label in labels:
        if label.startswith(PROFILE_PREFIX):
            if label[len(PROFILE_PREFIX):] not in profiles:
                raise ConfigError(f"config {label!r} names an undeclared profile")
        elif label not in KNOWN_LABELS:
            raise ConfigError(f"unknown security config {label!r}")
    if len(set(labels)) != len(labels):
        raise ConfigError("security.configs contains duplicates")
    ids_d = sec.get("ids", {})
    for sig in ids_d.get("signatures", ()):
        if sig not in _KIND_BY_VALUE:
            raise ConfigError(f"unknown threat kind {sig!r} in security.ids.signatures")
    security = SecuritySettings(
        configs=labels,
        firewall_rules=tuple(
            _firewall_rule(r, f"security.firewall_rules[{i}]")
            for i, r in enumerate(sec.get("firewall_rules", ()))
        ),
        ids=IdsSettings(
            signatures=tuple(ids_d.get("signatures", ())),
            anomaly_window_s=float(ids_d.get("anomaly_window_s", 1.0)),
            anomaly_threshold_pps=float(ids_d.get("anomaly_threshold_pps", 1000.0)),
        ),
        profiles=profiles,
        capture=bool(sec.get("capture", True)),
    )

    traffic_d = tree.get("traffic", {})
    try:
        traffic = TrafficSettings(
            benign=tuple(
                _benign(p, f"traffic.benign[{i}]")
                for i, p in enumerate(traffic_d.get("benign", ()))
            ),
            ddos=tuple(
                _ddos(p, f"traffic.ddos[{i}]")
                for i, p in enumerate(traffic_d.get("ddos", ()))
            ),
            access=tuple(
                _access(p, f"traffic.access[{i}]")
                for i, p in enumerate(traffic_d.get("access", ()))
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad traffic profile: {exc}") from exc

    duration_s = float(tree.get("duration_s", 60.0))
    window_s = float(tree.get("window_s", 1.0))
    if duration_s <= 0 or window_s <= 0:
        raise ConfigError("duration_s and window_s must be positive")
    sweep = tuple(int(n) for n in tree.get("sweep", {}).get("hosts", ()))
    if sweep and sorted(sweep) != list(sweep):
        raise ConfigError("sweep.hosts must be ascending")

    return ScenarioConfig(
        scenario=int(scenario),
        seed=int(tree.get("seed", 1)),
        duration_s=duration_s,
        window_s=window_s,
        topology=star,
        policy=policy,
        controller=controller,
        security=security,
        traffic=traffic,
        sweep_hosts=sweep,
        monitor_interval_s=float(tree.get("monitor_interval_s", 1.0)),
        memory_base_mb=float(tree.get("memory_base_mb", 64.0)),
        raw=tree,
    )


def load_tree(path: str) -> dict:
    """Read a configuration file into its raw tree, without validating."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"config {path} must contain a key/value tree at top level")
    return tree


def load(path: str) -> ScenarioConfig:
    """Load and validate a configuration file."""
    return from_dict(load_tree(path))


# ----------------------------------------------------------------------
# --set overrides


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings may be given unquoted


def apply_overrides(tree: dict, assignments: list[str]) -> dict:
    """Apply ``--set path.to.key=value`` assignments to a configuration tree.

    Paths are dot-separated; integer components index into lists.  Values
    are parsed as JSON with a fallback to plain strings.  Returns a new
    tree; the input is not modified.
    """
    updated = json.loads(json.dumps(tree))
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        path, _, value_text = assignment.partition("=")
        parts = path.split(".")
        node = updated
        for i, part in enumerate(parts[:-1]):
            key = int(part) if isinstance(node, list) else part
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError, ValueError):
                raise ConfigError(
                    f"override path {path!r} does not exist at {'.'.join(parts[: i + 1])!r}"
                ) from None
        leaf = parts[-1]
        value = _parse_value(value_text)
        if isinstance(node, list):
            try:
                node[int(leaf)] = value
            except (IndexError, ValueError):
                raise ConfigError(f"override path {path!r} has a bad list index") from None
        elif isinstance(node, dict):
            node[leaf] = value
        else:
            raise ConfigError(f"override path {path!r} does not address a container")
    return updated


# ----------------------------------------------------------------------
# shipped defaults
#
# Queueing arithmetic behind the headline constants, scenario 1 (all sizes
# 1000 B so packet and byte shares coincide; trunk serves 4000 pps):
#   steady benign 10x260 = 2600 pps; surge+flood adds, per burst second,
#   109 (legacy surge) + 1620 (flash surge) + 240 (syn) + 129 (exploit)
#   -> offered 4698 under no_security.  Each 2 s burst overflows the
#   40-deep trunk queue by ~(offered-4000)*2 - 40 packets, split across
#   classes by arrival share, giving benign losses of ~1500 (none blocked),
#   ~750 (floods filtered) and ~500 (floods + legacy surge blocked) over
#   the two bursts, and a worst-window availability near 85% when nothing
#   is blocked.

_MITIGATION_PROFILES = {
    # Virtualised-appliance baseline: decent detection, slow reporting path.
    "netvirt": {
        "detection_probability": 0.55,
        "detection_delay_us": 20_000,
        "cost_us": 4,
        "memory_kb_per_flow": 24.0,
    },
    # Edge-compute baseline: better detection, shorter reporting path.
    "mobile_edge": {
        "detection_probability": 0.70,
        "detection_delay_us": 8_000,
        "cost_us": 3,
        "memory_kb_per_flow": 16.0,
    },
    # Scheduling-only baseline: never blocks, serves benign traffic first.
    "qos_sdn": {
        "detection_probability": 0.0,
        "detection_delay_us": 15_000,
        "cost_us": 2,
        "memory_kb_per_flow": 12.0,
        "prioritize_benign": True,
    },
}

_LINK = lambda lat, bw, cap: {  # noqa: E731 - table-building shorthand
    "latency_us": lat,
    "bandwidth_bps": bw,
    "queue_capacity": cap,
}


def _scenario1() -> dict:
    burst = {"start_s": 20.0, "stop_s": 50.0, "burst_period_s": 25.0, "burst_on_s": 2.0}
    return {
        "scenario": 1,
        "seed": 101,
        "duration_s": 60.0,
        "window_s": 1.0,
        "topology": {
            "kind": "star",
            "hosts": 10,
            "servers": 1,
            "access": _LINK(300, 1_000_000_000, 2048),
            "trunk": _LINK(800, 32_000_000, 40),
            "control": _LINK(200, 1_000_000_000, 256),
        },
        "policy": {"accepted_tags": ["user-gold", "guest-legacy", "guest-flash"]},
        "controller": {
            "install_delay_us": 1000,
            "drop_idle_timeout_s": 30.0,
            "congestion_threshold": 0.8,
            "congestion_penalty": 10.0,
        },
        "security": {
            "configs": [
                "no_security",
                "firewall_only",
                "ids_only",
                "vnfsdn",
                "vnfsdn_firewall",
            ],
            "firewall_rules": [{"action": "deny", "protocol": "legacyudp"}],
            "ids": {
                "signatures": ["syn_flood"],
                "anomaly_window_s": 1.0,
                "anomaly_threshold_pps": 800.0,
            },
            "profiles": _MITIGATION_PROFILES,
            "capture": True,
        },
        "traffic": {
            "benign": [
                {
                    "name": "user_web",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 260.0,
                    "size": {"lo": 1000},
                    "tag": "user-gold",
                    "protocol": "tcp",
                    "request_fraction": 0.04,
                    "response_size": 200,
                    "measured": True,
                },
                {
                    "name": "legacy_surge",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 10.9,
                    "size": {"lo": 1000},
                    "tag": "guest-legacy",
                    "protocol": "legacyudp",
                    "measured": False,
                    "window": dict(burst),
                },
                {
                    "name": "flash_surge",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 166.0,
                    "size": {"lo": 1000},
                    "tag": "guest-flash",
                    "protocol": "tcp",
                    "measured": False,
                    "window": dict(burst),
                },
            ],
            "ddos": [
                {
                    "name": "syn_flood",
                    "target": "server0",
                    "threat_kind": "syn_flood",
                    "tag": "intruder-syn",
                    "attackers": "all_but_target",
                    "rate_multiplier": 2.4,
                    "base_rate_pps": 10.0,
                    "size": {"lo": 1000},
                    "protocol": "synflood",
                    "window": dict(burst),
                },
                {
                    "name": "exploit_probe",
                    "target": "server0",
                    "threat_kind": "zero_day",
                    "tag": "intruder-zd",
                    "attackers": "all_but_target",
                    "rate_multiplier": 1.29,
                    "base_rate_pps": 10.0,
                    "size": {"lo": 1000},
                    "protocol": "tcp",
                    "window": dict(burst),
                },
            ],
            "access": [],
        },
    }


def _scenario2() -> dict:
    return {
        "scenario": 2,
        "seed": 202,
        "duration_s": 20.0,
        "window_s": 1.0,
        "sweep": {"hosts": list(range(10, 101, 10))},
        "topology": {
            "kind": "star",
            "hosts": 10,  # per-point override comes from the sweep
            "servers": 1,
            "access": _LINK(300, 1_000_000_000, 2048),
            "trunk": _LINK(800, 20_000_000, 128),
            "control": _LINK(200, 1_000_000_000, 256),
        },
        "policy": {"accepted_tags": ["user-std"]},
        "controller": {},
        "security": {
            "configs": ["vnfsdn"],
            "firewall_rules": [],
            "ids": {
                "signatures": ["udp_flood"],
                "anomaly_window_s": 1.0,
                "anomaly_threshold_pps": 600.0,
            },
            "profiles": _MITIGATION_PROFILES,
            "capture": True,
        },
        "traffic": {
            "benign": [
                {
                    "name": "user_load",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 40.0,
                    "size": {"lo": 1000},
                    "tag": "user-std",
                    "request_fraction": 0.05,
                    "response_size": 200,
                    "measured": True,
                }
            ],
            "ddos": [
                {
                    "name": "udp_flood",
                    "target": "server0",
                    "threat_kind": "udp_flood",
                    "tag": "intruder-flood",
                    "attackers": ["host0", "host1", "host2"],
                    "rate_multiplier": 15.0,
                    "base_rate_pps": 10.0,
                    "size": {"lo": 1000},
                    "protocol": "udpflood",
                    "window": {"start_s": 5.0, "stop_s": 15.0},
                }
            ],
            "access": [],
        },
    }


def _scenario3() -> dict:
    return {
        "scenario": 3,
        "seed": 303,
        "duration_s": 60.0,
        "window_s": 1.0,
        "topology": {
            "kind": "star",
            "hosts": 10,
            "servers": 1,
            "access": _LINK(300, 1_000_000_000, 2048),
            "trunk": _LINK(800, 16_000_000, 64),
            "control": _LINK(200, 1_000_000_000, 256),
        },
        "policy": {"accepted_tags": ["user-std"]},
        "controller": {},
        "security": {
            "configs": ["vnfsdn", "ids_only", "profile-qos_sdn"],
            "firewall_rules": [],
            "ids": {
                "signatures": [],
                "anomaly_window_s": 1.0,
                "anomaly_threshold_pps": 300.0,
            },
            "profiles": _MITIGATION_PROFILES,
            "capture": True,
        },
        "traffic": {
            "benign": [
                {
                    "name": "user_load",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 150.0,
                    "size": {"lo": 1000},
                    "tag": "user-std",
                    "request_fraction": 0.1,
                    "response_size": 200,
                    "measured": True,
                }
            ],
            "ddos": [
                {
                    "name": "pulse_flood",
                    "target": "server0",
                    "threat_kind": "http_flood",
                    "tag": "intruder-pulse",
                    "attackers": ["host0", "host1", "host2"],
                    "rate_multiplier": 40.0,
                    "base_rate_pps": 10.0,
                    "size": {"lo": 1000},
                    "protocol": "httpflood",
                    "window": {
                        "start_s": 10.0,
                        "stop_s": 50.0,
                        "burst_period_s": 10.0,
                        "burst_on_s": 2.0,
                    },
                }
            ],
            "access": [],
        },
    }


def _scenario4() -> dict:
    # Jumbo frames on a 300 Mb/s trunk serve ~4167 pps; the 20-host user
    # load offers 250 Mb/s.  The junk surge saturates the trunk two seconds
    # out of three; the third second drains through a near-capacity load, so
    # without filtering the per-window latency alternates high/low (jitter)
    # while drops trim delivered benign throughput towards 200 Mb/s.  With
    # filtering the junk dies at the switch and only its access-link
    # contention remains, leaving mild latency swings around the clean path.
    return {
        "scenario": 4,
        "seed": 404,
        "duration_s": 30.0,
        "window_s": 1.0,
        "topology": {
            "kind": "star",
            "hosts": 20,
            "servers": 1,
            "access": _LINK(1000, 27_000_000, 512),
            "trunk": _LINK(7800, 300_000_000, 52),
            "control": _LINK(200, 1_000_000_000, 256),
        },
        "policy": {"accepted_tags": ["tenant-a", "tenant-b"]},
        "controller": {},
        "security": {
            "configs": ["no_security", "vnfsdn"],
            "firewall_rules": [],
            "ids": {
                "signatures": [],
                "anomaly_window_s": 1.0,
                "anomaly_threshold_pps": 5000.0,
            },
            "profiles": _MITIGATION_PROFILES,
            "capture": True,
        },
        "traffic": {
            "benign": [
                {
                    "name": "jumbo_up",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 173.6,
                    "size": {"lo": 9000},
                    "tag": "tenant-a",
                    "request_fraction": 0.02,
                    "response_size": 1000,
                    "measured": True,
                },
                {
                    "name": "bulk_junk_surge",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 124.0,
                    "size": {"lo": 9000},
                    "tag": "bulk-junk",
                    "measured": False,
                    "window": {"burst_period_s": 3.0, "burst_on_s": 2.0},
                },
                {
                    "name": "bulk_junk_trickle",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 25.0,
                    "size": {"lo": 9000},
                    "tag": "bulk-junk",
                    "measured": False,
                    "window": {"start_s": 2.0, "burst_period_s": 3.0, "burst_on_s": 1.0},
                },
            ],
            "ddos": [],
            "access": [],
        },
    }


def _scenario5() -> dict:
    return {
        "scenario": 5,
        "seed": 505,
        "duration_s": 60.0,
        "window_s": 1.0,
        "topology": {
            "kind": "star",
            "hosts": 10,
            "servers": 1,
            "access": _LINK(300, 1_000_000_000, 2048),
            "trunk": _LINK(800, 100_000_000, 128),
            "control": _LINK(200, 1_000_000_000, 256),
            # The victim sits behind a thin edge link the flood can fill.
            "per_host_access": {"9": _LINK(300, 16_000_000, 100)},
        },
        "policy": {"accepted_tags": ["tenant-video", "tenant-app", "client-basic"]},
        "controller": {},
        "security": {
            "configs": [
                "no_security",
                "vnfsdn",
                "ids_only",
                "profile-netvirt",
                "profile-mobile_edge",
                "profile-qos_sdn",
            ],
            "firewall_rules": [],
            "ids": {
                "signatures": ["udp_flood"],
                "anomaly_window_s": 1.0,
                "anomaly_threshold_pps": 1500.0,
            },
            "profiles": _MITIGATION_PROFILES,
            "capture": True,
        },
        "traffic": {
            "benign": [
                {
                    "name": "video_down",
                    "sources": ["server0"],
                    "dst": "host9",
                    "rate_pps": 1200.0,
                    "size": {"lo": 1000},
                    "tag": "tenant-video",
                    "measured": True,
                },
                {
                    "name": "uplink_mix",
                    "sources": [f"host{i}" for i in range(9)],
                    "dst": "server0",
                    "rate_pps": 50.0,
                    "size": {"lo": 400},
                    "tag": "tenant-app",
                    "measured": True,
                },
                {
                    "name": "rtt_probe",
                    "sources": ["host9"],
                    "dst": "server0",
                    "rate_pps": 20.0,
                    "size": {"lo": 200},
                    "tag": "tenant-app",
                    "request_fraction": 1.0,
                    "response_size": 1000,
                    "measured": True,
                },
            ],
            "ddos": [
                {
                    "name": "edge_flood",
                    "target": "host9",
                    "threat_kind": "udp_flood",
                    "tag": "intruder-ddos",
                    "attackers": [f"host{i}" for i in range(9)],
                    "rate_multiplier": 20.0,
                    "base_rate_pps": 10.0,
                    "size": {"lo": 1000},
                    "protocol": "udpflood",
                    "window": {"start_s": 15.0, "stop_s": 45.0},
                }
            ],
            "access": [
                {
                    "name": "portal",
                    "sources": [f"host{i}" for i in range(9)],
                    "dst": "server0",
                    "authorized_pps": 5.0,
                    "unauthorized_pps": 2.0,
                    "authorized_tag": "client-basic",
                    "unauthorized_tag": "intruder-cred",
                    "size": {"lo": 128},
                }
            ],
        },
    }


def _scenario6() -> dict:
    attack_window = {"start_s": 5.0, "stop_s": 55.0}
    return {
        "scenario": 6,
        "seed": 606,
        "duration_s": 60.0,
        "window_s": 1.0,
        "topology": {
            "kind": "star",
            "hosts": 10,
            "servers": 1,
            "access": _LINK(300, 1_000_000_000, 2048),
            "trunk": _LINK(800, 100_000_000, 128),
            "control": _LINK(200, 1_000_000_000, 256),
        },
        "policy": {"accepted_tags": ["corp"]},
        "controller": {},
        "security": {
            "configs": [
                "no_security",
                "vnfsdn",
                "vnfsdn_firewall",
                "ids_only",
                "firewall_only",
            ],
            "firewall_rules": [{"action": "deny", "protocol": "synflood"}],
            "ids": {
                "signatures": ["syn_flood"],
                "anomaly_window_s": 1.0,
                "anomaly_threshold_pps": 60.0,
            },
            "profiles": _MITIGATION_PROFILES,
            "capture": True,
        },
        "traffic": {
            "benign": [
                {
                    "name": "office_load",
                    "sources": "all_hosts",
                    "dst": "server0",
                    "rate_pps": 30.0,
                    "size": {"lo": 800},
                    "tag": "corp",
                    "request_fraction": 0.05,
                    "response_size": 200,
                    "measured": True,
                }
            ],
            "ddos": [
                {
                    "name": "syn_flood",
                    "target": "server0",
                    "threat_kind": "syn_flood",
                    "tag": "intruder-syn",
                    "attackers": "all_but_target",
                    "rate_multiplier": 0.6,
                    "base_rate_pps": 10.0,
                    "size": {"lo": 600},
                    "protocol": "synflood",
                    "window": dict(attack_window),
                },
                {
                    "name": "stealth_probe",
                    "target": "server0",
                    "threat_kind": "zero_day",
                    "tag": "intruder-stealth",
                    "attackers": ["host0", "host1", "host2", "host3"],
                    "rate_multiplier": 3.5,
                    "base_rate_pps": 10.0,
                    "size": {"lo": 600},
                    "protocol": "tcp",
                    "window": dict(attack_window),
                },
            ],
            "access": [],
        },
    }


_DEFAULTS = {
    1: _scenario1,
    2: _scenario2,
    3: _scenario3,
    4: _scenario4,
    5: _scenario5,
    6: _scenario6,
}


def default_config(scenario: int) -> dict:
    """The shipped configuration tree for a scenario (a fresh copy)."""
    if scenario not in _DEFAULTS:
        raise ConfigError(f"scenario must be one of {SCENARIO_IDS}, got {scenario!r}")
    return _DEFAULTS[scenario]()
