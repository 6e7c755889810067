"""Scenario configuration: schema, defaults, file loading, overrides, digest.

The settings dataclasses below, with the dataclasses they nest (topology,
traffic profiles, controller and security-function settings, each declared
beside the code that reads it), are the schema: a key is a field name, its
type the field's annotation and its default the field's default; a range
check is a ``__post_init__``.  ``from_dict`` walks it; every fault is a
``ConfigError`` naming the key's dotted path.
The config digest hashes the canonical tree (sorted keys, compact
separators).  ``default_config(n)`` reads ``data/scenario_<n>.json``, whose
constants are calibrated against the shipped targets file.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from importlib import resources
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .model import SPAN, RangeError, SecurityPolicy, StarSpec, require
from .sdn import ControllerSettings
from .traffic import AccessProfile, BenignProfile, DdosProfile, SizeDist
from .vnf import FirewallRule, IdsSettings, ProfileSettings

SCENARIO_IDS = (1, 2, 3, 4, 5, 6)

#: Security configurations a scenario may evaluate.  ``profile-<name>``
#: selects one of the mitigation baselines declared under security.profiles.
KNOWN_LABELS = ("no_security", "firewall_only", "ids_only", "vnfsdn", "vnfsdn_firewall")
PROFILE_PREFIX = "profile-"

#: ``require`` ranges: a scenario number, and a label some run can have.
SCENARIO = (f"one of {SCENARIO_IDS}", lambda v: v in SCENARIO_IDS)
SECURITY_LABEL = (
    f"one of {', '.join(KNOWN_LABELS)} or {PROFILE_PREFIX}<name>",
    lambda v: v in KNOWN_LABELS or (v.startswith(PROFILE_PREFIX) and v != PROFILE_PREFIX),
)


class ConfigError(Exception):
    """The configuration tree is malformed or inconsistent."""


# ----------------------------------------------------------------------
# typed sub-configs


@dataclass(frozen=True)
class SecuritySettings:
    configs: tuple[str, ...]
    firewall_rules: tuple[FirewallRule, ...] = ()
    ids: IdsSettings = IdsSettings()
    profiles: dict[str, ProfileSettings] = field(default_factory=dict)
    capture: bool = True

    def __post_init__(self) -> None:
        text, ok = SECURITY_LABEL
        require(self, (f"at least one label, each {text}", lambda v: v and all(map(ok, v))),
                "configs")
        for label in self.configs:
            profile = label.removeprefix(PROFILE_PREFIX)
            if profile != label and profile not in self.profiles:
                raise ValueError(f"config {label!r} names an undeclared profile")
        if len(set(self.configs)) != len(self.configs):
            raise ValueError("configs contains duplicates")


@dataclass(frozen=True)
class TrafficSettings:
    benign: tuple[BenignProfile, ...] = ()
    ddos: tuple[DdosProfile, ...] = ()
    access: tuple[AccessProfile, ...] = ()


@dataclass(frozen=True)
class SweepSettings:
    hosts: tuple[int, ...] = ()  # each config runs at every count, not at topology.hosts

    def __post_init__(self) -> None:
        require(self, ("strictly ascending counts of at least 1",
                       lambda v: all(a < b for a, b in zip((0, *v), v))), "hosts")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    scenario: int
    seed: int = 1
    duration_s: float = 60.0
    window_s: float = 1.0
    topology: StarSpec
    policy: SecurityPolicy
    controller: ControllerSettings = ControllerSettings()
    security: SecuritySettings
    traffic: TrafficSettings = TrafficSettings()
    sweep: SweepSettings = SweepSettings()
    monitor_interval_s: float = 1.0
    memory_base_mb: float = 64.0
    #: The tree as written, which the digest covers; not a config key.
    raw: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require(self, SCENARIO, "scenario")
        require(self, SPAN, "duration_s", "window_s", "monitor_interval_s")

    def digest(self) -> str:
        """Hex digest of the canonical configuration tree."""
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def canonical_json(tree: dict) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# dict -> typed config


@cache
def _schema(cls) -> tuple[dict, frozenset]:
    """A dataclass's keys with their annotations, and its required keys (memoised:
    ``get_type_hints`` costs more than a whole parse)."""
    hints = get_type_hints(cls)
    keys = [f for f in fields(cls) if f.init]
    required = [f.name for f in keys if f.default is MISSING and f.default_factory is MISSING]
    return {f.name: hints[f.name] for f in keys}, frozenset(required)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _build(cls, tree, path: str):
    """Instantiate dataclass ``cls`` from a JSON object, key by key."""
    if type(tree) is not dict:
        raise ConfigError(f"{path or 'configuration root'} must be an object, got {tree!r}")
    types, required = _schema(cls)
    for key in tree:
        if key not in types:
            raise ConfigError(f"unknown key {_join(path, key)!r}")
    missing = required - tree.keys()
    if missing:
        raise ConfigError(f"missing key {_join(path, min(missing))!r}")
    kwargs = {key: _convert(types[key], value, _join(path, key)) for key, value in tree.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # A RangeError's message starts with the failing field's key.
        where = f"{path}." if isinstance(exc, RangeError) else f"{path}: "
        raise ConfigError(f"{where}{exc}" if path else str(exc)) from exc


def _convert(tp, value, path: str):
    """``value`` read as annotation ``tp``, or a ConfigError naming ``path``.  Int and
    bool take JSON integers and booleans only, float finite numbers only (Python's
    JSON reader accepts NaN and Infinity); lists stand for tuples and sets."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        if tp is SizeDist and type(value) is int:
            value = {"lo": value}  # shorthand for a fixed size
        return _build(tp, value, path)
    if origin is Union or origin is UnionType:
        for arm in args:
            with suppress(ConfigError):
                return _convert(arm, value, path)
    elif origin is Literal:
        if any(type(value) is type(a) and value == a for a in args):
            return value
    elif origin is tuple or origin is frozenset:
        if type(value) is list:
            return origin(_convert(args[0], v, f"{path}.{i}") for i, v in enumerate(value))
    elif origin is dict:
        if type(value) is dict:
            key_type, item_type = args
            out = {}
            for k, v in value.items():
                if key_type is int and str(k).isdecimal():
                    k = int(k)  # JSON object keys are strings
                key = _convert(key_type, k, _join(path, k))
                out[key] = _convert(item_type, v, _join(path, k))
            return out
    elif isinstance(tp, type) and issubclass(tp, Enum):
        with suppress(ValueError):
            return tp(value)
    elif tp is float:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    elif type(value) is tp:
        return value
    raise ConfigError(f"{path} must be {_describe(tp)}, got {value!r}")


_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
          type(None): "null", tuple: "a list", frozenset: "a list", dict: "an object"}


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is UnionType:
        return " or ".join(map(_describe, args))
    if origin is Literal:
        return " or ".join(map(json.dumps, args))
    if origin is None and issubclass(tp, Enum):
        return " or ".join(json.dumps(member.value) for member in tp)
    return _NAMES[origin or tp]


def from_dict(tree: dict) -> ScenarioConfig:
    """Validate a configuration tree and build the typed view of it.

    Every node name the tree uses must name a node of the star at its
    smallest sweep point; traffic must run between hosts and servers.
    """
    cfg = _build(ScenarioConfig, tree, "")
    object.__setattr__(cfg, "raw", tree)
    hosts = cfg.sweep.hosts[0] if cfg.sweep.hosts else cfg.topology.hosts
    ids = replace(cfg.topology, hosts=hosts).ids
    for idx in cfg.topology.per_host_access:
        if not 0 <= idx < hosts:
            raise ConfigError(f"topology.per_host_access.{idx}: host index not in 0..{hosts - 1}")
    refs = [(f"security.firewall_rules.{i}.{key}", getattr(rule, key))
            for i, rule in enumerate(cfg.security.firewall_rules) for key in ("src", "dst")]
    every_host = tuple(ids)[:hosts]
    for kind in ("benign", "ddos", "access"):
        src_key, dst_key = ("attackers", "target") if kind == "ddos" else ("sources", "dst")
        for i, profile in enumerate(getattr(cfg.traffic, kind)):
            path = f"traffic.{kind}.{i}"
            senders, dst = getattr(profile, src_key), getattr(profile, dst_key)
            senders = {"all_hosts": every_host, "all_but_target": ()}.get(senders, senders)
            if dst in senders:  # its packets would have no route
                raise ConfigError(f"{path}.{src_key}: includes the {dst_key} {dst!r}")
            refs.append((f"{path}.{dst_key}", dst))
            refs += [(f"{path}.{src_key}.{j}", n) for j, n in enumerate(senders)]
    for path, name in refs:
        if name is not None and name not in ids:
            raise ConfigError(f"{path}: no node named {name!r}")
        # Traffic runs between endpoints: every route is (src, switch, dst).
        if path.startswith("traffic.") and name == "switch0":
            raise ConfigError(f"{path}: {name!r} is not a host or a server")
    return cfg


def load_tree(path: str) -> dict:
    """Read a configuration or targets file into its raw tree, without validating."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path} must contain a key/value tree at top level")
    return tree


def load(path: str) -> ScenarioConfig:
    """Load and validate a configuration file."""
    return from_dict(load_tree(path))


# ----------------------------------------------------------------------
# --set overrides


def apply_overrides(tree: dict, assignments: list[str]) -> dict:
    """Apply ``--set path.to.key=value`` assignments to a configuration tree.

    Paths are dot-separated; integer components index into lists.  Values
    are parsed as JSON with a fallback to plain strings.  Every part but
    the last must exist; ``from_dict`` checks a new key against the schema.
    Returns a new tree; the input is not modified.
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
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text  # bare strings may be given unquoted
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
# The six default trees are data/scenario_<n>.json.  JSON holds no
# comments, so the reasons behind their constants are given here.
#
# Scenario 1, the queueing arithmetic behind the headline constants (all
# sizes 1000 B so packet and byte shares coincide; trunk serves 4000 pps):
#   steady benign 10x260 = 2600 pps; surge+flood adds, per burst second,
#   109 (legacy surge) + 1620 (flash surge) + 240 (syn) + 129 (exploit)
#   -> offered 4698 under no_security.  Each 2 s burst overflows the
#   40-deep trunk queue by ~(offered-4000)*2 - 40 packets, split across
#   classes by arrival share, giving benign losses of ~1500 (none blocked),
#   ~750 (floods filtered) and ~500 (floods + legacy surge blocked) over
#   the two bursts, and a worst-window availability near 85% when nothing
#   is blocked.
#
# Scenario 2: topology.hosts is replaced at each point by sweep.hosts.
#
# Scenario 4: jumbo frames on a 300 Mb/s trunk serve ~4167 pps; the 20-host
# user load offers 250 Mb/s.  The junk surge saturates the trunk two
# seconds out of three; the third second drains through a near-capacity
# load, so without filtering the per-window latency alternates high/low
# (jitter) while drops trim delivered benign throughput towards 200 Mb/s.
# With filtering the junk dies at the switch and only its access-link
# contention remains, leaving mild latency swings around the clean path.
#
# Scenario 5: the victim (host9) sits behind a thin edge link
# (topology.per_host_access."9") the flood can fill.
#
# The mitigation profiles every scenario declares under security.profiles:
#   netvirt      virtualised-appliance baseline: decent detection, slow
#                reporting path;
#   mobile_edge  edge-compute baseline: better detection, shorter
#                reporting path;
#   qos_sdn      scheduling-only baseline: never blocks, serves benign
#                traffic first.


def default_config(scenario: int) -> dict:
    """The shipped configuration tree for a scenario (a fresh copy)."""
    if scenario not in SCENARIO_IDS:
        raise ConfigError(f"scenario must be one of {SCENARIO_IDS}, got {scenario!r}")
    text = (
        resources.files("vnfsdnsim")
        .joinpath(f"data/scenario_{scenario}.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)
