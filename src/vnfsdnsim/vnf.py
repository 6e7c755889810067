"""Data-plane security functions and their chaining.

Each function inspects a packet and returns a ``Verdict``: ``FORWARD``, or
the block reason itself, one enum member per reason.  A chain consults its
functions in order and stops at the first block, so the per-packet
processing cost is the sum of the costs of the functions actually
consulted.  Each function also reports ``state_kb``, the estimated state it
holds, which the runtime's memory gauge sums.

The packet filter realises tag-set admission: a packet is forwarded only
when its tag is in the authorised set and it is not an access violation,
otherwise it is blocked with a policy-mismatch reason.  The capture
function implements monitor-mode recording.  While monitoring is active the
runtime hands it every packet the chain blocks at a switch; packets that
the chain forwards, or that an installed drop rule consumes before the
chain, are not captured.  The buffer keeps each captured packet itself,
with its verdict and capture time, and ``stop_and_save`` writes it out as
one line-delimited record file.

The firewall, the intrusion detector and the mitigation profiles take the
config sections declared here: ``FirewallRule``, ``IdsSettings`` and
``ProfileSettings``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Literal

from .engine import RngStream, seconds
from .model import (
    FRACTION,
    NON_NEGATIVE,
    POSITIVE,
    SPAN,
    Flow,
    Packet,
    PacketClass,
    SecurityPolicy,
    StarSpec,
    ThreatKind,
    require,
)


class MonitoringStopped(Exception):
    """Capture was invoked after monitoring had been stopped."""


class IoFailure(Exception):
    """Persisting a capture buffer failed."""


class Verdict(Enum):
    """A decision on one packet: forward it, or block it for the reason that
    is its value."""

    FORWARD = "forward"
    POLICY_MISMATCH = "policy_mismatch"
    FIREWALL_RULE = "firewall_rule"
    IDS_SIGNATURE = "ids_signature"
    IDS_ANOMALY = "ids_anomaly"
    PROFILE_DETECTION = "profile_detection"

    @property
    def forward(self) -> bool:
        return self is FORWARD

    @property
    def label(self) -> str:
        return "forward" if self is FORWARD else f"block:{self.value}"


#: Hot paths compare by identity with this global: reading it is cheaper than
#: the enum's class-attribute lookup ``Verdict.FORWARD``.
FORWARD = Verdict.FORWARD


# ----------------------------------------------------------------------
# individual functions


@dataclass
class FilterVnf:
    """Tag-set admission filter.

    Forwards a packet iff its tag is authorised and it is not an
    unauthorised-access attempt; blocks everything else as a policy
    mismatch.
    """

    policy: SecurityPolicy

    #: Processing cost of one packet, in us.
    cost_us = 2
    #: Estimated state, in kB, for the memory gauge: none.
    state_kb = 0.0

    def check(self, packet: Packet, now_us: int = 0) -> Verdict:
        if self.policy.accepts(packet.tag) and packet.cls is not PacketClass.UNAUTHORIZED_ACCESS:
            return FORWARD
        return Verdict.POLICY_MISMATCH


@dataclass(frozen=True)
class FirewallRule:
    """One ``security.firewall_rules`` entry: a static allow/deny rule.

    ``src`` and ``dst`` are node names; ``None`` fields match anything.
    """

    action: Literal["allow", "deny"]
    src: str | None = None
    dst: str | None = None
    protocol: str | None = None


class FirewallVnf:
    """First-match static rule table; a packet no rule matches is allowed."""

    cost_us = 1
    state_kb = 0.0

    def __init__(self, rules: Iterable[FirewallRule], topology: StarSpec):
        def node_id(name: str | None) -> int | None:
            return None if name is None else topology.ids[name]

        # (allow, src id, dst id, protocol) per rule
        self._table = [
            (rule.action == "allow", node_id(rule.src), node_id(rule.dst), rule.protocol)
            for rule in rules
        ]

    def check(self, packet: Packet, now_us: int = 0) -> Verdict:
        for allow, src, dst, protocol in self._table:
            if (
                (src is None or src == packet.src)
                and (dst is None or dst == packet.dst)
                and (protocol is None or protocol == packet.protocol)
            ):
                return FORWARD if allow else Verdict.FIREWALL_RULE
        return FORWARD


@dataclass(frozen=True)
class IdsSettings:
    """The ``security.ids`` config section."""

    signatures: frozenset[ThreatKind] = frozenset()
    anomaly_window_s: float = 1.0
    anomaly_threshold_pps: float = 1000.0

    def __post_init__(self) -> None:
        require(self, SPAN, "anomaly_window_s")
        require(self, POSITIVE, "anomaly_threshold_pps")


#: Estimated state per tracked intrusion-detection source, in kB.
IDS_KB_PER_SOURCE = 4.0


@dataclass
class IdsVnf:
    """Signature matching plus a sliding-window per-source rate detector.

    Every packet updates the source's arrival history.  Signature hits are
    reported first; otherwise the source's arrival rate over the trailing
    window is compared against the anomaly threshold.
    """

    settings: IdsSettings
    _arrivals: dict[int, deque[int]] = field(default_factory=dict, repr=False)

    cost_us = 5

    def __post_init__(self) -> None:
        self._window_us = seconds(self.settings.anomaly_window_s)

    def check(self, packet: Packet, now_us: int) -> Verdict:
        settings = self.settings
        history = self._arrivals.setdefault(packet.src, deque())
        cutoff = now_us - self._window_us
        while history and history[0] <= cutoff:
            history.popleft()
        history.append(now_us)
        if packet.threat_kind is not None and packet.threat_kind in settings.signatures:
            return Verdict.IDS_SIGNATURE
        if len(history) / settings.anomaly_window_s > settings.anomaly_threshold_pps:
            return Verdict.IDS_ANOMALY
        return FORWARD

    @property
    def state_kb(self) -> float:
        return len(self._arrivals) * IDS_KB_PER_SOURCE


@dataclass(frozen=True)
class ProfileSettings:
    """One entry of the ``security.profiles`` config section.

    Threat packets are detected with ``detection_probability``; a detection
    takes ``detection_delay_us`` to propagate to the control plane.
    ``prioritize_benign`` marks profiles that schedule benign traffic ahead
    of everything else instead of (or in addition to) blocking.
    """

    detection_probability: float
    detection_delay_us: int = 0
    cost_us: int = 3
    memory_kb_per_flow: float = 8.0
    prioritize_benign: bool = False

    def __post_init__(self) -> None:
        require(self, FRACTION, "detection_probability")
        require(self, NON_NEGATIVE, "detection_delay_us", "cost_us", "memory_kb_per_flow")


@dataclass
class MitigationProfile:
    """Baseline mitigation behaviour used for approach comparisons.

    Each threat packet costs one draw from ``rng`` when the detection
    probability is above zero.
    """

    name: str
    settings: ProfileSettings
    rng: RngStream
    _flows: set[Flow] = field(default_factory=set, repr=False)

    @property
    def cost_us(self) -> int:
        return self.settings.cost_us

    def check(self, packet: Packet, now_us: int = 0) -> Verdict:
        self._flows.add(packet.flow)
        probability = self.settings.detection_probability
        if packet.cls is PacketClass.THREAT and probability > 0.0:
            if self.rng.uniform() < probability:
                return Verdict.PROFILE_DETECTION
        return FORWARD

    @property
    def state_kb(self) -> float:
        return len(self._flows) * self.settings.memory_kb_per_flow


# ----------------------------------------------------------------------
# packet capture

CAPTURE_FORMAT_VERSION = 1
CAPTURE_SUFFIX = ".ndrec"

#: json.dumps settings of every line-delimited record file (captures and
#: results): keys in lexicographic order, no whitespace.  They are the
#: byte-level file contract.
NDREC_JSON = {"sort_keys": True, "separators": (",", ":")}


#: The keys of a capture record, in the sorted order ``NDREC_JSON`` writes.
CAPTURE_RECORD_KEYS = (
    "class", "dst", "id", "protocol", "sim_time_us", "size", "src", "tag", "verdict"
)


class CaptureVnf:
    """Monitor-mode packet recorder.

    Mirrors the usual capture workflow: put an interface in monitor mode,
    accumulate frames, then stop and save the buffer to a dump file in a
    target folder.  The file is line-delimited: a header object first, then
    one object per captured packet, all with keys in lexicographic order.
    """

    # The monitor interface every capture header names.
    channel = 6
    ap_mac = "02:00:00:00:00:01"
    iface = "mon0"
    #: Processing cost of one captured packet, in us.
    cost_us = 1

    def __init__(self, folder: str | Path, run_seed: int):
        self.folder = Path(folder)
        self.run_seed = run_seed
        self.monitoring = True
        # (sim time in us, packet, verdict) per captured packet
        self.buffer: list[tuple[int, Packet, Verdict]] = []

    def capture(self, packet: Packet, verdict: Verdict, now_us: int) -> None:
        """Append one packet to the buffer."""
        if not self.monitoring:
            raise MonitoringStopped("capture invoked after monitoring stopped")
        self.buffer.append((now_us, packet, verdict))

    def header_object(self) -> dict:
        return {
            "ap_mac": self.ap_mac,
            "channel": self.channel,
            "format_version": CAPTURE_FORMAT_VERSION,
            "iface": self.iface,
            "run_seed": self.run_seed,
        }

    def stop_and_save(self) -> Path:
        """Stop monitoring, persist the buffer, clear it, return the file path."""
        self.monitoring = False
        path = self.folder / f"capture_{self.run_seed}_0{CAPTURE_SUFFIX}"
        try:
            self.folder.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(self.header_object(), **NDREC_JSON) + "\n")
                for now_us, p, verdict in self.buffer:
                    values = (p.class_label, p.dst, p.id, p.protocol, now_us,
                              p.size, p.src, p.tag, verdict.label)
                    record = dict(zip(CAPTURE_RECORD_KEYS, values))
                    fh.write(json.dumps(record, **NDREC_JSON) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write capture file {path}: {exc}") from exc
        self.buffer.clear()
        return path


# ----------------------------------------------------------------------
# chaining


class VnfChain:
    """Ordered security functions consulted until the first Block."""

    def __init__(self, vnfs: list | None = None):
        self.vnfs = list(vnfs or [])

    def process(self, packet: Packet, now_us: int) -> tuple[Verdict, int]:
        """Return (verdict, total cost in us of the functions consulted)."""
        cost = 0
        for vnf in self.vnfs:
            cost += vnf.cost_us
            verdict = vnf.check(packet, now_us)
            if verdict is not FORWARD:
                return verdict, cost
        return FORWARD, cost
