"""Domain model: packets, policies, link ratings and the star topology.

Node identifiers are dense integers assigned in a fixed order (a star's
hosts, then its switch, then its servers), which keeps output ordering
stable across runs.  The controller is not a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

NodeId = int
#: A flow's identity: source, destination and traffic tag.
Flow = tuple[NodeId, NodeId, str]

MIN_PACKET_BYTES = 64
MAX_PACKET_BYTES = 9000  # jumbo frames; 1500 is the usual ethernet ceiling


class RangeError(ValueError):
    """A setting lies outside its accepted range; the message starts with its key."""


# Accepted ranges for ``require``: (description, test).  Each test is written
# so that NaN fails it.
POSITIVE = ("positive", lambda v: v > 0)
NON_NEGATIVE = ("at least 0", lambda v: v >= 0)
FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)
# A time span in seconds that lasts at least one tick of the microsecond clock.
SPAN = ("at least 1e-6", lambda v: v >= 1e-6)
PACKET_SIZE = (
    f"in [{MIN_PACKET_BYTES}, {MAX_PACKET_BYTES}]",
    lambda v: MIN_PACKET_BYTES <= v <= MAX_PACKET_BYTES,
)


def require(obj, accepted: tuple[str, Callable[[float], bool]], *keys: str) -> None:
    """Raise a RangeError for the first of ``keys`` whose value on ``obj`` is not in range."""
    text, ok = accepted
    for key in keys:
        value = getattr(obj, key)
        if not ok(value):
            raise RangeError(f"{key} must be {text}, got {value!r}")


class PacketClass(Enum):
    BENIGN = "benign"
    THREAT = "threat"
    UNAUTHORIZED_ACCESS = "unauthorized_access"


class ThreatKind(Enum):
    SYN_FLOOD = "syn_flood"
    UDP_FLOOD = "udp_flood"
    HTTP_FLOOD = "http_flood"
    PORT_SCAN = "port_scan"
    ZERO_DAY = "zero_day"


@dataclass(frozen=True, slots=True)
class Packet:
    """A unit of traffic, immutable once created.

    The trailing fields are simulator plumbing: ``origin`` names the traffic
    profile that emitted the packet, ``measured`` marks it as part of the
    user-facing benign workload that KPIs are computed over, and a packet
    with a positive ``response_size`` is a request: it asks its destination
    for a reply of that many bytes, whose ``rtt_anchor`` is the request's
    creation time.  It carries no forwarding state: the runtime's link
    queues know their direction, so which hop a packet crossing them makes.
    """

    id: int
    src: NodeId
    dst: NodeId
    size: int
    protocol: str
    cls: PacketClass
    tag: str
    created_at: int
    threat_kind: ThreatKind | None = None
    origin: str = ""
    measured: bool = False
    response_size: int = 0
    rtt_anchor: int | None = None

    def __post_init__(self) -> None:
        if not MIN_PACKET_BYTES <= self.size <= MAX_PACKET_BYTES:
            raise ValueError(
                f"packet size {self.size} outside "
                f"[{MIN_PACKET_BYTES}, {MAX_PACKET_BYTES}] bytes"
            )
        if self.cls is PacketClass.THREAT and self.threat_kind is None:
            raise ValueError("threat packets must carry a threat kind")

    @property
    def flow(self) -> Flow:
        """The flow the packet belongs to; drop rules and per-flow state key on it."""
        return (self.src, self.dst, self.tag)

    @property
    def class_label(self) -> str:
        """Stable serialisation label, e.g. ``threat:syn_flood``."""
        if self.cls is PacketClass.THREAT:
            return f"threat:{self.threat_kind.value}"
        return self.cls.value


@dataclass(frozen=True)
class SecurityPolicy:
    """The set of traffic tags the network owner has authorised."""

    accepted_tags: frozenset[str]

    def __post_init__(self) -> None:
        if not self.accepted_tags:
            raise ValueError("a security policy needs at least one accepted tag")

    def accepts(self, tag: str) -> bool:
        return tag in self.accepted_tags


# ----------------------------------------------------------------------
# topology


@dataclass(frozen=True)
class LinkParams:
    """The ratings of one link; each direction queues on its own at runtime."""

    latency_us: int
    bandwidth_bps: int
    queue_capacity: int

    def __post_init__(self) -> None:
        require(self, NON_NEGATIVE, "latency_us")
        require(self, POSITIVE, "bandwidth_bps", "queue_capacity")


DEFAULT_ACCESS = LinkParams(latency_us=300, bandwidth_bps=1_000_000_000, queue_capacity=2048)
DEFAULT_TRUNK = LinkParams(latency_us=800, bandwidth_bps=100_000_000, queue_capacity=128)


@dataclass(frozen=True)
class StarSpec:
    """Hosts fanned into one switch, which uplinks to the server(s).

    Node ids run over the hosts ``0..hosts-1`` (``host<i>``), then the
    switch (``switch0``), then the servers (``server<j>``).  Every host and
    server is joined to the switch by a link of its own.
    ``per_host_access`` overrides the access link of individual hosts by
    index, which is how asymmetric last-hop capacity (e.g. a throttled
    victim downlink) is described.  The range checks make every star valid.
    """

    hosts: int
    servers: int = 1
    access: LinkParams = DEFAULT_ACCESS
    trunk: LinkParams = DEFAULT_TRUNK
    per_host_access: dict[int, LinkParams] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self, POSITIVE, "hosts", "servers")

    @cached_property
    def ids(self) -> dict[str, NodeId]:
        """Every node's id by name, in id order."""
        names = [f"host{i}" for i in range(self.hosts)] + ["switch0"]
        names += [f"server{j}" for j in range(self.servers)]
        return {name: i for i, name in enumerate(names)}

    def links(self) -> dict[NodeId, LinkParams]:
        """Each host's and server's link to the switch, by its id."""
        links = {i: self.per_host_access.get(i, self.access) for i in range(self.hosts)}
        first = self.hosts + 1
        links.update((first + j, self.trunk) for j in range(self.servers))
        return links
