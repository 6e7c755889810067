"""Domain model: nodes, links, packets, policies and topology construction.

Node identifiers are dense integers assigned in declaration order (a star's
hosts, then its switch, then its servers), which keeps output ordering
stable across runs.  The controller is not a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


class NodeKind(Enum):
    UE_HOST = "ue_host"
    SWITCH = "switch"
    SERVER = "server"


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind
    name: str


@dataclass(frozen=True)
class Link:
    """Undirected cable between two nodes.

    Each direction gets its own transmission queue at runtime; the ratings
    below apply per direction.
    """

    a: NodeId
    b: NodeId
    latency_us: int
    bandwidth_bps: int
    queue_capacity: int


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
    creation time.  Forwarding state (its hop) travels with the
    packet in the runtime's events, not on it.
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


@dataclass
class Topology:
    nodes: list[Node]
    links: list[Link]
    _by_name: dict[str, Node] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {n.name: n for n in self.nodes}

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[node_id]

    def by_name(self, name: str) -> Node:
        return self._by_name[name]

    def by_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes if n.kind is kind]

    def host_ids(self) -> list[NodeId]:
        return [n.id for n in self.by_kind(NodeKind.UE_HOST)]


# ----------------------------------------------------------------------
# topology specs


@dataclass(frozen=True)
class LinkParams:
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

    ``per_host_access`` overrides the access link of individual hosts by
    index, which is how asymmetric last-hop capacity (e.g. a throttled
    victim downlink) is described.
    """

    hosts: int
    servers: int = 1
    access: LinkParams = DEFAULT_ACCESS
    trunk: LinkParams = DEFAULT_TRUNK
    per_host_access: dict[int, LinkParams] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self, POSITIVE, "hosts", "servers")


def build_topology(spec: StarSpec) -> Topology:
    """Materialise a star; its spec's range checks make it valid by construction."""

    def link(a: NodeId, b: NodeId, params: LinkParams) -> Link:
        return Link(a, b, params.latency_us, params.bandwidth_bps, params.queue_capacity)

    hosts = [Node(i, NodeKind.UE_HOST, f"host{i}") for i in range(spec.hosts)]
    switch = Node(spec.hosts, NodeKind.SWITCH, "switch0")
    first = spec.hosts + 1
    servers = [Node(first + j, NodeKind.SERVER, f"server{j}") for j in range(spec.servers)]
    links = [link(h.id, switch.id, spec.per_host_access.get(h.id, spec.access)) for h in hosts]
    links += [link(switch.id, server.id, spec.trunk) for server in servers]
    return Topology([*hosts, switch, *servers], links)


