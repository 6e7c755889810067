"""Domain model: nodes, links, packets, policies and topology construction.

Node identifiers are dense integers assigned in declaration order, which
keeps route tie-breaking and output ordering stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Literal

NodeId = int

MIN_PACKET_BYTES = 64
MAX_PACKET_BYTES = 9000  # jumbo frames; 1500 is the usual ethernet ceiling


class RangeError(ValueError):
    """A setting lies outside its accepted range; the message starts with its key."""


# Accepted ranges for ``require``: (description, test).  Each test is written
# so that NaN fails it.
POSITIVE = ("positive", lambda v: v > 0)
NON_NEGATIVE = ("at least 0", lambda v: v >= 0)
FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)
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
    CONTROLLER = "controller"


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind
    name: str


class ViolationKind(Enum):
    DISCONNECTED_GRAPH = "disconnected_graph"
    DUPLICATE_CONTROLLER = "duplicate_controller"
    MISSING_CONTROLLER = "missing_controller"
    INVALID_LINK = "invalid_link"
    INVALID_NODE = "invalid_node"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str


class TopologyError(Exception):
    """Raised when a topology cannot be built; carries the violation list."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(f"{v.kind.value}: {v.detail}" for v in violations))


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

    def __post_init__(self) -> None:
        problems = []
        if self.a == self.b:
            problems.append(f"self-loop on node {self.a}")
        if self.latency_us < 0:
            problems.append(f"negative latency {self.latency_us}")
        if self.bandwidth_bps <= 0:
            problems.append(f"non-positive bandwidth {self.bandwidth_bps}")
        if self.queue_capacity <= 0:
            problems.append(f"non-positive queue capacity {self.queue_capacity}")
        if problems:
            raise TopologyError(
                [Violation(ViolationKind.INVALID_LINK, p) for p in problems]
            )


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
    user-facing benign workload that KPIs are computed over, and a request
    asks its destination for a ``response_size``-byte reply whose
    ``rtt_anchor`` is the request's creation time.  Forwarding state (route
    and hop) travels with the packet in the runtime's events, not on it.
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
    is_request: bool = False
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
    _adjacency: dict[NodeId, list[tuple[NodeId, Link]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {n.name: n for n in self.nodes}
        self._adjacency = {n.id: [] for n in self.nodes}
        for link in self.links:
            if link.a in self._adjacency and link.b in self._adjacency:
                self._adjacency[link.a].append((link.b, link))
                self._adjacency[link.b].append((link.a, link))
        for nbrs in self._adjacency.values():
            nbrs.sort(key=lambda pair: pair[0])

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[node_id]

    def by_name(self, name: str) -> Node:
        return self._by_name[name]

    def by_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes if n.kind is kind]

    def neighbors(self, node_id: NodeId) -> list[tuple[NodeId, Link]]:
        """Adjacent (node, link) pairs, sorted by neighbour id."""
        return self._adjacency[node_id]

    def host_ids(self) -> list[NodeId]:
        return [n.id for n in self.by_kind(NodeKind.UE_HOST)]


def validate(topology: Topology) -> list[Violation]:
    """Check structural invariants; an empty list means the topology is sound."""
    violations: list[Violation] = []
    ids = [n.id for n in topology.nodes]
    if ids != list(range(len(ids))):
        violations.append(
            Violation(
                ViolationKind.INVALID_NODE,
                "node ids must be dense and in declaration order",
            )
        )
    controllers = topology.by_kind(NodeKind.CONTROLLER)
    if not controllers:
        violations.append(
            Violation(ViolationKind.MISSING_CONTROLLER, "no controller node")
        )
    elif len(controllers) > 1:
        names = ", ".join(n.name for n in controllers)
        violations.append(
            Violation(ViolationKind.DUPLICATE_CONTROLLER, f"controllers: {names}")
        )
    id_set = set(ids)
    for link in topology.links:
        if link.a not in id_set or link.b not in id_set:
            violations.append(
                Violation(
                    ViolationKind.INVALID_LINK,
                    f"link ({link.a}, {link.b}) references unknown node",
                )
            )
    # Reachability over valid links only.
    if topology.nodes:
        seen = {topology.nodes[0].id}
        frontier = [topology.nodes[0].id]
        while frontier:
            current = frontier.pop()
            for nbr, _ in topology.neighbors(current):
                if nbr in id_set and nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        unreachable = sorted(id_set - seen)
        if unreachable:
            violations.append(
                Violation(
                    ViolationKind.DISCONNECTED_GRAPH,
                    f"nodes unreachable from {topology.nodes[0].name}: {unreachable}",
                )
            )
    return violations


# ----------------------------------------------------------------------
# topology specs


@dataclass(frozen=True)
class LinkParams:
    latency_us: int
    bandwidth_bps: int
    queue_capacity: int


DEFAULT_ACCESS = LinkParams(latency_us=300, bandwidth_bps=1_000_000_000, queue_capacity=2048)
DEFAULT_TRUNK = LinkParams(latency_us=800, bandwidth_bps=100_000_000, queue_capacity=128)
DEFAULT_CONTROL = LinkParams(latency_us=200, bandwidth_bps=1_000_000_000, queue_capacity=256)


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
    control: LinkParams = DEFAULT_CONTROL
    per_host_access: dict[int, LinkParams] = field(default_factory=dict)
    kind: Literal["star"] = "star"


def build_topology(spec: StarSpec) -> Topology:
    """Materialise a spec into a validated topology, or raise TopologyError."""
    topology = _build_star(spec)
    violations = validate(topology)
    if violations:
        raise TopologyError(violations)
    return topology


def _build_star(spec: StarSpec) -> Topology:
    if spec.hosts < 1:
        raise TopologyError(
            [Violation(ViolationKind.INVALID_LINK, "a star needs at least one host")]
        )
    if spec.servers < 1:
        raise TopologyError(
            [Violation(ViolationKind.INVALID_LINK, "a star needs at least one server")]
        )
    nodes: list[Node] = []
    for i in range(spec.hosts):
        nodes.append(Node(len(nodes), NodeKind.UE_HOST, f"host{i}"))
    switch = Node(len(nodes), NodeKind.SWITCH, "switch0")
    nodes.append(switch)
    servers = []
    for j in range(spec.servers):
        server = Node(len(nodes), NodeKind.SERVER, f"server{j}")
        nodes.append(server)
        servers.append(server)
    controller = Node(len(nodes), NodeKind.CONTROLLER, "controller")
    nodes.append(controller)

    links: list[Link] = []
    for i in range(spec.hosts):
        params = spec.per_host_access.get(i, spec.access)
        links.append(
            Link(i, switch.id, params.latency_us, params.bandwidth_bps, params.queue_capacity)
        )
    for server in servers:
        links.append(
            Link(
                switch.id,
                server.id,
                spec.trunk.latency_us,
                spec.trunk.bandwidth_bps,
                spec.trunk.queue_capacity,
            )
        )
    links.append(
        Link(
            switch.id,
            controller.id,
            spec.control.latency_us,
            spec.control.bandwidth_bps,
            spec.control.queue_capacity,
        )
    )
    return Topology(nodes, links)
