"""Traffic generation: benign workloads, volumetric attacks, access attempts.

Each profile describes its traffic as a list of packet streams, one per
source (two per source for access attempts: authorised and unauthorised).
A stream holds everything its packets share, and ``emit_stream`` is the one
emitter that turns any stream into packets.  Every stream draws from its own
named random stream, so its packet sequence is a pure function of the run
seed and its own parameters.  Emission is a Poisson process on the stream's
*active* time axis; an activity window maps that axis onto wall-clock time,
which is how phased and pulsed attacks are described without extra
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

from .engine import EventKind, SimEngine, SimTime, seconds
from .model import (
    FRACTION,
    MAX_PACKET_BYTES,
    NON_NEGATIVE,
    PACKET_SIZE,
    NodeId,
    Packet,
    PacketClass,
    ThreatKind,
    Topology,
    require,
)

PacketSink = Callable[[Packet], None]
IdAllocator = Callable[[], int]


@dataclass(frozen=True)
class ActivityWindow:
    """When a profile emits.

    The profile is live from ``start_s`` until ``stop_s`` (or the run end).
    With a burst structure, emission happens during the first ``burst_on_s``
    seconds of every ``burst_period_s``-second cycle and pauses in between;
    the Poisson process continues across pauses rather than restarting.
    """

    start_s: float = 0.0
    stop_s: float | None = None
    burst_period_s: float | None = None
    burst_on_s: float | None = None

    def __post_init__(self) -> None:
        if self.burst_period_s is not None:
            in_cycle = (f"in (0, {self.burst_period_s}]",
                        lambda on: on is not None and 0 < on <= self.burst_period_s)
            require(self, in_cycle, "burst_on_s")

    def wall_us(self, active_s: float) -> SimTime:
        """Map a point on the active axis to wall-clock microseconds."""
        if self.burst_period_s is None:
            return seconds(self.start_s + active_s)
        cycles, offset = divmod(active_s, self.burst_on_s)
        return seconds(self.start_s + cycles * self.burst_period_s + offset)

    def expired(self, wall_us: SimTime, duration_us: SimTime) -> bool:
        limit = duration_us if self.stop_s is None else min(seconds(self.stop_s), duration_us)
        return wall_us >= limit


@dataclass(frozen=True)
class SizeDist:
    """Packet size in bytes: fixed, or uniform over [lo, hi]."""

    lo: int
    hi: int | None = None

    def __post_init__(self) -> None:
        require(self, PACKET_SIZE, "lo")
        if self.hi is not None:
            in_range = (f"in [{self.lo}, {MAX_PACKET_BYTES}]",
                        lambda hi: self.lo <= hi <= MAX_PACKET_BYTES)
            require(self, in_range, "hi")

    def draw(self, stream) -> int:
        if self.hi is None or self.hi == self.lo:
            return self.lo
        return stream.uniform_int(self.lo, self.hi)


@dataclass(frozen=True)
class PacketStream:
    """One Poisson stream of packets and the fields all of them share.

    ``name`` keys the stream's random draws.  ``origin`` names the profile
    the packets came from.  A ``request_fraction`` of the packets are
    round-trip probes that the destination answers with a
    ``response_size``-byte reply.
    """

    name: str
    rate_pps: float
    window: ActivityWindow
    src: NodeId
    dst: NodeId
    size: SizeDist
    protocol: str
    cls: PacketClass
    tag: str
    origin: str
    measured: bool = False
    threat_kind: ThreatKind | None = None
    request_fraction: float = 0.0
    response_size: int = 0


#: Accepted node lists for ``require``: a keyword such as ``"all_hosts"``, or
#: names that each appear once, so that no two streams share a random stream.
NAMED_ONCE = (
    "a list naming each node once",
    lambda v: isinstance(v, str) or len(set(v)) == len(v),
)


def _endpoints(topology: Topology, names: tuple[str, ...] | str) -> list[tuple[str, NodeId]]:
    """(name, id) of every host for ``"all_hosts"``, else of each named node."""
    if names == "all_hosts":
        return [(topology.node(i).name, i) for i in topology.host_ids()]
    return [(name, topology.by_name(name).id) for name in names]


@dataclass(frozen=True)
class BenignProfile:
    """Legitimate-looking traffic from a set of sources to one destination.

    ``measured`` selects the profiles that represent the user workload KPIs
    are reported over; auxiliary benign-class streams (e.g. the legitimate-
    looking component of a volumetric attack) set it to False so they load
    the network without polluting user-facing metrics.  A ``request_fraction``
    of packets are round-trip probes: the destination answers them with a
    ``response_size``-byte reply used for response-time measurement.
    """

    name: str
    sources: tuple[str, ...] | Literal["all_hosts"]  # node names, or every host
    dst: str
    rate_pps: float
    size: SizeDist
    tag: str
    protocol: str = "tcp"
    request_fraction: float = 0.0
    response_size: int = 200
    measured: bool = True
    window: ActivityWindow = ActivityWindow()

    def __post_init__(self) -> None:
        require(self, NON_NEGATIVE, "rate_pps")
        require(self, NAMED_ONCE, "sources")
        require(self, FRACTION, "request_fraction")
        text, legal = PACKET_SIZE
        require(self, (f"0 or {text}", lambda n: n == 0 or legal(n)), "response_size")

    def streams(self, topology: Topology) -> list[PacketStream]:
        """One stream per source."""
        dst = topology.by_name(self.dst).id
        return [
            PacketStream(
                f"benign/{self.name}/{name}", self.rate_pps, self.window, src, dst,
                self.size, self.protocol, PacketClass.BENIGN, self.tag,
                f"benign/{self.name}", measured=self.measured,
                request_fraction=self.request_fraction, response_size=self.response_size,
            )
            for name, src in _endpoints(topology, self.sources)
        ]


@dataclass(frozen=True)
class DdosProfile:
    """Coordinated threat flood towards one target.

    Per-attacker rate is ``rate_multiplier`` times ``base_rate_pps``, the
    conventional description of attack intensity relative to a normal
    sender.  Attackers default to every host except the target.
    """

    name: str
    target: str
    threat_kind: ThreatKind
    tag: str
    attackers: tuple[str, ...] | Literal["all_but_target"] = "all_but_target"
    rate_multiplier: float = 50.0
    base_rate_pps: float = 10.0
    size: SizeDist = SizeDist(1000)
    protocol: str = "synflood"
    window: ActivityWindow = ActivityWindow()

    def __post_init__(self) -> None:
        require(self, NON_NEGATIVE, "rate_multiplier", "base_rate_pps")
        require(self, NAMED_ONCE, "attackers")

    @property
    def rate_pps_per_attacker(self) -> float:
        return self.rate_multiplier * self.base_rate_pps

    def streams(self, topology: Topology) -> list[PacketStream]:
        """One stream per attacker."""
        target = topology.by_name(self.target).id
        named = self.attackers != "all_but_target"
        attackers = _endpoints(topology, self.attackers if named else "all_hosts")
        return [
            PacketStream(
                f"ddos/{self.name}/{name}", self.rate_pps_per_attacker, self.window, src,
                target, self.size, self.protocol, PacketClass.THREAT, self.tag,
                f"ddos/{self.name}", threat_kind=self.threat_kind,
            )
            for name, src in attackers
            if named or src != target
        ]


@dataclass(frozen=True)
class AccessProfile:
    """Resource access attempts, a mix of authorised and unauthorised."""

    name: str
    sources: tuple[str, ...] | Literal["all_hosts"]
    dst: str
    authorized_pps: float
    unauthorized_pps: float
    authorized_tag: str
    unauthorized_tag: str = "unauthorized"
    size: SizeDist = SizeDist(128)
    protocol: str = "tcp"
    window: ActivityWindow = ActivityWindow()

    def __post_init__(self) -> None:
        require(self, NON_NEGATIVE, "authorized_pps", "unauthorized_pps")
        require(self, NAMED_ONCE, "sources")

    def streams(self, topology: Topology) -> list[PacketStream]:
        """An authorised and an unauthorised stream per source."""
        dst = topology.by_name(self.dst).id
        kinds = (
            ("authorized", self.authorized_pps, PacketClass.BENIGN, self.authorized_tag),
            ("unauthorized", self.unauthorized_pps, PacketClass.UNAUTHORIZED_ACCESS,
             self.unauthorized_tag),
        )
        return [
            PacketStream(
                f"access/{self.name}/{name}/{kind}", rate, self.window, src, dst,
                self.size, self.protocol, cls, tag, f"access/{self.name}",
            )
            for name, src in _endpoints(topology, self.sources)
            for kind, rate, cls, tag in kinds
        ]


def emit_stream(
    engine: SimEngine,
    stream: PacketStream,
    duration_us: SimTime,
    next_id: IdAllocator,
    sink: PacketSink,
) -> None:
    """Schedule the stream's Poisson arrivals on its active axis into ``sink``.

    A zero-rate stream schedules nothing and registers no random stream.
    """
    if stream.rate_pps <= 0:
        return
    rng = engine.register_stream(stream.name)
    window = stream.window
    cursor = 0.0  # seconds on the stream's active axis

    def emit(now: SimTime, _payload) -> None:
        # The request draw, when there is one, comes before the size draw.
        is_request = stream.request_fraction > 0.0 and rng.uniform() < stream.request_fraction
        sink(
            Packet(
                id=next_id(),
                src=stream.src,
                dst=stream.dst,
                size=stream.size.draw(rng),
                protocol=stream.protocol,
                cls=stream.cls,
                tag=stream.tag,
                created_at=now,
                threat_kind=stream.threat_kind,
                origin=stream.origin,
                measured=stream.measured,
                is_request=is_request,
                response_size=stream.response_size if is_request else 0,
            )
        )
        push_next()

    def push_next() -> None:
        nonlocal cursor
        cursor += rng.exponential(stream.rate_pps)
        wall = window.wall_us(cursor)
        if not window.expired(wall, duration_us):
            engine.schedule(wall, EventKind.TRAFFIC_EMIT, emit)

    push_next()
