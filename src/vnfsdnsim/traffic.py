"""Traffic generation: benign workloads, volumetric attacks, access attempts.

Each profile describes its traffic as a list of packet streams, one per
source (two per source for access attempts: authorised and unauthorised).
A stream holds everything its packets share.  Every stream draws from its
own named random stream, ``RngStream(seed, stream.name)``, in one order per
packet: the exponential gap, then (with a ``request_fraction``) the request
uniform, then (with a size range) the size.  So its packet sequence is a
pure function of the run seed and its own parameters.  Emission is a Poisson
process on the stream's *active* time axis; an activity window maps that
axis onto wall-clock time, which is how phased and pulsed attacks are
described without extra randomness.

``offered_chunks`` is the one emitter: it draws every stream of a sweep
point once and merges them into ``Packet`` objects sorted by (creation
time, stream index), numbered 0, 1, 2, ... in that order, and handed out in
``CHUNK_US`` slices of the horizon.  Every security config of the point is
fed the same chunks, so it sees the very same packet objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Literal

from .engine import RngStream, SimTime, seconds
from .model import (
    FRACTION,
    MAX_PACKET_BYTES,
    NON_NEGATIVE,
    PACKET_SIZE,
    POSITIVE,
    NodeId,
    Packet,
    PacketClass,
    StarSpec,
    ThreatKind,
    require,
)

#: Length of one slice of offered traffic, in microseconds.  The cells of a
#: sweep point advance through the slices in lockstep, so only one slice of
#: packets is held at a time.
CHUNK_US = 100_000

#: ``require`` range of a rate in packets per second: off, or large enough
#: that an exponential gap drawn from it stays finite.
RATE = ("0 or at least 1e-6", lambda v: v == 0 or v >= 1e-6)


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
        require(self, NON_NEGATIVE, "start_s")
        if self.stop_s is not None:
            require(self, (f"greater than start_s ({self.start_s})",
                           lambda stop: stop > self.start_s), "stop_s")
        if self.burst_period_s is not None:
            require(self, POSITIVE, "burst_period_s")
            in_cycle = (f"in (0, {self.burst_period_s}]",
                        lambda on: on is not None and 0 < on <= self.burst_period_s)
            require(self, in_cycle, "burst_on_s")
        else:
            require(self, ("unset without burst_period_s", lambda on: on is None), "burst_on_s")

    def wall_us(self, active_s: float) -> SimTime:
        """Map a point on the active axis to wall-clock microseconds."""
        if self.burst_period_s is None:
            return seconds(self.start_s + active_s)
        cycles, offset = divmod(active_s, self.burst_on_s)
        return seconds(self.start_s + cycles * self.burst_period_s + offset)


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


def _endpoints(topology: StarSpec, names: tuple[str, ...] | str) -> list[tuple[str, NodeId]]:
    """(name, id) of every host for ``"all_hosts"``, else of each named node."""
    if names == "all_hosts":
        return list(topology.ids.items())[: topology.hosts]
    return [(name, topology.ids[name]) for name in names]


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
        require(self, RATE, "rate_pps")
        require(self, NAMED_ONCE, "sources")
        require(self, FRACTION, "request_fraction")
        text, legal = PACKET_SIZE
        require(self, (f"0 or {text}", lambda n: n == 0 or legal(n)), "response_size")

    def streams(self, topology: StarSpec) -> list[PacketStream]:
        """One stream per source."""
        dst = topology.ids[self.dst]
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
        require(self, RATE, "rate_multiplier", "base_rate_pps")
        require(self, NAMED_ONCE, "attackers")

    @property
    def rate_pps_per_attacker(self) -> float:
        return self.rate_multiplier * self.base_rate_pps

    def streams(self, topology: StarSpec) -> list[PacketStream]:
        """One stream per attacker."""
        target = topology.ids[self.target]
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
        require(self, RATE, "authorized_pps", "unauthorized_pps")
        require(self, NAMED_ONCE, "sources")

    def streams(self, topology: StarSpec) -> list[PacketStream]:
        """An authorised and an unauthorised stream per source."""
        dst = topology.ids[self.dst]
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


def _draws(seed: int, index: int, stream: PacketStream, duration_us: SimTime):
    """The stream's emissions as a function ``take(end_us, out)`` that appends
    ``(created_at, index, size, response_size)`` for each one before ``end_us``
    to ``out``, drawing as it goes; ``take`` is called with rising ends."""
    rng = RngStream(seed, stream.name)
    window = stream.window
    limit = duration_us if window.stop_s is None else min(seconds(window.stop_s), duration_us)
    rate, size = stream.rate_pps, stream.size
    request_fraction, response_size = stream.request_fraction, stream.response_size
    cursor = 0.0  # seconds on the stream's active axis
    head = None  # the drawn emission that the last ``take`` did not reach

    def draw():
        nonlocal cursor
        cursor += rng.exponential(rate)
        wall = window.wall_us(cursor)
        if wall >= limit:
            return None
        # The request draw, when there is one, comes before the size draw.
        request = request_fraction > 0.0 and rng.uniform() < request_fraction
        return (wall, index, size.draw(rng), response_size if request else 0)

    def take(end_us: SimTime, out: list) -> None:
        nonlocal head
        while head is not None and head[0] < end_us:
            out.append(head)
            head = draw()

    head = draw()
    return take


def offered_chunks(
    seed: int, streams: list[PacketStream], duration_us: SimTime
) -> Iterator[tuple[SimTime, list[tuple[SimTime, Packet]]]]:
    """The streams' packets over ``[0, duration_us)``, in ``CHUNK_US`` slices.

    Yields ``(end_us, items)`` per slice ``[k * CHUNK_US, end_us)``, the last
    one ending at the horizon; ``items`` are ``(created_at, packet)`` sorted
    by (creation time, stream index), a stream's own packets in draw order,
    and packet ids count up from 0 in that order.  A zero-rate stream draws nothing and opens no random stream.
    """
    takes = [
        _draws(seed, index, stream, duration_us)
        for index, stream in enumerate(streams)
        if stream.rate_pps > 0
    ]
    shared = [
        (s.src, s.dst, s.protocol, s.cls, s.tag, s.threat_kind, s.origin, s.measured)
        for s in streams
    ]
    first = itemgetter(0)
    next_id = 0
    end_us = 0
    while end_us < duration_us:
        end_us = min(end_us + CHUNK_US, duration_us)
        drawn: list[tuple] = []
        for take in takes:
            take(end_us, drawn)
        # ``drawn`` runs stream by stream, each in draw order, and the sort is
        # stable: equal times keep stream order, and a stream its draw order.
        drawn.sort(key=first)
        items = []
        for wall, index, size, response_size in drawn:
            src, dst, protocol, cls, tag, threat_kind, origin, measured = shared[index]
            items.append((wall, Packet(next_id, src, dst, size, protocol, cls, tag, wall,
                                       threat_kind, origin, measured, response_size)))
            next_id += 1
        yield end_us, items
