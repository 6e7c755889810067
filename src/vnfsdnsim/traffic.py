"""Traffic generation: benign workloads, volumetric attacks, access attempts.

Every (profile, source) pair draws from its own named random stream, so a
profile's packet sequence is a pure function of the run seed and its own
parameters.  Emission is a Poisson process on the profile's *active* time
axis; an activity window maps that axis onto wall-clock time, which is how
phased and pulsed attacks are described without extra randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        require(self, FRACTION, "request_fraction")
        text, legal = PACKET_SIZE
        require(self, (f"0 or {text}", lambda n: n == 0 or legal(n)), "response_size")


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

    @property
    def rate_pps_per_attacker(self) -> float:
        return self.rate_multiplier * self.base_rate_pps


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


def _poisson_chain(
    engine: SimEngine,
    stream_name: str,
    rate_pps: float,
    window: ActivityWindow,
    duration_us: SimTime,
    make_packet: Callable[[SimTime, object], Packet],
    sink: PacketSink,
) -> None:
    """Drive ``make_packet``/``sink`` with Poisson arrivals on the active axis."""
    if rate_pps <= 0:
        return
    stream = engine.register_stream(stream_name)
    cursor = 0.0  # seconds on the profile's active axis

    def emit(now: SimTime, _payload) -> None:
        sink(make_packet(now, stream))
        push_next()

    def push_next() -> None:
        nonlocal cursor
        cursor += stream.exponential(rate_pps)
        wall = window.wall_us(cursor)
        if not window.expired(wall, duration_us):
            engine.schedule(wall, EventKind.TRAFFIC_EMIT, emit)

    push_next()


def emit_benign(
    engine: SimEngine,
    profile: BenignProfile,
    source_id: NodeId,
    source_name: str,
    dst_id: NodeId,
    duration_us: SimTime,
    next_id: IdAllocator,
    sink: PacketSink,
) -> None:
    """Schedule one source's worth of a benign profile onto the engine."""

    def make_packet(now: SimTime, stream) -> Packet:
        is_request = (
            profile.request_fraction > 0.0 and stream.uniform() < profile.request_fraction
        )
        return Packet(
            id=next_id(),
            src=source_id,
            dst=dst_id,
            size=profile.size.draw(stream),
            protocol=profile.protocol,
            cls=PacketClass.BENIGN,
            tag=profile.tag,
            created_at=now,
            origin=f"benign/{profile.name}",
            measured=profile.measured,
            is_request=is_request,
            response_size=profile.response_size if is_request else 0,
        )

    _poisson_chain(
        engine,
        f"benign/{profile.name}/{source_name}",
        profile.rate_pps,
        profile.window,
        duration_us,
        make_packet,
        sink,
    )


def emit_ddos(
    engine: SimEngine,
    profile: DdosProfile,
    attacker_ids: dict[str, NodeId],
    target_id: NodeId,
    duration_us: SimTime,
    next_id: IdAllocator,
    sink: PacketSink,
    on_phase: Callable[[SimTime, str, bool], None] | None = None,
) -> None:
    """Schedule the flood: one Poisson stream per attacker, plus phase markers."""
    for name, attacker_id in attacker_ids.items():

        def make_packet(now: SimTime, stream, _src=attacker_id) -> Packet:
            return Packet(
                id=next_id(),
                src=_src,
                dst=target_id,
                size=profile.size.draw(stream),
                protocol=profile.protocol,
                cls=PacketClass.THREAT,
                tag=profile.tag,
                created_at=now,
                threat_kind=profile.threat_kind,
                origin=f"ddos/{profile.name}",
            )

        _poisson_chain(
            engine,
            f"ddos/{profile.name}/{name}",
            profile.rate_pps_per_attacker,
            profile.window,
            duration_us,
            make_packet,
            sink,
        )

    if on_phase is not None:
        start = seconds(profile.window.start_s)
        stop = duration_us if profile.window.stop_s is None else seconds(profile.window.stop_s)
        if start < duration_us:
            engine.schedule(
                start,
                EventKind.ATTACK_START,
                lambda t, _p: on_phase(t, profile.name, True),
            )
        if stop <= duration_us:
            engine.schedule(
                stop,
                EventKind.ATTACK_STOP,
                lambda t, _p: on_phase(t, profile.name, False),
            )


def emit_access_attempts(
    engine: SimEngine,
    profile: AccessProfile,
    source_id: NodeId,
    source_name: str,
    dst_id: NodeId,
    duration_us: SimTime,
    next_id: IdAllocator,
    sink: PacketSink,
) -> None:
    """Schedule authorised and unauthorised attempt streams for one source."""

    def maker(authorized: bool) -> Callable:
        def make_packet(now: SimTime, stream) -> Packet:
            return Packet(
                id=next_id(),
                src=source_id,
                dst=dst_id,
                size=profile.size.draw(stream),
                protocol=profile.protocol,
                cls=PacketClass.BENIGN if authorized else PacketClass.UNAUTHORIZED_ACCESS,
                tag=profile.authorized_tag if authorized else profile.unauthorized_tag,
                created_at=now,
                origin=f"access/{profile.name}",
            )

        return make_packet

    _poisson_chain(
        engine,
        f"access/{profile.name}/{source_name}/authorized",
        profile.authorized_pps,
        profile.window,
        duration_us,
        maker(True),
        sink,
    )
    _poisson_chain(
        engine,
        f"access/{profile.name}/{source_name}/unauthorized",
        profile.unauthorized_pps,
        profile.window,
        duration_us,
        maker(False),
        sink,
    )
