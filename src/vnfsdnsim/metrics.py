"""Security and performance metrics.

Two layers live here.  The counter formulas turn run totals into the
headline security ratios (share of traffic that got through, threat
detection rate, unauthorized-blocking rate, endpoint exposure, access
outcome rate, reliability).  A ratio whose denominator is zero is
*undefined*: the formula returns None, never a coerced 0 or 1.

The analytic layer models security strength as a function of network size
n: s(n, t) = sqrt(n) + gamma_n * sin(m * sqrt(n) * t), whose amplitude
must stay below sqrt(n) so the strength never goes negative.  The security
integral accumulates a_n * sqrt(s(n, t)) over a horizon via composite
Simpson quadrature; with gamma_n = 0 it collapses to the closed form
a_n * T * n**0.25, which the growth check exploits: integrals must rise
strictly with n for the size-helps-security hypothesis to hold.

The aggregation layer folds a run's event trace into per-second windows
(latency, jitter, throughput, availability, CPU, memory) plus run totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import US_PER_S, seconds
from .model import Packet, PacketClass

# ----------------------------------------------------------------------
# error conditions


class NonPositiveIntegrand(Exception):
    """The security-strength curve dipped to zero or below."""


class EmptyTrace(Exception):
    """A KPI rollup over an empty trace, with no horizon given, is undefined."""


# ----------------------------------------------------------------------
# run counters and ratio formulas


@dataclass
class KpiCounters:
    """Monotone run totals that the ratio formulas consume."""

    total_packets: int = 0
    delivered_packets: int = 0
    blocked_packets: int = 0
    queue_dropped: int = 0
    threat_packets: int = 0
    blocked_threat_packets: int = 0
    unauthorized_attempts: int = 0
    blocked_unauthorized: int = 0
    access_attempts: int = 0
    failed_access: int = 0
    devices_total: int = 0
    devices_affected: int = 0
    uptime_us: int = 0
    downtime_us: int = 0

    def in_flight(self) -> int:
        """Packets emitted but not yet delivered, blocked or dropped."""
        return (
            self.total_packets
            - self.delivered_packets
            - self.blocked_packets
            - self.queue_dropped
        )

    def check(self) -> None:
        """Raise if the totals are mutually inconsistent."""
        if min(vars(self).values()) < 0:
            raise ValueError("counters must be non-negative")
        if self.blocked_packets > self.total_packets:
            raise ValueError("blocked exceeds total")
        if self.blocked_threat_packets > self.threat_packets:
            raise ValueError("blocked threats exceed threats")
        if self.blocked_unauthorized > self.unauthorized_attempts:
            raise ValueError("blocked unauthorized exceeds unauthorized attempts")
        if self.devices_affected > self.devices_total:
            raise ValueError("affected devices exceed device count")
        if self.downtime_us > self.uptime_us:
            raise ValueError("downtime exceeds the observation window")
        if self.in_flight() < 0:
            raise ValueError("dispositions exceed emitted packets")


def secure_traffic_pct(c: KpiCounters) -> float | None:
    """Percentage of observed packets that were not blocked.

    Note the asymmetry this inherits from its definition: blocking *more*
    bad traffic lowers the value.  It measures traffic admitted, not safety.
    """
    if c.total_packets == 0:
        return None
    return (c.total_packets - c.blocked_packets) / c.total_packets * 100.0


def threat_detection_rate(c: KpiCounters) -> float | None:
    """Fraction of threat packets that were blocked, in [0, 1]."""
    if c.threat_packets == 0:
        return None
    return c.blocked_threat_packets / c.threat_packets


def unauthorized_block_rate(c: KpiCounters) -> float | None:
    """Fraction of unauthorized access attempts that were blocked."""
    if c.unauthorized_attempts == 0:
        return None
    return c.blocked_unauthorized / c.unauthorized_attempts


def exposure_ratio(c: KpiCounters) -> float | None:
    """Share of devices that threat traffic never reached."""
    if c.devices_total == 0:
        return None
    return (c.devices_total - c.devices_affected) / c.devices_total


def access_outcome_rate(c: KpiCounters) -> float | None:
    """Share of access attempts that were not refused.

    Like the secure-traffic percentage, this counts *admissions*: refusing
    every unauthorized attempt lowers it.  Reported as defined.
    """
    if c.access_attempts == 0:
        return None
    return (c.access_attempts - c.failed_access) / c.access_attempts


def reliability_ratio(c: KpiCounters) -> float | None:
    """Uptime share of the observation window, in [0, 1]."""
    if c.uptime_us <= 0:
        return None
    if c.downtime_us > c.uptime_us:
        raise ValueError("downtime exceeds the observation window")
    return (c.uptime_us - c.downtime_us) / c.uptime_us


# ----------------------------------------------------------------------
# analytic security-strength model


@dataclass(frozen=True)
class AnalyticParams:
    """Parameters of the size-dependent security-strength curve."""

    n: int
    a_n: float = 1.0
    gamma_n: float = 0.0
    m: float = 1.0
    horizon_s: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"network size must be >= 1, got {self.n}")
        if self.a_n <= 0:
            raise ValueError(f"scale factor must be positive, got {self.a_n}")
        if self.m <= 0:
            raise ValueError(f"frequency factor must be positive, got {self.m}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_s}")
        if not 0.0 <= self.gamma_n < math.sqrt(self.n):
            raise ValueError(
                f"oscillation amplitude must satisfy 0 <= gamma < sqrt(n); "
                f"got gamma={self.gamma_n}, n={self.n}"
            )

    @property
    def omega(self) -> float:
        """Angular frequency of the strength oscillation."""
        return self.m * math.sqrt(self.n)


def strength(p: AnalyticParams, t_s: float) -> float:
    """Security strength at time t: sqrt(n) + gamma_n * sin(m * sqrt(n) * t)."""
    return math.sqrt(p.n) + p.gamma_n * math.sin(p.omega * t_s)


def composite_simpson(f, a: float, b: float, intervals: int) -> float:
    """Composite Simpson quadrature over ``intervals`` uniform subintervals."""
    if intervals < 2 or intervals % 2:
        raise ValueError(f"Simpson needs an even interval count >= 2, got {intervals}")
    h = (b - a) / intervals
    total = f(a) + f(b)
    for i in range(1, intervals):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


# Interval count giving a step of horizon/10^4, small enough that the
# quadrature error is far below the 1e-8 relative target for these curves.
_SIMPSON_INTERVALS = 10_000


def security_integral(p: AnalyticParams, intervals: int | None = None) -> float:
    """Accumulated security over the horizon: integral of a_n * sqrt(strength).

    With gamma_n = 0 this equals a_n * horizon * n**0.25 exactly.
    """
    n_int = intervals if intervals is not None else _SIMPSON_INTERVALS
    if n_int % 2:
        n_int += 1

    def integrand(t: float) -> float:
        s = strength(p, t)
        if s <= 0.0:
            raise NonPositiveIntegrand(f"strength dipped to {s} at t={t}")
        return p.a_n * math.sqrt(s)

    return composite_simpson(integrand, 0.0, p.horizon_s, n_int)


@dataclass(frozen=True)
class Hypothesis1Result:
    rows: tuple[tuple[int, float], ...]  # (n, integral)
    increasing: bool


def check_hypothesis1(
    base: AnalyticParams,
    n_list: list[int],
    gamma_scale: str = "const",
) -> Hypothesis1Result:
    """Test whether accumulated security rises strictly with network size.

    ``base`` supplies the shared parameters; the amplitude for each n is
    ``base.gamma_n`` (gamma_scale="const") or ``base.gamma_n * sqrt(n)``
    (gamma_scale="sqrt").  ``n_list`` must be ascending and start at 1.
    """
    if gamma_scale not in ("const", "sqrt"):
        raise ValueError(f"gamma_scale must be const|sqrt, got {gamma_scale!r}")
    if not n_list:
        raise ValueError("need at least one network size")
    if sorted(set(n_list)) != list(n_list) or n_list[0] != 1:
        raise ValueError(f"sizes must be strictly ascending from 1, got {n_list}")
    rows = []
    for n in n_list:
        gamma = base.gamma_n * (math.sqrt(n) if gamma_scale == "sqrt" else 1.0)
        params = AnalyticParams(
            n=n, a_n=base.a_n, gamma_n=gamma, m=base.m, horizon_s=base.horizon_s
        )
        rows.append((n, security_integral(params)))
    increasing = all(rows[i + 1][1] > rows[i][1] for i in range(len(rows) - 1))
    return Hypothesis1Result(tuple(rows), increasing)


# ----------------------------------------------------------------------
# windowed KPI aggregation

#: Class weighting applied to monitored bytes; hostile classes count double.
CLASS_WEIGHTS = {
    PacketClass.BENIGN: 1.0,
    PacketClass.THREAT: 2.0,
    PacketClass.UNAUTHORIZED_ACCESS: 2.0,
}

#: A window whose availability falls below this counts as downtime.
DOWNTIME_AVAILABILITY_PCT = 50.0


@dataclass
class WindowRow:
    """KPIs of one aggregation window (default: one second)."""

    index: int
    start_s: float
    sent_benign: int = 0
    delivered_benign: int = 0
    benign_queue_drops: int = 0
    benign_blocked: int = 0
    threat_sent: int = 0
    threat_blocked: int = 0
    unauthorized_sent: int = 0
    unauthorized_blocked: int = 0
    mean_latency_ms: float | None = None
    jitter_ms: float | None = None
    mean_rtt_ms: float | None = None
    throughput_mbps: float = 0.0
    availability_pct: float | None = None
    cpu_pct: float = 0.0
    memory_mb: float = 0.0
    tdr: float | None = None
    monitored_weighted_bytes: float = 0.0
    cumulative_benign_loss: int = 0
    # Sums the columns above are derived from, not columns; integers keep means exact.
    latency_us: int = field(default=0, init=False, repr=False)  # of measured deliveries
    rtt_us: int = field(default=0, init=False, repr=False)
    rtt_n: int = field(default=0, init=False, repr=False)
    delivered_bits: int = field(default=0, init=False, repr=False)
    cost_us: int = field(default=0, init=False, repr=False)
    mem_mb: float | None = field(default=None, init=False, repr=False)  # the last gauge


@dataclass
class KpiReport:
    """Whole-run KPIs plus the per-window table they were folded from."""

    duration_s: float
    counters: KpiCounters
    windows: list[WindowRow]
    secure_traffic_pct: float | None
    tdr: float | None
    ubr: float | None
    exposure: float | None
    access_outcome: float | None
    reliability: float | None
    mean_latency_ms: float | None
    jitter_ms: float | None
    mean_rtt_ms: float | None
    detection_time_ms: float | None
    response_time_ms: float | None
    throughput_mbps: float
    availability_pct: float | None
    cpu_pct: float
    memory_mb_mean: float
    memory_mb_max: float
    benign_sent: int
    benign_delivered: int
    benign_loss_total: int


class WindowAggregator:
    """Streaming fold of trace records into windows and run totals.

    Every record kind has a method of its name taking the record's fields.
    The runtime calls those live; ``feed`` dispatches a record tuple to them,
    which is how ``kpi_rollup`` folds a stored trace, so a rollup over a
    collected trace reproduces the streaming result record for record.  A
    fold adds each fact once, to its window's row; ``finalize`` sums the run
    totals of threats, unauthorised attempts and their blocks from the rows.
    Given ``horizon_us``, the last window ends there and also folds the
    records stamped at or past it.
    """

    def __init__(self, window_s: float = 1.0, *, memory_base_mb: float = 64.0,
                 horizon_us: int | None = None):
        self.window_s = window_s
        self.window_us = seconds(window_s)
        if self.window_us < 1:
            raise ValueError(f"window length must be at least 1e-6 s, got {window_s}")
        self.memory_base_mb = memory_base_mb
        self.horizon_us = horizon_us
        self._benign_weight = CLASS_WEIGHTS[PacketClass.BENIGN]
        self._threat_weight = CLASS_WEIGHTS[PacketClass.THREAT]
        self._unauthorized_weight = CLASS_WEIGHTS[PacketClass.UNAUTHORIZED_ACCESS]
        self.counters = KpiCounters()
        self._affected: set[int] = set()
        self._rows: dict[int, WindowRow] = {}
        self._detections: list[int] = []

    # -- feeding ---------------------------------------------------------

    def _row(self, t_us: int) -> WindowRow:
        idx = t_us // self.window_us
        row = self._rows.get(idx)
        if row is None:
            horizon = self.horizon_us
            if idx and horizon is not None and idx * self.window_us >= horizon:
                return self._row(horizon - 1)  # the last window ends at the horizon
            row = WindowRow(index=idx, start_s=idx * self.window_s)
            self._rows[idx] = row
        return row

    def feed(self, rec: tuple) -> None:
        """Consume one trace record (the shapes are listed in ``vnfsdnsim.runtime``)
        through the fold of its kind, which the runtime also calls directly."""
        getattr(self, rec[0])(*rec[1:])

    def emit(self, t: int, pkt: Packet) -> None:
        row = self._row(t)
        c = self.counters
        c.total_packets += 1
        cls = pkt.cls
        # Identity tests, not a CLASS_WEIGHTS lookup: hashing an Enum member
        # runs Python code.
        if cls is PacketClass.BENIGN:
            row.monitored_weighted_bytes += self._benign_weight * pkt.size
        elif cls is PacketClass.THREAT:
            row.monitored_weighted_bytes += self._threat_weight * pkt.size
            row.threat_sent += 1
        else:
            row.monitored_weighted_bytes += self._unauthorized_weight * pkt.size
            row.unauthorized_sent += 1
        if pkt.origin.startswith("access/"):
            c.access_attempts += 1
        if pkt.measured:
            row.sent_benign += 1

    def deliver(self, t: int, pkt: Packet) -> None:
        row = self._row(t)
        self.counters.delivered_packets += 1
        if pkt.cls is PacketClass.THREAT:
            self._affected.add(pkt.dst)
        if pkt.measured:
            row.delivered_benign += 1
            row.delivered_bits += pkt.size * 8
            row.latency_us += t - pkt.created_at
        if pkt.rtt_anchor is not None:
            row.rtt_us += t - pkt.rtt_anchor
            row.rtt_n += 1

    def qdrop(self, t: int, pkt: Packet) -> None:
        row = self._row(t)
        self.counters.queue_dropped += 1
        if pkt.measured:
            row.benign_queue_drops += 1

    def block(self, t: int, pkt: Packet, _reason: str) -> None:
        row = self._row(t)
        c = self.counters
        c.blocked_packets += 1
        if pkt.cls is PacketClass.THREAT:
            row.threat_blocked += 1
        elif pkt.cls is PacketClass.UNAUTHORIZED_ACCESS:
            row.unauthorized_blocked += 1
            if pkt.origin.startswith("access/"):
                c.failed_access += 1
        if pkt.measured:
            row.benign_blocked += 1

    def cost(self, t: int, cost_us: int) -> None:
        self._row(t).cost_us += cost_us

    def mem(self, t: int, mb: float) -> None:
        self._row(t).mem_mb = mb

    def detect(self, _t: int, _flow: str, latency_us: int) -> None:
        self._detections.append(latency_us)

    def rule_install(self, *_fields) -> None:
        """A drop rule carries no KPIs."""

    def add(self, other: WindowAggregator) -> None:
        """Add what ``other``, with the same windows and fed only ``emit`` and
        ``qdrop`` records, has folded: records shared by several runs are
        folded once.  Every sum it adds is of whole numbers (the weighted
        bytes too, as whole floats far below 2**53), so the result does not
        depend on the order the records were folded in."""
        c, o = self.counters, other.counters
        c.total_packets += o.total_packets
        c.access_attempts += o.access_attempts
        c.queue_dropped += o.queue_dropped
        for idx, theirs in other._rows.items():
            row = self._row(idx * self.window_us)
            row.sent_benign += theirs.sent_benign
            row.threat_sent += theirs.threat_sent
            row.unauthorized_sent += theirs.unauthorized_sent
            row.benign_queue_drops += theirs.benign_queue_drops
            row.monitored_weighted_bytes += theirs.monitored_weighted_bytes

    # -- finalising --------------------------------------------------------

    def finalize(self, duration_us: int, devices_total: int) -> KpiReport:
        c = self.counters
        c.devices_total = devices_total
        c.devices_affected = len(self._affected)
        c.uptime_us = duration_us

        n_windows = max(
            (duration_us + self.window_us - 1) // self.window_us,
            max(self._rows) + 1 if self._rows else 0,
        )
        rows = [self._rows.get(i) or WindowRow(i, i * self.window_s) for i in range(n_windows)]

        mem_last = self.memory_base_mb
        cumulative_loss = 0
        downtime_us = 0
        prev_latency_ms: float | None = None
        for row in rows:
            if row.delivered_benign:
                row.mean_latency_ms = row.latency_us / row.delivered_benign / 1000.0
            if row.rtt_n:
                row.mean_rtt_ms = row.rtt_us / row.rtt_n / 1000.0
            row.throughput_mbps = row.delivered_bits / self.window_s / 1e6
            if row.sent_benign > 0:
                row.availability_pct = min(
                    100.0, row.delivered_benign / row.sent_benign * 100.0
                )
                if row.availability_pct < DOWNTIME_AVAILABILITY_PCT:  # up to the horizon
                    downtime_us += min(self.window_us, duration_us - row.index * self.window_us)
            row.cpu_pct = row.cost_us / self.window_us * 100.0
            if row.mem_mb is not None:
                mem_last = row.mem_mb
            row.memory_mb = mem_last
            if row.threat_sent > 0:
                row.tdr = row.threat_blocked / row.threat_sent
            cumulative_loss += row.benign_queue_drops + row.benign_blocked
            row.cumulative_benign_loss = cumulative_loss
            # Jitter: change of the window's mean latency versus the
            # previous window that had one — inter-window variation, the
            # smoothed form used for plotting latency stability.
            if row.mean_latency_ms is not None:
                if prev_latency_ms is not None:
                    row.jitter_ms = abs(row.mean_latency_ms - prev_latency_ms)
                prev_latency_ms = row.mean_latency_ms

        c.downtime_us = min(downtime_us, c.uptime_us)
        c.threat_packets = sum(r.threat_sent for r in rows)
        c.blocked_threat_packets = sum(r.threat_blocked for r in rows)
        c.unauthorized_attempts = sum(r.unauthorized_sent for r in rows)
        c.blocked_unauthorized = sum(r.unauthorized_blocked for r in rows)
        c.check()

        benign_sent = sum(r.sent_benign for r in rows)
        benign_delivered = sum(r.delivered_benign for r in rows)
        rtts = sum(r.rtt_n for r in rows)
        jitters = [r.jitter_ms for r in rows if r.jitter_ms is not None]
        avails = [r.availability_pct for r in rows if r.availability_pct is not None]
        mean_latency_ms = (
            sum(r.latency_us for r in rows) / benign_delivered / 1000.0
            if benign_delivered
            else None
        )
        mean_rtt_ms = sum(r.rtt_us for r in rows) / rtts / 1000.0 if rtts else None
        detection_ms = (
            sum(self._detections) / len(self._detections) / 1000.0
            if self._detections
            else None
        )
        # Response-time composite: the round trip a user observes plus the
        # mean time the control plane needed to react to hostile flows
        # (zero when nothing was ever detected).
        response_ms = None
        if mean_rtt_ms is not None:
            response_ms = mean_rtt_ms + (detection_ms or 0.0)

        duration_s = duration_us / US_PER_S
        mems = [r.memory_mb for r in rows] or [self.memory_base_mb]

        return KpiReport(
            duration_s=duration_s,
            counters=c,
            windows=rows,
            secure_traffic_pct=secure_traffic_pct(c),
            tdr=threat_detection_rate(c),
            ubr=unauthorized_block_rate(c),
            exposure=exposure_ratio(c),
            access_outcome=access_outcome_rate(c),
            reliability=reliability_ratio(c),
            mean_latency_ms=mean_latency_ms,
            jitter_ms=sum(jitters) / len(jitters) if jitters else None,
            mean_rtt_ms=mean_rtt_ms,
            detection_time_ms=detection_ms,
            response_time_ms=response_ms,
            throughput_mbps=sum(r.delivered_bits for r in rows) / duration_s / 1e6
            if duration_s > 0
            else 0.0,
            availability_pct=sum(avails) / len(avails) if avails else None,
            cpu_pct=sum(r.cost_us for r in rows) / duration_us * 100.0,
            memory_mb_mean=sum(mems) / len(mems),
            memory_mb_max=max(mems),
            benign_sent=benign_sent,
            benign_delivered=benign_delivered,
            benign_loss_total=cumulative_loss,
        )


def kpi_rollup(
    trace: list[tuple],
    window_s: float = 1.0,
    *,
    duration_us: int | None = None,
    devices_total: int = 0,
    **aggregator_kwargs,
) -> KpiReport:
    """Fold a collected trace into a KPI report (see WindowAggregator); without
    ``duration_us``, the horizon ends with the last record's window."""
    if not trace and duration_us is None:
        raise EmptyTrace("cannot roll up an empty trace without duration_us")
    agg = WindowAggregator(window_s, horizon_us=duration_us, **aggregator_kwargs)
    for rec in trace:
        agg.feed(rec)
    if duration_us is None:
        duration_us = (max(rec[1] for rec in trace) // agg.window_us + 1) * agg.window_us
    return agg.finalize(duration_us, devices_total)
