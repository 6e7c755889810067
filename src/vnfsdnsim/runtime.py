"""Network runtime: packet forwarding over queued links with inline security.

Traffic runs between hosts and servers only, each at the end of its own
link to the star's switch, so every packet travels two hops: up its
source's link to the switch, then down its destination's link.  Each link
direction is a store-and-forward queue: one transmission at a time, service
time from the packet size and link bandwidth, propagation delay added after
serialisation, arrivals beyond the queue capacity (packets waiting, not the
one in service) dropped.  A link direction takes one of two forms:

- without benign-first scheduling it is a FIFO computed at enqueue
  (``FifoQueue``): the packet starts at ``max(t, free_at)``, so its
  next-hop arrival is scheduled at once, serialisation plus propagation
  later, and the link needs no departure event;
- with it (a mitigation profile's ``prioritize_benign``) it is event-driven
  (``QosQueue``): benign packets wait in a high band served first, and a
  benign arrival at a full queue pushes out the newest low-band packet.
  Which packet goes next is only known when the server frees, so a
  departure event wakes the server whenever packets wait; a packet that
  finds the server idle is scheduled straight to its next hop.

Both forms keep one tie rule: a departure at ``t`` frees its slot before an
arrival at ``t`` is admitted, whatever order the events were scheduled in.
With a single band the two forms therefore admit, drop and time the
packets of one link alike.  They may still dispatch arrivals from
different links that share a microsecond in another order, as the FIFO
form schedules each arrival earlier; where that order matters, the two
forms give different runs.

A run is ``start``, one ``advance`` per slice of offered traffic from
``traffic.offered_chunks`` and ``finish``; ``run_cells`` takes several
cells of one sweep point through the same slices in lockstep, so they are
offered the very same packet objects.  An offered packet is not an event:
the engine hands it to ``inject`` at its creation time, after every event
of that microsecond.  A response enters through ``inject`` from an event
and takes the cell's next id of -1, -2, ...

Only the switch takes an arrival event.  When a hop is handed on
(``_hop``) at its arrival time ``at``:

- a hop to the switch schedules the arrival there;
- a last hop to the destination needs no event: when ``at`` is within the
  run's horizon its ``deliver`` is recorded at once, stamped ``at``, and a
  request schedules its response to leave at ``at``; a later one is
  counted as a late hop and stays in flight.

At the end of a run every packet in flight is held somewhere: in a late
hop, in an arrival event still queued, or in a benign-first queue's band.
The run checks that the counts match.

The switch is the enforcement point — on arrival a packet is resolved
against the flow table first (an active drop rule consumes it with no
further cost) and otherwise walked through the security-function chain,
whose verdict is reported back to the controller over no link: the drop
rule it installs takes effect after the controller's install delay plus
any reporting delay of the detecting profile.  A drop rule that has gone
idle matches nothing; no event removes it.

The runtime emits a flat stream of trace records that the window
aggregator folds into KPIs; the hot packet records go straight to the
aggregator's fold of their kind, and the rest through its ``feed``.  The
same records can optionally be collected for offline rollups and
assertions.  A ``deliver`` is collected when it is recorded, ahead of its
``t``, so a collected trace is not sorted by ``t``.  Packets are immutable,
so a packet record holds the packet itself.  The record shapes, ``t`` in
microseconds:

- ``("emit", t, packet)``: the packet entered the network at its source;
- ``("deliver", t, packet)``: it reached its destination;
- ``("qdrop", t, packet)``: a full link queue dropped it;
- ``("block", t, packet, reason)``: a drop rule or the chain consumed it;
- ``("cost", t, cost_us)``: processing time the chain (and capture) spent;
- ``("mem", t, mb)``: the memory gauge at a monitor tick;
- ``("detect", t, flow, latency_us)``: a hostile flow's first drop rule,
  ``latency_us`` after the flow's first packet;
- ``("rule_install", t, src, dst, tag, reason)``: a drop rule for that flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .engine import EventKind, SimEngine, SimTime, US_PER_S, seconds
from .metrics import KpiReport, WindowAggregator
from .model import (
    Flow,
    Link,
    NodeId,
    NodeKind,
    Packet,
    PacketClass,
    Topology,
)
from .sdn import Controller, FlowRule
from .traffic import AccessProfile, BenignProfile, DdosProfile, offered_chunks
from .vnf import CaptureVnf, MitigationProfile, VnfChain

#: Estimated state per tracked intrusion-detection source, for the memory gauge.
IDS_KB_PER_SOURCE = 4.0
#: Estimated state per installed flow rule.
RULE_KB = 0.5


#: A packet in transit and its hop: 0 up to the switch, 1 down from it.
Transit = tuple[Packet, int]


class FifoQueue:
    """One link direction without priorities, computed at enqueue.

    ``waiting`` holds the start times still in the future, one per queued
    packet; a packet whose start time the clock has reached left the queue.
    """

    __slots__ = ("link", "free_at", "waiting")

    def __init__(self, link: Link):
        self.link = link
        self.free_at: SimTime = 0
        self.waiting: deque[SimTime] = deque()

    def enqueue(self, size: int, t: SimTime) -> SimTime | None:
        """Queue a packet at ``t``: its departure time, or None when it is dropped."""
        # ``service_time_us``, inlined on the per-hop path.
        waiting = self.waiting
        while waiting and waiting[0] <= t:
            waiting.popleft()
        link = self.link
        if len(waiting) >= link.queue_capacity:
            return None
        start = self.free_at
        if start > t:
            waiting.append(start)
        else:
            start = t
        self.free_at = start + max(1, math.ceil(size * 8 * US_PER_S / link.bandwidth_bps))
        return self.free_at


class QosQueue:
    """One link direction with benign-first scheduling: two bands, one server."""

    __slots__ = ("link", "hi", "lo", "finish")

    def __init__(self, link: Link):
        self.link = link
        self.hi: deque[Transit] = deque()
        self.lo: deque[Transit] = deque()
        # Departure time of the packet in service; at or before the clock
        # once the server is idle.
        self.finish: SimTime = -1

    def __len__(self) -> int:
        return len(self.hi) + len(self.lo)


def service_time_us(size_bytes: int, bandwidth_bps: int) -> int:
    """Serialisation delay of one packet, rounded up to whole microseconds."""
    return max(1, math.ceil(size_bytes * 8 * US_PER_S / bandwidth_bps))


@dataclass
class RunResult:
    """Everything a finished run reports."""

    seed: int
    duration_s: float
    report: KpiReport
    events_processed: int
    event_hash: str
    rules_installed: int
    # Always 0: a star has no path to move a flow to.  Kept as a summary
    # column, which the benchmark reads.
    reroutes: int = 0
    trace: list[tuple] | None = None


class NetworkSim:
    """Wires the event engine, topology, controller, chain and traffic."""

    def __init__(
        self,
        topology: Topology,
        engine: SimEngine,
        controller: Controller,
        chain: VnfChain,
        *,
        capture: CaptureVnf | None = None,
        window_s: float = 1.0,
        monitor_interval_s: float = 1.0,
        memory_base_mb: float = 64.0,
        collect_trace: bool = False,
    ):
        self.topology = topology
        self.engine = engine
        self.controller = controller
        self.chain = chain
        self.capture = capture
        self.monitor_interval_us = seconds(monitor_interval_s)
        self.memory_base_mb = memory_base_mb
        profiles = [v.settings for v in chain.vnfs if isinstance(v, MitigationProfile)]
        # Benign-first scheduling is declared by the active mitigation profile.
        self.qos_priority = any(p.prioritize_benign for p in profiles)
        # Detections made by a mitigation profile reach the controller only
        # after the profile's own reporting delay.
        self._report_delay_us = max((p.detection_delay_us for p in profiles), default=0)
        self.aggregator = WindowAggregator(window_s, memory_base_mb=memory_base_mb)
        self.trace: list[tuple] | None = [] if collect_trace else None
        # The per-packet records skip the tuple and ``feed``'s dispatch.
        self._rec_emit = self._recorder("emit")
        self._rec_deliver = self._recorder("deliver")
        self._rec_qdrop = self._recorder("qdrop")
        self._rec_block = self._recorder("block")
        self._rec_cost = self._recorder("cost")

        # Each endpoint's link to the switch queues each direction on its
        # own: up to the switch and down from it.
        queue = QosQueue if self.qos_priority else FifoQueue
        self._up: dict[NodeId, FifoQueue | QosQueue] = {}
        self._down: dict[NodeId, FifoQueue | QosQueue] = {}
        for link in topology.links:
            end = link.a if topology.node(link.b).kind is NodeKind.SWITCH else link.b
            self._up[end] = queue(link)
            self._down[end] = queue(link)

        self._responses = 0  # responses injected so far; the n-th has id -n
        self._first_threat_emit: dict[Flow, int] = {}
        self._detected_flows: set[Flow] = set()
        self._duration_s = 0.0
        self._duration_us: SimTime = 0
        self._late_hops = 0  # last hops that arrive after the horizon
        # KPIs are reported over the endpoints, not the infrastructure.
        self._device_ids = [
            n.id
            for n in topology.nodes
            if n.kind in (NodeKind.UE_HOST, NodeKind.SERVER)
        ]

    # ------------------------------------------------------------------
    # trace plumbing

    def _record(self, rec: tuple) -> None:
        self.aggregator.feed(rec)
        if self.trace is not None:
            self.trace.append(rec)

    def _recorder(self, kind: str) -> Callable[..., None]:
        """The aggregator's fold of ``kind`` records, called with the record's
        fields; with a trace, it also builds and keeps the record."""
        fold = getattr(self.aggregator, kind)
        trace = self.trace
        if trace is None:
            return fold

        def fold_and_keep(*fields) -> None:
            fold(*fields)
            trace.append((kind, *fields))

        return fold_and_keep

    # ------------------------------------------------------------------
    # packet lifecycle

    def inject(self, now: SimTime, packet: Packet) -> None:
        """Entry point for freshly emitted packets, offered ones and responses."""
        self._rec_emit(now, packet)
        if packet.cls is PacketClass.THREAT:
            self._first_threat_emit.setdefault(packet.flow, packet.created_at)
        self._transmit((packet, 0), now)

    def _transmit(self, transit: Transit, t: SimTime) -> None:
        packet, hop = transit
        q = self._down[packet.dst] if hop else self._up[packet.src]
        if self.qos_priority:
            self._enqueue_qos(q, transit, t)
            return
        finish = q.enqueue(packet.size, t)
        if finish is None:
            self._rec_qdrop(t, packet)
        else:
            self._hop(transit, finish + q.link.latency_us)

    def _hop(self, transit: Transit, at: SimTime) -> None:
        """Hand a packet on at ``at``: an arrival event at the switch after
        its first hop, else its delivery, recorded now."""
        packet, hop = transit
        if not hop:
            self.engine.schedule(at, EventKind.PACKET_ARRIVAL, self._on_arrival, transit)
        elif at > self._duration_us:
            self._late_hops += 1
        else:
            self._rec_deliver(at, packet)
            if packet.response_size:
                self.engine.schedule(at, EventKind.PACKET_ARRIVAL, self._respond, packet)

    def _enqueue_qos(self, q: QosQueue, transit: Transit, t: SimTime) -> None:
        packet = transit[0]
        if q.finish == t:
            # The packet in service departs now, which frees its slot first.
            self._start_next(q, t)
        if q.finish <= t:  # idle, so nothing waits
            self._serve(q, transit, t)
            return
        hi = packet.cls is PacketClass.BENIGN
        if len(q) >= q.link.queue_capacity:
            # A benign arrival pushes out a queued low-band packet instead
            # of being tail-dropped.
            if hi and q.lo:
                self._rec_qdrop(t, q.lo.pop()[0])
            else:
                self._rec_qdrop(t, packet)
                return
        elif not len(q):
            # The first packet to wait: wake the server when it frees.
            self.engine.schedule(q.finish, EventKind.PACKET_DEPARTURE, self._on_departure, q)
        (q.hi if hi else q.lo).append(transit)

    def _serve(self, q: QosQueue, transit: Transit, t: SimTime) -> None:
        q.finish = t + service_time_us(transit[0].size, q.link.bandwidth_bps)
        self._hop(transit, q.finish + q.link.latency_us)

    def _start_next(self, q: QosQueue, t: SimTime) -> None:
        band = q.hi or q.lo
        if band:
            self._serve(q, band.popleft(), t)
            if len(q):
                self.engine.schedule(q.finish, EventKind.PACKET_DEPARTURE, self._on_departure, q)

    def _on_departure(self, t: SimTime, q: QosQueue) -> None:
        if q.finish == t:  # not already handed over by an arrival at t
            self._start_next(q, t)

    def _on_arrival(self, t: SimTime, transit: Transit) -> None:
        packet = transit[0]
        if self._admit(packet, t):
            self._transmit((packet, 1), t)

    # ------------------------------------------------------------------
    # security enforcement

    def _admit(self, packet: Packet, t: SimTime) -> bool:
        """Resolve a packet at a switch; False when it was consumed."""
        decision, rule = self.controller.lookup(packet, t)
        if decision == "drop":
            self._rec_block(t, packet, rule.reason)
            return False
        verdict, cost = self.chain.process(packet, t)
        if self.capture is not None and self.capture.monitoring and not verdict.forward:
            # The capture tap keeps evidence of what the chain rejected.
            self.capture.capture(packet, verdict, t)
            cost += self.capture.cost_us
        if cost:
            self._rec_cost(t, cost)
        if verdict.forward:  # the controller installs nothing for it
            return True
        installed = self.controller.on_verdict(packet, verdict, t, self._report_delay_us)
        if installed is not None:
            self._on_rule_installed(installed, packet, t)
        self._rec_block(t, packet, verdict.label)
        return False

    def _on_rule_installed(self, rule: FlowRule, packet: Packet, t: SimTime) -> None:
        self._record(("rule_install", t, *rule.key, rule.reason))
        flow = rule.key
        if packet.cls is PacketClass.THREAT and flow not in self._detected_flows:
            self._detected_flows.add(flow)
            first_emit = self._first_threat_emit.get(flow, packet.created_at)
            name = "{}->{}/{}".format(*flow)
            self._record(("detect", t, name, rule.installed_at - first_emit))

    # ------------------------------------------------------------------
    # responses

    def _respond(self, t: SimTime, request: Packet) -> None:
        self._responses += 1
        self.inject(
            t,
            Packet(
                id=-self._responses,
                src=request.dst,
                dst=request.src,
                size=request.response_size,
                protocol=request.protocol,
                cls=PacketClass.BENIGN,
                tag=request.tag,
                created_at=t,
                origin=f"response/{request.origin}",
                measured=False,
                rtt_anchor=request.created_at,
            ),
        )

    # ------------------------------------------------------------------
    # monitoring

    def _on_monitor_tick(self, t: SimTime, _payload) -> None:
        self._record(("mem", t, self._memory_mb(t)))
        nxt = t + self.monitor_interval_us
        if nxt < self._duration_us:
            self.engine.schedule(nxt, EventKind.MONITOR_SAMPLE, self._on_monitor_tick)

    def _memory_mb(self, t: SimTime) -> float:
        kb = 0.0
        for vnf in self.chain.vnfs:
            if isinstance(vnf, MitigationProfile):
                kb += vnf.tracked_flows * vnf.settings.memory_kb_per_flow
            tracked = getattr(vnf, "tracked_sources", None)
            if tracked is not None:
                kb += tracked * IDS_KB_PER_SOURCE
        kb += self.controller.active_rule_count(t) * RULE_KB
        return self.memory_base_mb + kb / 1024.0

    # ------------------------------------------------------------------
    # running

    def run(
        self,
        duration_s: float,
        benign: Iterable[BenignProfile] = (),
        ddos: Iterable[DdosProfile] = (),
        access: Iterable[AccessProfile] = (),
    ) -> RunResult:
        """Run every profile's emissions for ``duration_s`` and fold the KPI
        report: ``run_cells`` with this one cell."""
        (result,) = run_cells([self], duration_s, benign, ddos, access)
        return result

    def start(self, duration_s: float) -> None:
        """Set the horizon and schedule the first monitor tick."""
        self._duration_s = duration_s
        self._duration_us = seconds(duration_s)
        if self.monitor_interval_us < self._duration_us:
            self.engine.schedule(
                self.monitor_interval_us, EventKind.MONITOR_SAMPLE, self._on_monitor_tick
            )

    def advance(self, end_us: SimTime, offered: list[tuple[SimTime, Packet]]) -> None:
        """Run to ``end_us``, injecting each offered ``(created_at, packet)``."""
        self.engine.run_until(end_us, offered, self.inject)

    def finish(self) -> RunResult:
        """Run to the horizon, fold the KPI report, raise if a packet in
        flight is not held anywhere, and save the capture."""
        self.engine.run_until(self._duration_us)
        report = self.aggregator.finalize(self._duration_us, len(self._device_ids))
        self._check_conservation(report.counters.in_flight())
        if self.capture is not None and self.capture.monitoring:
            self.capture.stop_and_save()
        return RunResult(
            seed=self.engine.seed,
            duration_s=self._duration_s,
            report=report,
            events_processed=self.engine.processed,
            event_hash=self.engine.event_hash(),
            rules_installed=self.controller.rules_installed,
            trace=self.trace,
        )

    def _check_conservation(self, in_flight: int) -> None:
        """Raise unless the packets in flight are exactly those still held."""
        waiting = sum(
            len(q) for qs in (self._up, self._down) for q in qs.values() if isinstance(q, QosQueue)
        )
        held = self._late_hops + self.engine.pending(EventKind.PACKET_ARRIVAL) + waiting
        if in_flight != held:
            raise RuntimeError(f"packet conservation: {in_flight} in flight, {held} held")


def run_cells(
    sims: list[NetworkSim],
    duration_s: float,
    benign: Iterable[BenignProfile] = (),
    ddos: Iterable[DdosProfile] = (),
    access: Iterable[AccessProfile] = (),
) -> list[RunResult]:
    """Run cells that share a seed and a topology on the same offered packets.

    The profiles' packets are drawn once, in ``offered_chunks`` slices, and
    every slice is fed to every cell before the next is drawn.  Each cell
    then finishes in order.  Raise unless every cell counted the same
    offered traffic: the threats, the unauthorised attempts, the measured
    benign packets and every packet but the responses.
    """
    first = sims[0]
    streams = [
        stream
        for profile in (*benign, *ddos, *access)
        for stream in profile.streams(first.topology)
    ]
    for sim in sims:
        sim.start(duration_s)
    for end_us, offered in offered_chunks(first.engine.seed, streams, seconds(duration_s)):
        for sim in sims:
            sim.advance(end_us, offered)
    results = [sim.finish() for sim in sims]
    counted = set()
    for sim, result in zip(sims, results):
        c = result.report.counters
        counted.add((c.threat_packets, c.unauthorized_attempts, result.report.benign_sent,
                     c.total_packets - sim._responses))
    if len(counted) > 1:
        raise RuntimeError("offered traffic differs across cells: (threats, unauthorised, "
                           f"benign, all but responses) counted {sorted(counted)}")
    return results
