"""Network runtime: packet forwarding over queued links with inline security.

Packets travel their controller-computed route hop by hop.  Each link
direction is a store-and-forward queue: one transmission at a time, service
time from the packet size and link bandwidth, propagation delay added after
serialisation, arrivals beyond the queue capacity dropped.  Switches are
the enforcement points — on arrival a packet is resolved against the flow
table first (an active drop rule consumes it with no further cost) and
otherwise walked through the security-function chain, whose verdict is
reported back to the controller.

The runtime emits a flat stream of trace records that the window
aggregator folds into KPIs; the same records can optionally be collected
for offline rollups and assertions.  Packets are immutable, so a packet
record holds the packet itself.  The record shapes, ``t`` in microseconds:

- ``("emit", t, packet)``: the packet entered the network at its source;
- ``("deliver", t, packet)``: it reached its destination;
- ``("qdrop", t, packet)``: a full link queue dropped it;
- ``("block", t, packet, reason)``: a drop rule or the chain consumed it;
- ``("cost", t, cost_us)``: processing time the chain (and capture) spent;
- ``("mem", t, mb)``: the memory gauge at a monitor tick;
- ``("detect", t, flow, latency_us)``: a hostile flow's first drop rule,
  ``latency_us`` after the flow's first packet;
- ``("rule_install", t, src, dst, discriminator, reason)`` and
  ``("rule_expire", t, src, dst, discriminator)``;
- ``("attack", t, name, started)``: a DDoS phase began or ended;
- ``("reroute", t, src, dst, path)``: congestion moved a flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .engine import EventKind, SimEngine, SimTime, US_PER_S, seconds
from .metrics import KpiReport, WindowAggregator
from .model import (
    Link,
    NodeId,
    NodeKind,
    Packet,
    PacketClass,
    Topology,
)
from .sdn import Controller, FlowRule
from .traffic import AccessProfile, BenignProfile, DdosProfile, emit_stream
from .vnf import CaptureVnf, MitigationProfile, VnfChain

#: Estimated state per tracked intrusion-detection source, for the memory gauge.
IDS_KB_PER_SOURCE = 4.0
#: Estimated state per installed flow rule.
RULE_KB = 0.5


#: A packet in transit: the packet, its route and the index of its current node.
Transit = tuple[Packet, tuple[NodeId, ...], int]


class DirectionalQueue:
    """One transmission direction of a link: two priority bands, one server."""

    __slots__ = ("link", "hi", "lo", "busy")

    def __init__(self, link: Link):
        self.link = link
        self.hi: deque[Transit] = deque()
        self.lo: deque[Transit] = deque()
        self.busy = False

    def __len__(self) -> int:
        return len(self.hi) + len(self.lo)

    def occupancy(self) -> float:
        return len(self) / self.link.queue_capacity


def service_time_us(size_bytes: int, bandwidth_bps: int) -> int:
    """Serialisation delay of one packet, rounded up to whole microseconds."""
    return max(1, math.ceil(size_bytes * 8 * US_PER_S / bandwidth_bps))


@dataclass
class RunResult:
    """Everything a finished run reports."""

    label: str
    seed: int
    duration_s: float
    report: KpiReport
    events_processed: int
    event_hash: str
    rules_installed: int
    reroutes: int
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
        label: str = "run",
    ):
        self.topology = topology
        self.engine = engine
        self.controller = controller
        self.chain = chain
        self.capture = capture
        self.window_s = window_s
        self.monitor_interval_us = seconds(monitor_interval_s)
        self.memory_base_mb = memory_base_mb
        profiles = [v.settings for v in chain.vnfs if isinstance(v, MitigationProfile)]
        # Benign-first scheduling is declared by the active mitigation profile.
        self.qos_priority = any(p.prioritize_benign for p in profiles)
        # Detections made by a mitigation profile reach the controller only
        # after the profile's own reporting delay.
        self._report_delay_us = max((p.detection_delay_us for p in profiles), default=0)
        self.label = label
        self.aggregator = WindowAggregator(window_s, memory_base_mb=memory_base_mb)
        self.trace: list[tuple] | None = [] if collect_trace else None

        self._queues: dict[tuple[NodeId, NodeId], DirectionalQueue] = {}
        self._links: dict[frozenset[NodeId], Link] = {}
        for link in topology.links:
            self._links[frozenset((link.a, link.b))] = link
            self._queues[(link.a, link.b)] = DirectionalQueue(link)
            self._queues[(link.b, link.a)] = DirectionalQueue(link)

        self._next_packet_id = 0
        self._first_threat_emit: dict[tuple[NodeId, NodeId, str], int] = {}
        self._detected_flows: set[tuple[NodeId, NodeId, str]] = set()
        self._profiles_attached = False
        self._duration_us: SimTime = 0
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

    def _alloc_id(self) -> int:
        pid = self._next_packet_id
        self._next_packet_id += 1
        return pid

    # ------------------------------------------------------------------
    # traffic attachment

    def attach_traffic(
        self,
        duration_s: float,
        benign: list[BenignProfile] = (),
        ddos: list[DdosProfile] = (),
        access: list[AccessProfile] = (),
    ) -> None:
        """Schedule every profile's emissions for a run of ``duration_s``.

        A DDoS profile's attack-phase markers follow its attacker streams.
        """
        duration_us = seconds(duration_s)
        self._duration_us = duration_us
        for profile in (*benign, *ddos, *access):
            for stream in profile.streams(self.topology):
                emit_stream(self.engine, stream, duration_us, self._alloc_id, self.inject)
            if isinstance(profile, DdosProfile):
                window = profile.window
                start = seconds(window.start_s)
                stop = duration_us if window.stop_s is None else seconds(window.stop_s)
                if start < duration_us:
                    self.engine.schedule(
                        start, EventKind.ATTACK_START, self._on_attack_phase, (profile.name, True)
                    )
                if stop <= duration_us:
                    self.engine.schedule(
                        stop, EventKind.ATTACK_STOP, self._on_attack_phase, (profile.name, False)
                    )
        self._profiles_attached = True

    def _on_attack_phase(self, t: SimTime, phase: tuple[str, bool]) -> None:
        self._record(("attack", t, *phase))

    # ------------------------------------------------------------------
    # packet lifecycle

    def inject(self, packet: Packet) -> None:
        """Entry point for freshly emitted packets."""
        now = self.engine.now()
        self._record(("emit", now, packet))
        if packet.cls is PacketClass.THREAT:
            flow = (packet.src, packet.dst, packet.tag)
            self._first_threat_emit.setdefault(flow, packet.created_at)
        self._transmit((packet, self.controller.route(packet.src, packet.dst), 0), now)

    def _priority_hi(self, packet: Packet) -> bool:
        return self.qos_priority and packet.cls is PacketClass.BENIGN

    def _transmit(self, transit: Transit, t: SimTime) -> None:
        packet, route, hop = transit
        dq = self._queues[(route[hop], route[hop + 1])]
        if len(dq) >= dq.link.queue_capacity:
            # Benign-first scheduling may push out a queued low-band packet
            # instead of tail-dropping the arrival.
            if self._priority_hi(packet) and dq.lo:
                self._record(("qdrop", t, dq.lo.pop()[0]))
            else:
                self._record(("qdrop", t, packet))
                return
        (dq.hi if self._priority_hi(packet) else dq.lo).append(transit)
        if not dq.busy:
            self._start_service(dq, t)

    def _start_service(self, dq: DirectionalQueue, t: SimTime) -> None:
        transit = (dq.hi or dq.lo).popleft()
        dq.busy = True
        tx = service_time_us(transit[0].size, dq.link.bandwidth_bps)
        self.engine.schedule(
            t + tx, EventKind.PACKET_DEPARTURE, self._on_departure, (dq, transit)
        )

    def _on_departure(self, t: SimTime, payload) -> None:
        dq, transit = payload
        self.engine.schedule(
            t + dq.link.latency_us, EventKind.PACKET_ARRIVAL, self._on_arrival, transit
        )
        if len(dq):
            self._start_service(dq, t)
        else:
            dq.busy = False

    def _on_arrival(self, t: SimTime, transit: Transit) -> None:
        packet, route, hop = transit
        hop += 1
        node = self.topology.node(route[hop])
        if node.kind is NodeKind.SWITCH and not self._admit(packet, t):
            return
        if node.id == packet.dst:
            self._deliver(packet, t)
            return
        self._transmit((packet, route, hop), t)

    # ------------------------------------------------------------------
    # security enforcement

    def _admit(self, packet: Packet, t: SimTime) -> bool:
        """Resolve a packet at a switch; False when it was consumed."""
        decision, rule = self.controller.lookup(packet, t)
        if decision == "drop":
            self._record(("block", t, packet, rule.reason or "flow_rule"))
            return False
        verdict, cost = self.chain.process(packet, t)
        if self.capture is not None and self.capture.monitoring and not verdict.forward:
            # The capture tap keeps evidence of what the chain rejected.
            self.capture.capture(packet, verdict, t)
            cost += self.capture.cost_us
        if cost:
            self._record(("cost", t, cost))
        extra_delay = self._report_delay_us if not verdict.forward else 0
        installed = self.controller.on_verdict(packet, verdict, t, extra_delay)
        if installed is not None:
            self._on_rule_installed(installed, packet, t)
        if not verdict.forward:
            self._record(("block", t, packet, verdict.label))
            return False
        return True

    def _on_rule_installed(self, rule: FlowRule, packet: Packet, t: SimTime) -> None:
        self._record(
            (
                "rule_install",
                t,
                rule.key.src,
                rule.key.dst,
                rule.key.discriminator,
                rule.reason,
            )
        )
        self._schedule_rule_timeout(rule)
        if packet.cls is PacketClass.THREAT:
            flow = (packet.src, packet.dst, packet.tag)
            if flow not in self._detected_flows:
                self._detected_flows.add(flow)
                first_emit = self._first_threat_emit.get(flow, packet.created_at)
                self._record(
                    (
                        "detect",
                        t,
                        f"{flow[0]}->{flow[1]}/{flow[2]}",
                        rule.installed_at - first_emit,
                    )
                )

    def _schedule_rule_timeout(self, rule: FlowRule) -> None:
        self.engine.schedule(
            rule.last_match + rule.idle_timeout_us + 1,
            EventKind.RULE_TIMEOUT,
            self._on_rule_timeout,
            rule,
        )

    def _on_rule_timeout(self, t: SimTime, rule: FlowRule) -> None:
        if self.controller.expire_rule(rule, t):
            self._record(
                ("rule_expire", t, rule.key.src, rule.key.dst, rule.key.discriminator)
            )
        elif self.controller.is_current(rule):
            # Matches refreshed the rule since this check was queued.
            self._schedule_rule_timeout(rule)

    # ------------------------------------------------------------------
    # delivery and responses

    def _deliver(self, packet: Packet, t: SimTime) -> None:
        self._record(("deliver", t, packet))
        if packet.is_request and packet.response_size > 0:
            response = Packet(
                id=self._alloc_id(),
                src=packet.dst,
                dst=packet.src,
                size=packet.response_size,
                protocol=packet.protocol,
                cls=PacketClass.BENIGN,
                tag=packet.tag,
                created_at=t,
                origin=f"response/{packet.origin}",
                measured=False,
                rtt_anchor=packet.created_at,
            )
            self.inject(response)

    # ------------------------------------------------------------------
    # monitoring

    def _on_monitor_tick(self, t: SimTime, _payload) -> None:
        self._record(("mem", t, self._memory_mb(t)))
        for key, link in self._links.items():
            a, b = tuple(key)
            occupancy = max(
                self._queues[(a, b)].occupancy(), self._queues[(b, a)].occupancy()
            )
            for src, dst, path in self.controller.handle_congestion((a, b), occupancy):
                self._record(("reroute", t, src, dst, "-".join(map(str, path))))
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

    def run(self, duration_s: float) -> RunResult:
        """Advance the clock to ``duration_s`` and fold the KPI report."""
        if not self._profiles_attached:
            raise RuntimeError("attach_traffic() must be called before run()")
        duration_us = seconds(duration_s)
        if duration_us != self._duration_us:
            raise ValueError(
                f"run duration {duration_s}s does not match the attached "
                f"traffic horizon {self._duration_us / US_PER_S}s"
            )
        if self.monitor_interval_us < duration_us:
            self.engine.schedule(
                self.monitor_interval_us, EventKind.MONITOR_SAMPLE, self._on_monitor_tick
            )
        self.engine.run_until(duration_us)
        report = self.aggregator.finalize(duration_us, len(self._device_ids))
        if self.capture is not None and self.capture.monitoring:
            self.capture.stop_and_save()
        return RunResult(
            label=self.label,
            seed=self.engine.seed,
            duration_s=duration_s,
            report=report,
            events_processed=self.engine.processed,
            event_hash=self.engine.event_hash(),
            rules_installed=self.controller.rules_installed,
            reroutes=self.controller.reroutes,
            trace=self.trace,
        )
