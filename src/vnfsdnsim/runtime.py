"""Network runtime: packet forwarding over queued links with inline security.

Traffic runs between hosts and servers only, each at the end of its own
link to the star's switch, so every packet travels two hops: up its
source's link to the switch, then down its destination's link.  Each link
direction is a store-and-forward queue that knows its direction: one
transmission at a time, service time from the packet size and link
bandwidth, propagation delay added after serialisation, arrivals beyond the
queue capacity (packets waiting, not the one in service) dropped.  A link
direction takes one of two forms:

- without benign-first scheduling it is a FIFO computed at enqueue
  (``FifoQueue``): the packet starts at ``max(t, free_at)``, so its
  next-hop arrival is known at once, serialisation plus propagation
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
offered the very same packet objects.  An offered packet is not an event.
The offered half of its path (the ``emit`` record, the source's uplink and
the arrival at the switch) is the same in every FIFO cell unless its source
also sends responses, so ``SharedUplinks`` runs it once per point: every
stream source that answers no request (that no stream with a
``request_fraction`` targets) has one uplink for all the FIFO cells, in
place of theirs, and each of them is fed the resulting switch arrivals
beside its event heap.  Every other uplink stays per cell: a responder's,
which carries the cell's responses too, one that carries nothing, and each
of a benign-first cell; an offered packet on it is handed to ``inject`` at
its creation time.  At one microsecond a cell's heap events go first, then
its fed switch arrivals by packet id, then the offered packets it injects
itself.  A response enters through ``inject`` from an
event and takes the cell's next id of -1, -2, ...

A switch arrival from a cell's own uplink is an event, which carries the
packet itself.  When a packet has crossed a queue, it is handed on
(``_hop``) at its arrival time ``at``, and the queue's direction tells which
hop it finished:

- a hop up to the switch schedules the arrival there;
- a last hop to the destination needs no event: when ``at`` is within the
  run's horizon its ``deliver`` is recorded at once, stamped ``at``, and a
  request schedules its response to leave at ``at``; a later one is
  counted as a late hop and stays in flight.

At the end of a run every packet in flight is held somewhere: in a late
hop, in an arrival event still queued, in a shared switch arrival carried
past the horizon, or in a benign-first queue's band.  The run checks that
the counts match.

The switch is the enforcement point — on arrival a packet is resolved
against the flow table first (an active drop rule consumes it with no
further cost) and otherwise walked through the security-function chain,
whose verdict is reported back to the controller over no link: the drop
rule it installs takes effect after the controller's install delay plus
any reporting delay of the detecting profile.  A drop rule that has gone
idle matches nothing; no event removes it.

The runtime emits a flat stream of trace records that the window
aggregator folds into KPIs: every record goes straight to the aggregator's
fold of its kind, and the tuple is built only when the cell collects the
records for offline rollups and assertions (``feed`` folds such a tuple).
A ``deliver`` is collected when it is recorded, ahead of its ``t``.  The
``emit`` and ``qdrop`` records of the shared uplinks are folded once per
point, and each FIFO cell adds that fold, and appends those records to its
trace, at ``finish``; so a collected trace is not sorted by ``t``.
Packets are immutable, so a packet record holds the packet itself.  The
record shapes, ``t`` in microseconds:

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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable

from .engine import EventKind, SimEngine, SimTime, US_PER_S, seconds
from .metrics import KpiReport, WindowAggregator
from .model import Flow, LinkParams, NodeId, Packet, PacketClass, StarSpec
from .sdn import Controller, FlowRule
from .traffic import AccessProfile, BenignProfile, DdosProfile, offered_chunks
from .vnf import FORWARD, CaptureVnf, MitigationProfile, VnfChain

#: Estimated state per installed flow rule.
RULE_KB = 0.5


class FifoQueue:
    """One link direction without priorities, computed at enqueue.

    ``down`` is True for the direction from the switch.  ``waiting`` holds the
    start times still in the future, one per queued packet; a packet whose
    start time the clock has reached left the queue.
    """

    __slots__ = ("link", "down", "free_at", "waiting")

    def __init__(self, link: LinkParams, down: bool):
        self.link = link
        self.down = down
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

    __slots__ = ("link", "down", "hi", "lo", "finish")

    def __init__(self, link: LinkParams, down: bool):
        self.link = link
        self.down = down
        self.hi: deque[Packet] = deque()
        self.lo: deque[Packet] = deque()
        # Departure time of the packet in service; at or before the clock
        # once the server is idle.
        self.finish: SimTime = -1

    def __len__(self) -> int:
        return len(self.hi) + len(self.lo)


def service_time_us(size_bytes: int, bandwidth_bps: int) -> int:
    """Serialisation delay of one packet, rounded up to whole microseconds."""
    return max(1, math.ceil(size_bytes * 8 * US_PER_S / bandwidth_bps))


def _recorder(aggregator: WindowAggregator, kind: str,
              trace: list[tuple] | None) -> Callable[..., None]:
    """The aggregator's fold of ``kind`` records, called with the record's
    fields; with a trace, it also builds and keeps the record."""
    fold = getattr(aggregator, kind)
    if trace is None:
        return fold

    def fold_and_keep(*fields) -> None:
        fold(*fields)
        trace.append((kind, *fields))

    return fold_and_keep


_TIME = itemgetter(0)


class SharedUplinks:
    """The offered half of a sweep point's data path, run once for its FIFO cells.

    A stream source that no stream sends a request to carries only offered
    packets up its link, the same in every FIFO cell; its uplink is kept
    here, once for the point.  Each slice folds those packets' ``emit`` and
    ``qdrop`` records into ``fold`` (kept in ``records`` when a cell
    collects a trace), which each FIFO cell adds to its own at ``finish``,
    enters each hostile flow's first emission, and turns every packet that
    fits its uplink into a switch arrival.  ``advance`` returns the FIFO
    cells' feed up to the slice end: those arrivals by (time, packet id),
    and then, at an equal microsecond, the packets offered on the cells' own
    uplinks.  Arrivals past the slice end are ``carried`` into the next;
    those left at the horizon are in flight.
    """

    def __init__(self, topology: StarSpec, sources: set[NodeId], window_s: float,
                 keep_records: bool):
        self.uplinks = {end: FifoQueue(link, down=False)
                        for end, link in topology.links().items() if end in sources}
        self.first_threat_emit: dict[Flow, int] = {}
        self.carried: list[tuple[SimTime, Packet]] = []
        self.fold = WindowAggregator(window_s)
        self.records: list[tuple] | None = [] if keep_records else None
        self._emit = _recorder(self.fold, "emit", self.records)
        self._qdrop = _recorder(self.fold, "qdrop", self.records)

    def advance(self, end_us: SimTime,
                offered: list[tuple[SimTime, Packet]]) -> list[tuple[SimTime, Packet]]:
        """Run one slice's ``offered`` packets up the shared uplinks."""
        emit, qdrop = self._emit, self._qdrop
        uplinks, first_threat_emit = self.uplinks, self.first_threat_emit
        fed, own = self.carried, []
        for t, packet in offered:
            q = uplinks.get(packet.src)
            if q is None:
                own.append((t, packet))
                continue
            emit(t, packet)
            if packet.cls is PacketClass.THREAT:
                first_threat_emit.setdefault(packet.flow, t)
            finish = q.enqueue(packet.size, t)
            if finish is None:
                qdrop(t, packet)
            else:
                fed.append((finish + q.link.latency_us, packet))
        # The carried arrivals come first and every list runs in id order, so
        # the stable sort puts equal times in (arrival, packet id) order.
        fed += own
        fed.sort(key=_TIME)
        cut = bisect_right(fed, end_us, key=_TIME)
        self.carried = fed[cut:]
        return fed[:cut]


@dataclass
class RunResult:
    """Everything a finished run reports."""

    seed: int
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
        topology: StarSpec,
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
        # Records skip the tuple, unless the trace keeps it, and ``feed``'s dispatch.
        agg, trace = self.aggregator, self.trace
        self._rec_emit = _recorder(agg, "emit", trace)
        self._rec_deliver = _recorder(agg, "deliver", trace)
        self._rec_qdrop = _recorder(agg, "qdrop", trace)
        self._rec_block = _recorder(agg, "block", trace)
        self._rec_cost = _recorder(agg, "cost", trace)
        self._rec_mem = _recorder(agg, "mem", trace)
        self._rec_detect = _recorder(agg, "detect", trace)
        self._rec_rule_install = _recorder(agg, "rule_install", trace)

        # Each endpoint's link to the switch queues each direction on its
        # own: up to the switch and down from it.
        queue = QosQueue if self.qos_priority else FifoQueue
        self._up: dict[NodeId, FifoQueue | QosQueue] = {}
        self._down: dict[NodeId, FifoQueue | QosQueue] = {}
        for end, link in topology.links().items():
            self._up[end] = queue(link, down=False)
            self._down[end] = queue(link, down=True)

        self._responses = 0  # responses injected so far; the n-th has id -n
        self._first_threat_emit: dict[Flow, int] = {}
        self._shared: SharedUplinks | None = None
        self._detected_flows: set[Flow] = set()
        self._duration_us: SimTime = 0
        self._late_hops = 0  # last hops that arrive after the horizon

    # ------------------------------------------------------------------
    # packet lifecycle

    def inject(self, now: SimTime, packet: Packet) -> None:
        """Entry point of a packet on the cell's own uplink: a response, or an
        offered packet that does not take a shared uplink."""
        self._rec_emit(now, packet)
        if packet.cls is PacketClass.THREAT:
            self._first_threat_emit.setdefault(packet.flow, packet.created_at)
        self._transmit(self._up[packet.src], packet, now)

    def _transmit(self, q: FifoQueue | QosQueue, packet: Packet, t: SimTime) -> None:
        if self.qos_priority:
            self._enqueue_qos(q, packet, t)
            return
        finish = q.enqueue(packet.size, t)
        if finish is None:
            self._rec_qdrop(t, packet)
        else:
            self._hop(q, packet, finish + q.link.latency_us)

    def _hop(self, q: FifoQueue | QosQueue, packet: Packet, at: SimTime) -> None:
        """Hand a packet that crossed ``q`` on at ``at``: an arrival event at
        the switch after the hop up, else its delivery, recorded now."""
        if not q.down:
            self.engine.schedule(at, EventKind.PACKET_ARRIVAL, self._on_arrival, packet)
        elif at > self._duration_us:
            self._late_hops += 1
        else:
            self._rec_deliver(at, packet)
            if packet.response_size:
                self.engine.schedule(at, EventKind.PACKET_ARRIVAL, self._respond, packet)

    def _enqueue_qos(self, q: QosQueue, packet: Packet, t: SimTime) -> None:
        if q.finish == t:
            # The packet in service departs now, which frees its slot first.
            self._start_next(q, t)
        if q.finish <= t:  # idle, so nothing waits
            self._serve(q, packet, t)
            return
        hi = packet.cls is PacketClass.BENIGN
        if len(q) >= q.link.queue_capacity:
            # A benign arrival pushes out a queued low-band packet instead
            # of being tail-dropped.
            if hi and q.lo:
                self._rec_qdrop(t, q.lo.pop())
            else:
                self._rec_qdrop(t, packet)
                return
        elif not len(q):
            # The first packet to wait: wake the server when it frees.
            self.engine.schedule(q.finish, EventKind.PACKET_DEPARTURE, self._on_departure, q)
        (q.hi if hi else q.lo).append(packet)

    def _serve(self, q: QosQueue, packet: Packet, t: SimTime) -> None:
        q.finish = t + service_time_us(packet.size, q.link.bandwidth_bps)
        self._hop(q, packet, q.finish + q.link.latency_us)

    def _start_next(self, q: QosQueue, t: SimTime) -> None:
        band = q.hi or q.lo
        if band:
            self._serve(q, band.popleft(), t)
            if len(q):
                self.engine.schedule(q.finish, EventKind.PACKET_DEPARTURE, self._on_departure, q)

    def _on_departure(self, t: SimTime, q: QosQueue) -> None:
        if q.finish == t:  # not already handed over by an arrival at t
            self._start_next(q, t)

    def _on_arrival(self, t: SimTime, packet: Packet) -> None:
        if self._admit(packet, t):
            self._transmit(self._down[packet.dst], packet, t)

    def _on_fed(self, t: SimTime, packet: Packet) -> None:
        """A fed packet: offered on the cell's own uplink, else past a shared one."""
        if packet.src in self._up:
            self.inject(t, packet)
        else:
            self._on_arrival(t, packet)

    # ------------------------------------------------------------------
    # security enforcement

    def _admit(self, packet: Packet, t: SimTime) -> bool:
        """Resolve a packet at a switch; False when it was consumed."""
        decision, rule = self.controller.lookup(packet, t)
        if decision == "drop":
            self._rec_block(t, packet, rule.reason)
            return False
        verdict, cost = self.chain.process(packet, t)
        if self.capture is not None and verdict is not FORWARD:
            # The capture tap keeps evidence of what the chain rejected.
            self.capture.capture(packet, verdict, t)
            cost += self.capture.cost_us
        if cost:
            self._rec_cost(t, cost)
        if verdict is FORWARD:  # the controller installs nothing for it
            return True
        installed = self.controller.on_verdict(packet, verdict, t, self._report_delay_us)
        if installed is not None:
            self._on_rule_installed(installed, packet, t)
        self._rec_block(t, packet, verdict.label)
        return False

    def _on_rule_installed(self, rule: FlowRule, packet: Packet, t: SimTime) -> None:
        self._rec_rule_install(t, *rule.key, rule.reason)
        flow = rule.key
        if packet.cls is PacketClass.THREAT and flow not in self._detected_flows:
            self._detected_flows.add(flow)
            first_emit = self._first_threat_emit.get(flow, packet.created_at)
            name = "{}->{}/{}".format(*flow)
            self._rec_detect(t, name, rule.installed_at - first_emit)

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
        self._rec_mem(t, self._memory_mb(t))
        nxt = t + self.monitor_interval_us
        if nxt < self._duration_us:
            self.engine.schedule(nxt, EventKind.MONITOR_SAMPLE, self._on_monitor_tick)

    def _memory_mb(self, t: SimTime) -> float:
        kb = sum(vnf.state_kb for vnf in self.chain.vnfs)
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

    def start(self, duration_s: float, shared: SharedUplinks | None = None) -> None:
        """Set the horizon and schedule the first monitor tick.  A FIFO cell
        given ``shared`` drops the uplinks it shares, is fed their switch
        arrivals instead of their offered packets, adds their records at
        ``finish`` and counts the arrivals still carried then as held."""
        if shared is not None:
            self._shared = shared
            self._up = {end: q for end, q in self._up.items() if end not in shared.uplinks}
            self._first_threat_emit = shared.first_threat_emit
        self._duration_us = self.aggregator.horizon_us = seconds(duration_s)
        if self.monitor_interval_us < self._duration_us:
            self.engine.schedule(
                self.monitor_interval_us, EventKind.MONITOR_SAMPLE, self._on_monitor_tick
            )

    def advance(self, end_us: SimTime, fed: list[tuple[SimTime, Packet]]) -> None:
        """Run to ``end_us``, handing on each fed ``(t, packet)`` at ``t``: a
        switch arrival from a shared uplink, else an offered packet to inject."""
        self.engine.run_until(end_us, fed, self._on_fed)

    def finish(self) -> RunResult:
        """Run to the horizon, fold the KPI report, raise if a packet in
        flight is not held anywhere, and save the capture."""
        self.engine.run_until(self._duration_us)
        if self._shared is not None:
            self.aggregator.add(self._shared.fold)
            if self.trace is not None:
                self.trace += self._shared.records
        # KPIs are reported over the endpoints, one per link, not the switch.
        report = self.aggregator.finalize(len(self._down))
        self._check_conservation(report.counters.in_flight())
        if self.capture is not None:
            self.capture.stop_and_save()
        return RunResult(
            seed=self.engine.seed,
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
        carried = len(self._shared.carried) if self._shared is not None else 0
        held = self._late_hops + self.engine.pending(EventKind.PACKET_ARRIVAL) + waiting + carried
        if in_flight != held:
            raise RuntimeError(f"packet conservation: {in_flight} in flight, {held} held")


def run_cells(
    sims: list[NetworkSim],
    duration_s: float,
    benign: Iterable[BenignProfile] = (),
    ddos: Iterable[DdosProfile] = (),
    access: Iterable[AccessProfile] = (),
) -> list[RunResult]:
    """Run cells that share a seed, a topology and a window length on the
    same offered packets.

    The profiles' packets are drawn once, in ``offered_chunks`` slices, and
    every slice is fed to every cell before the next is drawn.  The FIFO
    cells share the uplinks of the stream sources that answer no request
    (``SharedUplinks``): a slice runs up them once and each FIFO cell is fed
    the resulting switch arrivals.  A benign-first cell is fed the offered
    packets themselves.  Each cell then finishes in order, a FIFO cell
    adding the shared records to its own.
    Raise unless every cell counted the same offered traffic: the threats,
    the unauthorised attempts, the measured benign packets and every packet
    but the responses.
    """
    first = sims[0]
    streams = [
        stream
        for profile in (*benign, *ddos, *access)
        for stream in profile.streams(first.topology)
    ]
    fifo = [sim for sim in sims if not sim.qos_priority]
    shared = None
    if fifo:
        responders = {s.dst for s in streams if s.request_fraction > 0}
        shared = SharedUplinks(first.topology, {s.src for s in streams} - responders,
                               fifo[0].aggregator.window_s,
                               any(sim.trace is not None for sim in fifo))
    for sim in sims:
        sim.start(duration_s, None if sim.qos_priority else shared)
    for end_us, offered in offered_chunks(first.engine.seed, streams, seconds(duration_s)):
        if shared is not None:
            fed = shared.advance(end_us, offered)
        for sim in sims:
            sim.advance(end_us, offered if sim.qos_priority else fed)
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
