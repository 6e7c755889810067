"""Centralised controller: route computation, flow rules, congestion response.

Routing is minimum-total-latency over link latencies with a deterministic
tie-break: among equal-cost paths the lexicographically smallest node
sequence wins, i.e. ties are broken by the smallest next node id.

Data-plane verdicts feed back into the control plane: a Block verdict is
generalised to the packet's flow and installed as an ingress drop rule, so
subsequent packets of that flow die at the edge without traversing the
security chain.  Drop rules expire after an idle timeout; matching a rule
(including matching it to drop a packet) refreshes the timer.  The
controller takes the ``ControllerSettings`` config section declared here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import NON_NEGATIVE, POSITIVE, NodeId, Packet, Topology, require
from .vnf import Verdict


class NoPath(Exception):
    """Source and destination are not connected."""


@dataclass(frozen=True)
class ControllerSettings:
    """The ``controller`` config section."""

    install_delay_us: int = 1000
    drop_idle_timeout_s: float = 30.0
    congestion_threshold: float = 0.8
    congestion_penalty: float = 10.0

    def __post_init__(self) -> None:
        require(self, NON_NEGATIVE, "install_delay_us")
        require(self, POSITIVE, "drop_idle_timeout_s")
        require(self, ("in (0, 1]", lambda v: 0 < v <= 1), "congestion_threshold")


@dataclass(frozen=True)
class FlowKey:
    """Flow identity used for rule generalisation: endpoints plus tag."""

    src: NodeId
    dst: NodeId
    discriminator: str


def flow_key_for(packet: Packet) -> FlowKey:
    return FlowKey(packet.src, packet.dst, packet.tag)


@dataclass
class FlowRule:
    """Ingress drop rule for one flow."""

    key: FlowKey
    installed_at: int
    idle_timeout_us: int
    last_match: int
    reason: str = ""

    def active(self, now_us: int) -> bool:
        return self.installed_at <= now_us and not self.expired(now_us)

    def expired(self, now_us: int) -> bool:
        return now_us - self.last_match > self.idle_timeout_us


class Controller:
    """Single control point for routing and flow admission."""

    def __init__(
        self,
        topology: Topology,
        settings: ControllerSettings = ControllerSettings(),
        *,
        flow_rules: bool = True,
    ):
        self.topology = topology
        self.settings = settings
        self._idle_timeout_us = int(settings.drop_idle_timeout_s * 1_000_000)
        self.flow_rules = flow_rules
        # At most one rule per flow; a reinstall replaces it.
        self._rules: dict[FlowKey, FlowRule] = {}
        self._routes: dict[tuple[NodeId, NodeId], tuple[NodeId, ...]] = {}
        # (src, dst, hot link) -> route with that link penalised, None when
        # there is none.  The topology and the penalty never change, so the
        # entry stays valid for the controller's life.
        self._penalised: dict[
            tuple[NodeId, NodeId, frozenset[NodeId]], tuple[NodeId, ...] | None
        ] = {}
        self.rules_installed = 0
        self.reroutes = 0

    # ------------------------------------------------------------------
    # routing

    def compute_route(
        self,
        src: NodeId,
        dst: NodeId,
        latency_penalty: dict[frozenset[NodeId], float] | None = None,
    ) -> tuple[NodeId, ...]:
        """Shortest path by summed link latency, smallest node sequence on ties."""
        if src == dst:
            raise ValueError("source and destination coincide")
        # Heap entries order first by cost then by path tuple, which realises
        # the smallest-next-node tie-break without a separate pass.
        heap: list[tuple[float, tuple[NodeId, ...]]] = [(0, (src,))]
        settled: set[NodeId] = set()
        while heap:
            cost, path = heapq.heappop(heap)
            node = path[-1]
            if node == dst:
                return path
            if node in settled:
                continue
            settled.add(node)
            for nbr, link in self.topology.neighbors(node):
                if nbr in settled:
                    continue
                weight = link.latency_us
                if latency_penalty:
                    weight *= latency_penalty.get(frozenset((link.a, link.b)), 1.0)
                heapq.heappush(heap, (cost + weight, path + (nbr,)))
        raise NoPath(f"no path from node {src} to node {dst}")

    def route(self, src: NodeId, dst: NodeId) -> tuple[NodeId, ...]:
        """Cached route lookup; computes and caches on first use."""
        cached = self._routes.get((src, dst))
        if cached is None:
            cached = self.compute_route(src, dst)
            self._routes[(src, dst)] = cached
        return cached

    # ------------------------------------------------------------------
    # flow rules

    def lookup(self, packet: Packet, now_us: int) -> tuple[str, FlowRule | None]:
        """Resolve a packet against the drop rules.

        Returns ("drop", rule), or ("chain", None) when no active rule
        matches and the packet must be inspected.  An expired rule is
        evicted on the way.
        """
        key = flow_key_for(packet)
        rule = self._rules.get(key)
        if rule is None:
            return "chain", None
        if rule.active(now_us):
            rule.last_match = now_us
            return "drop", rule
        if rule.expired(now_us):
            del self._rules[key]
        return "chain", None

    def on_verdict(
        self,
        packet: Packet,
        verdict: Verdict,
        now_us: int,
        extra_delay_us: int = 0,
    ) -> FlowRule | None:
        """React to a data-plane verdict.

        A block verdict installs an ingress drop rule for the packet's flow,
        active after the install delay plus any reporting delay of the
        detecting function.  A forward verdict, or any verdict when flow-rule
        generalisation is disabled, installs nothing.
        """
        if verdict.forward or not self.flow_rules:
            return None
        active_from = now_us + self.settings.install_delay_us + extra_delay_us
        rule = FlowRule(
            key=flow_key_for(packet),
            installed_at=active_from,
            idle_timeout_us=self._idle_timeout_us,
            last_match=active_from,
            reason=verdict.reason.value if verdict.reason else "",
        )
        self._rules[rule.key] = rule
        self.rules_installed += 1
        return rule

    def expire_rule(self, rule: FlowRule, now_us: int) -> bool:
        """Remove the rule if idle; returns True when it was dropped."""
        stored = self._rules.get(rule.key)
        if stored is not rule:
            return False
        if stored.expired(now_us):
            del self._rules[rule.key]
            return True
        return False

    def is_current(self, rule: FlowRule) -> bool:
        """True while ``rule`` is the stored rule for its flow."""
        return self._rules.get(rule.key) is rule

    def active_rule_count(self, now_us: int) -> int:
        return sum(1 for r in self._rules.values() if r.active(now_us))

    # ------------------------------------------------------------------
    # congestion

    def handle_congestion(
        self, link_nodes: tuple[NodeId, NodeId], occupancy: float
    ) -> list[tuple[NodeId, NodeId, tuple[NodeId, ...]]]:
        """Re-route cached flows away from a congested link.

        When occupancy exceeds the threshold, every cached route crossing the
        link is recomputed with that link's latency scaled by the congestion
        penalty.  Flows with no alternative keep their route.  Returns the
        (src, dst, new_path) triples that actually moved.
        """
        if occupancy <= self.settings.congestion_threshold:
            return []
        hot = frozenset(link_nodes)
        penalty = {hot: self.settings.congestion_penalty}
        moved = []
        for (src, dst), path in list(self._routes.items()):
            if not _path_uses(path, hot):
                continue
            memo_key = (src, dst, hot)
            if memo_key in self._penalised:
                alternative = self._penalised[memo_key]
            else:
                try:
                    alternative = self.compute_route(src, dst, latency_penalty=penalty)
                except NoPath:
                    alternative = None
                self._penalised[memo_key] = alternative
            if alternative is not None and alternative != path:
                self._routes[(src, dst)] = alternative
                moved.append((src, dst, alternative))
                self.reroutes += 1
        return moved


def _path_uses(path: tuple[NodeId, ...], link: frozenset[NodeId]) -> bool:
    return any(frozenset((path[i], path[i + 1])) == link for i in range(len(path) - 1))
