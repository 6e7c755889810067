"""Centralised controller: the flow rules of the star's switch.

Data-plane verdicts feed back into the control plane: a Block verdict is
generalised to the packet's flow and installed as an ingress drop rule, so
subsequent packets of that flow die at the edge without traversing the
security chain.  Drop rules lapse after an idle timeout; matching a rule
(including matching it to drop a packet) refreshes the timer.  A lapsed
rule matches nothing and stays stored until a reinstall replaces it.  The
controller takes the ``ControllerSettings`` config section declared here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import seconds
from .model import NON_NEGATIVE, POSITIVE, Flow, NodeId, Packet, Topology, require
from .vnf import Verdict


@dataclass(frozen=True)
class ControllerSettings:
    """The ``controller`` config section."""

    install_delay_us: int = 1000
    drop_idle_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        require(self, NON_NEGATIVE, "install_delay_us")
        require(self, POSITIVE, "drop_idle_timeout_s")


@dataclass
class FlowRule:
    """Ingress drop rule for one flow."""

    key: Flow
    installed_at: int
    idle_timeout_us: int
    last_match: int
    reason: str

    def active(self, now_us: int) -> bool:
        return self.installed_at <= now_us and not self.expired(now_us)

    def expired(self, now_us: int) -> bool:
        return now_us - self.last_match > self.idle_timeout_us


class Controller:
    """Single control point for flow admission."""

    def __init__(
        self,
        topology: Topology,
        settings: ControllerSettings = ControllerSettings(),
    ):
        self.topology = topology
        self.settings = settings
        self._idle_timeout_us = seconds(settings.drop_idle_timeout_s)
        # At most one rule per flow; a reinstall replaces it.
        self._rules: dict[Flow, FlowRule] = {}
        self.rules_installed = 0

    # ------------------------------------------------------------------
    # flow rules

    def lookup(self, packet: Packet, now_us: int) -> tuple[str, FlowRule | None]:
        """Resolve a packet against the drop rules.

        Returns ("drop", rule), or ("chain", None) when no active rule
        matches and the packet must be inspected.
        """
        rule = self._rules.get(packet.flow)
        if rule is not None and rule.active(now_us):
            rule.last_match = now_us
            return "drop", rule
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
        detecting function.  A forward verdict installs nothing.
        """
        if verdict.forward:
            return None
        active_from = now_us + self.settings.install_delay_us + extra_delay_us
        rule = FlowRule(
            key=packet.flow,
            installed_at=active_from,
            idle_timeout_us=self._idle_timeout_us,
            last_match=active_from,
            reason=verdict.reason.value,
        )
        self._rules[rule.key] = rule
        self.rules_installed += 1
        return rule

    def active_rule_count(self, now_us: int) -> int:
        return sum(1 for r in self._rules.values() if r.active(now_us))

    # ------------------------------------------------------------------
    # ``bench/tracing.py`` wraps these two by name and is their only caller.

    def route(self, src: NodeId, dst: NodeId) -> tuple[NodeId, ...]:
        """The one path between two endpoints of the star: through its switch."""
        return (src, self.topology.by_name("switch0").id, dst)

    def handle_congestion(
        self, link_nodes: tuple[NodeId, NodeId], occupancy: float
    ) -> list[tuple[NodeId, NodeId, tuple[NodeId, ...]]]:
        """A star has no alternative path, so congestion moves no flow."""
        return []
