"""Routing against a brute-force shortest-path oracle, flow-rule lifecycle
(install delay, idle timeout, refresh-on-match), and congestion rerouting.
"""

import random

import pytest

from vnfsdnsim.model import (
    Link,
    Node,
    NodeKind,
    Packet,
    PacketClass,
    StarSpec,
    ThreatKind,
    Topology,
    build_topology,
)
from vnfsdnsim.sdn import Controller, ControllerSettings, FlowRule, NoPath, flow_key_for
from vnfsdnsim.vnf import BlockReason, Verdict, block


def mesh(n_nodes, edges):
    """Bare topology from (a, b, latency) triples; no validation ceremony."""
    nodes = [Node(i, NodeKind.SWITCH, f"n{i}") for i in range(n_nodes)]
    links = [Link(a, b, lat, 1_000_000, 16) for a, b, lat in edges]
    return Topology(nodes, links)


def enumerate_paths(topology, src, dst):
    """Every simple path with its summed latency, by exhaustive DFS."""
    found = []

    def walk(path, cost, seen):
        node = path[-1]
        if node == dst:
            found.append((cost, tuple(path)))
            return
        for nbr, link in topology.neighbors(node):
            if nbr not in seen:
                walk(path + [nbr], cost + link.latency_us, seen | {nbr})

    walk([src], 0, {src})
    return found


def diamond():
    """Two parallel branches plus a control stub: 0-1-3 cheap, 0-2-3 dear."""
    names = ("a", "b", "c", "d")
    nodes = [Node(i, NodeKind.SWITCH, name) for i, name in enumerate(names)]
    nodes.append(Node(4, NodeKind.CONTROLLER, "ctl"))
    links = [
        Link(a, b, lat, 1_000_000, 16)
        for a, b, lat in ((0, 1, 10), (1, 3, 10), (0, 2, 15), (2, 3, 15), (0, 4, 200))
    ]
    return Topology(nodes, links)


def flood_packet(src=0, dst=3, tag="flood"):
    return Packet(id=1, src=src, dst=dst, size=64, protocol="udp",
                  cls=PacketClass.THREAT, tag=tag, created_at=0,
                  threat_kind=ThreatKind.SYN_FLOOD)


def test_route_matches_exhaustive_search_on_random_meshes():
    rng = random.Random(12345)
    for trial in range(200):
        n = rng.randint(3, 8)
        edges = set()
        for i in range(1, n):  # spanning tree keeps it connected
            edges.add((rng.randrange(i), i))
        for _ in range(n):
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        topology = mesh(n, [(a, b, rng.randint(1, 12)) for a, b in edges])
        controller = Controller(topology)
        for _ in range(4):
            src, dst = rng.sample(range(n), 2)
            best = min(enumerate_paths(topology, src, dst))
            got = controller.compute_route(src, dst)
            cost = sum(
                next(l.latency_us for nbr, l in topology.neighbors(got[i]) if nbr == got[i + 1])
                for i in range(len(got) - 1)
            )
            assert (cost, got) == best, f"trial {trial}: {src}->{dst}"


def test_route_tie_break_prefers_smallest_node_sequence():
    topology = mesh(4, [(0, 1, 10), (1, 3, 10), (0, 2, 10), (2, 3, 10)])
    assert Controller(topology).compute_route(0, 3) == (0, 1, 3)


def test_route_rejects_degenerate_queries():
    topology = mesh(4, [(0, 1, 5), (2, 3, 5)])  # two islands
    controller = Controller(topology)
    with pytest.raises(NoPath):
        controller.compute_route(0, 3)
    with pytest.raises(ValueError):
        controller.compute_route(1, 1)
    with pytest.raises(ValueError):
        ControllerSettings(congestion_threshold=0.0)


def test_block_verdict_installs_delayed_drop_rule():
    topology = build_topology(StarSpec(hosts=2))
    settings = ControllerSettings(install_delay_us=1000, drop_idle_timeout_s=0.01)
    controller = Controller(topology, settings)
    pkt = flood_packet(src=0, dst=3)
    rule = controller.on_verdict(pkt, block(BlockReason.IDS_SIGNATURE), now_us=5000)
    assert rule.installed_at == 6000
    assert rule.reason == "ids_signature"
    assert controller.rules_installed == 1
    # not yet active: the packet still goes to the chain
    assert controller.lookup(pkt, 5500) == ("chain", None)
    action, hit = controller.lookup(pkt, 6000)
    assert action == "drop" and hit is rule and rule.last_match == 6000
    # a different tag is a different flow
    assert controller.lookup(flood_packet(tag="other"), 6000) == ("chain", None)


def test_detection_delay_postpones_activation():
    controller = Controller(
        build_topology(StarSpec(hosts=2)), ControllerSettings(install_delay_us=1000)
    )
    rule = controller.on_verdict(
        flood_packet(), block(BlockReason.PROFILE_DETECTION), now_us=0, extra_delay_us=2500
    )
    assert rule.installed_at == 3500


def test_idle_timeout_with_refresh_on_match():
    controller = Controller(
        build_topology(StarSpec(hosts=2)),
        ControllerSettings(install_delay_us=0, drop_idle_timeout_s=0.01),
    )
    pkt = flood_packet(src=0, dst=3)
    rule = controller.on_verdict(pkt, block(BlockReason.IDS_ANOMALY), now_us=0)
    assert controller.lookup(pkt, 10_000)[0] == "drop"  # boundary: exactly timeout
    assert controller.lookup(pkt, 19_000)[0] == "drop"  # refreshed at 10_000
    assert not controller.expire_rule(rule, 25_000)  # 6 ms idle, keep
    assert controller.expire_rule(rule, 29_001)  # > 10 ms idle, gone
    assert not controller.is_current(rule)
    assert controller.lookup(pkt, 30_000) == ("chain", None)
    assert controller.active_rule_count(30_000) == 0


def test_lookup_evicts_expired_rules():
    controller = Controller(
        build_topology(StarSpec(hosts=2)),
        ControllerSettings(install_delay_us=0, drop_idle_timeout_s=0.001),
    )
    pkt = flood_packet()
    rule = controller.on_verdict(pkt, block(BlockReason.IDS_ANOMALY), now_us=0)
    assert controller.lookup(pkt, 500_000) == ("chain", None)
    assert rule not in controller._rules.values()


def test_reinstall_replaces_prior_rule():
    controller = Controller(build_topology(StarSpec(hosts=2)))
    pkt = flood_packet()
    first = controller.on_verdict(pkt, block(BlockReason.IDS_ANOMALY), now_us=0)
    second = controller.on_verdict(pkt, block(BlockReason.IDS_SIGNATURE), now_us=100)
    assert controller.rules_installed == 2 and len(controller._rules) == 1
    assert not controller.is_current(first) and controller.is_current(second)


def test_forward_verdict_installs_nothing():
    controller = Controller(build_topology(StarSpec(hosts=2)))
    pkt = flood_packet(src=0, dst=3)
    assert controller.on_verdict(pkt, Verdict(True), now_us=0) is None
    assert controller._rules == {} and controller.rules_installed == 0
    assert controller._routes == {}  # routing is the runtime's job, at injection


def test_flow_rule_generalisation_can_be_disabled():
    controller = Controller(build_topology(StarSpec(hosts=2)), flow_rules=False)
    pkt = flood_packet()
    assert controller.on_verdict(pkt, block(BlockReason.IDS_ANOMALY), now_us=0) is None
    assert controller.rules_installed == 0
    assert controller.lookup(pkt, 10_000) == ("chain", None)


def test_congestion_moves_flows_off_the_hot_link():
    settings = ControllerSettings(congestion_threshold=0.8, congestion_penalty=10.0)
    controller = Controller(diamond(), settings)
    assert controller.route(0, 3) == (0, 1, 3)
    assert controller.handle_congestion((0, 1), occupancy=0.5) == []
    moved = controller.handle_congestion((0, 1), occupancy=0.9)
    assert moved == [(0, 3, (0, 2, 3))]
    assert controller.reroutes == 1
    assert controller.route(0, 3) == (0, 2, 3)  # cache updated
    # flows not crossing the hot link stay put
    assert controller.route(2, 3) == (2, 3)
    assert controller.handle_congestion((0, 1), occupancy=0.9) == []


def test_congestion_keeps_flows_with_no_alternative():
    topology = mesh(3, [(0, 1, 10), (1, 2, 10)])
    controller = Controller(topology)
    assert controller.route(0, 2) == (0, 1, 2)
    assert controller.handle_congestion((0, 1), occupancy=1.0) == []
    assert controller.reroutes == 0 and controller.route(0, 2) == (0, 1, 2)


def test_congestion_memoises_penalised_routes(monkeypatch):
    topology = build_topology(StarSpec(hosts=3))
    switch = topology.by_name("switch0").id
    server = topology.by_name("server0").id
    controller = Controller(topology)
    for i in range(3):
        controller.route(topology.by_name(f"host{i}").id, server)
    calls = []
    compute = controller.compute_route

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(controller, "compute_route", counting)
    trunk = (switch, server)
    assert controller.handle_congestion(trunk, occupancy=1.0) == []
    assert len(calls) == 3  # one penalised search per cached host route
    calls.clear()
    assert controller.handle_congestion(trunk, occupancy=1.0) == []
    assert calls == []
    assert controller.reroutes == 0
