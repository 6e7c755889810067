"""Topology construction/validation and the packet immutability contract."""

import dataclasses

import pytest

from vnfsdnsim.model import (
    MAX_PACKET_BYTES,
    MIN_PACKET_BYTES,
    LinkParams,
    Node,
    NodeKind,
    Packet,
    PacketClass,
    SecurityPolicy,
    StarSpec,
    ThreatKind,
    Topology,
    TopologyError,
    ViolationKind,
    build_topology,
    validate,
)


def test_star_topology_counts_and_names():
    topo = build_topology(StarSpec(hosts=4, servers=2))
    hosts = topo.by_kind(NodeKind.UE_HOST)
    servers = topo.by_kind(NodeKind.SERVER)
    switches = topo.by_kind(NodeKind.SWITCH)
    controllers = topo.by_kind(NodeKind.CONTROLLER)
    assert [len(hosts), len(servers), len(switches), len(controllers)] == [4, 2, 1, 1]
    # one access link per host, one per server, one control link
    assert len(topo.links) == 4 + 2 + 1
    assert topo.by_name("host0").kind is NodeKind.UE_HOST
    assert topo.by_name("server1").kind is NodeKind.SERVER
    assert topo.by_name("switch0").kind is NodeKind.SWITCH
    assert validate(topo) == []


def test_star_per_host_access_override():
    slow = LinkParams(latency_us=9999, bandwidth_bps=1_000_000, queue_capacity=3)
    topo = build_topology(StarSpec(hosts=3, per_host_access={1: slow}))
    host1 = topo.by_name("host1").id
    switch = topo.by_name("switch0").id
    (link,) = [
        link
        for link in topo.links
        if {link.a, link.b} == {host1, switch}
    ]
    assert link.latency_us == 9999
    assert link.queue_capacity == 3


def test_star_rejects_empty_host_set():
    with pytest.raises((ValueError, TopologyError)):
        build_topology(StarSpec(hosts=0))


def _manual_topology(nodes, links):
    return Topology(nodes=nodes, links=links)


def test_validate_flags_missing_controller_and_disconnection():
    nodes = [
        Node(0, NodeKind.UE_HOST, "h0"),
        Node(1, NodeKind.SWITCH, "sw"),
        Node(2, NodeKind.SERVER, "srv"),
    ]
    topo = _manual_topology(nodes, [])
    kinds = {v.kind for v in validate(topo)}
    assert ViolationKind.MISSING_CONTROLLER in kinds
    assert ViolationKind.DISCONNECTED_GRAPH in kinds


def test_validate_flags_duplicate_controller_and_bad_link():
    from vnfsdnsim.model import Link

    nodes = [
        Node(0, NodeKind.CONTROLLER, "c0"),
        Node(1, NodeKind.CONTROLLER, "c1"),
    ]
    links = [
        Link(a=0, b=1, latency_us=1, bandwidth_bps=1, queue_capacity=1),
        Link(a=0, b=9, latency_us=1, bandwidth_bps=1, queue_capacity=1),
    ]
    kinds = {v.kind for v in validate(_manual_topology(nodes, links))}
    assert ViolationKind.DUPLICATE_CONTROLLER in kinds
    assert ViolationKind.INVALID_LINK in kinds


def test_build_topology_raises_on_violations():
    # no controller, no links
    topo = _manual_topology([Node(0, NodeKind.UE_HOST, "a"), Node(1, NodeKind.UE_HOST, "b")], [])
    kinds = {v.kind for v in validate(topo)}
    assert kinds == {ViolationKind.MISSING_CONTROLLER, ViolationKind.DISCONNECTED_GRAPH}
    with pytest.raises(TopologyError):
        build_topology(StarSpec(hosts=2, trunk=LinkParams(800, 0, 16)))


# ----------------------------------------------------------------------
# packets


def _packet(**overrides):
    base = dict(
        id=1,
        src=0,
        dst=2,
        size=500,
        protocol="tcp",
        cls=PacketClass.BENIGN,
        tag="user",
        created_at=1000,
    )
    base.update(overrides)
    return Packet(**base)


def test_packet_identity_fields_are_frozen():
    pkt = _packet(cls=PacketClass.THREAT, threat_kind=ThreatKind.SYN_FLOOD)
    for f in dataclasses.fields(Packet):
        with pytest.raises(AttributeError):
            setattr(pkt, f.name, getattr(pkt, f.name))
    # No other attribute can be added or set either: the packet has slots and
    # no forwarding state.  (A frozen slotted dataclass raises TypeError, not
    # AttributeError, for a name that is not a field on Python 3.11.)
    for name in ("class_label", "route", "hop", "delivered_at"):
        with pytest.raises((AttributeError, TypeError)):
            setattr(pkt, name, 0)
    assert not hasattr(pkt, "__dict__")


def test_packet_construction_validates_size_and_threat_kind():
    for size in (MIN_PACKET_BYTES - 1, MAX_PACKET_BYTES + 1):
        with pytest.raises(ValueError):
            _packet(size=size)
    with pytest.raises(ValueError):
        _packet(cls=PacketClass.THREAT)
    assert _packet(size=MIN_PACKET_BYTES).size == MIN_PACKET_BYTES
    assert _packet(size=MAX_PACKET_BYTES).size == MAX_PACKET_BYTES


def test_packet_class_label_carries_threat_kind():
    threat = _packet(cls=PacketClass.THREAT, threat_kind=ThreatKind.SYN_FLOOD)
    assert threat.class_label == "threat:syn_flood"
    assert _packet().class_label == "benign"


def test_security_policy_accepts_exact_tag_set():
    policy = SecurityPolicy(accepted_tags=frozenset({"gold", "silver"}))
    assert policy.accepts("gold")
    assert not policy.accepts("bronze")
    assert not policy.accepts("")
