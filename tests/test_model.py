"""Star construction, its range checks and the packet immutability contract."""

import dataclasses

import pytest

from vnfsdnsim.model import (
    DEFAULT_ACCESS,
    DEFAULT_TRUNK,
    MAX_PACKET_BYTES,
    MIN_PACKET_BYTES,
    LinkParams,
    Packet,
    PacketClass,
    SecurityPolicy,
    StarSpec,
    ThreatKind,
)


def test_star_topology_counts_and_names():
    star = StarSpec(hosts=4, servers=2)
    assert list(star.ids.items()) == [
        ("host0", 0), ("host1", 1), ("host2", 2), ("host3", 3),
        ("switch0", 4), ("server0", 5), ("server1", 6),
    ]
    # one access link per host, one trunk per server, none for the switch
    links = star.links()
    assert list(links) == [0, 1, 2, 3, 5, 6]
    assert all(links[h] is DEFAULT_ACCESS for h in range(4))
    assert links[5] is links[6] is DEFAULT_TRUNK


def test_star_per_host_access_override():
    slow = LinkParams(latency_us=9999, bandwidth_bps=1_000_000, queue_capacity=3)
    trunk = LinkParams(latency_us=7, bandwidth_bps=5_000_000, queue_capacity=9)
    links = StarSpec(hosts=3, servers=2, trunk=trunk, per_host_access={1: slow}).links()
    assert links == {0: DEFAULT_ACCESS, 1: slow, 2: DEFAULT_ACCESS, 4: trunk, 5: trunk}


def test_star_rejects_empty_host_set():
    with pytest.raises(ValueError, match="hosts"):
        StarSpec(hosts=0)


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
