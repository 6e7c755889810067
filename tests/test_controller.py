"""Flow-rule lifecycle: install delay, detection delay, idle timeout,
refresh-on-match and reinstall.
"""

from vnfsdnsim.model import (
    Packet,
    PacketClass,
    StarSpec,
    ThreatKind,
)
from vnfsdnsim.sdn import Controller, ControllerSettings
from vnfsdnsim.vnf import Verdict


def flood_packet(src=0, dst=3, tag="flood"):
    return Packet(id=1, src=src, dst=dst, size=64, protocol="udp",
                  cls=PacketClass.THREAT, tag=tag, created_at=0,
                  threat_kind=ThreatKind.SYN_FLOOD)


def test_block_verdict_installs_delayed_drop_rule():
    topology = StarSpec(hosts=2)
    settings = ControllerSettings(install_delay_us=1000, drop_idle_timeout_s=0.01)
    controller = Controller(topology, settings)
    pkt = flood_packet(src=0, dst=3)
    rule = controller.on_verdict(pkt, Verdict.IDS_SIGNATURE, now_us=5000)
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
        StarSpec(hosts=2), ControllerSettings(install_delay_us=1000)
    )
    rule = controller.on_verdict(
        flood_packet(), Verdict.PROFILE_DETECTION, now_us=0, extra_delay_us=2500
    )
    assert rule.installed_at == 3500


def test_idle_timeout_with_refresh_on_match():
    controller = Controller(
        StarSpec(hosts=2),
        ControllerSettings(install_delay_us=0, drop_idle_timeout_s=0.01),
    )
    pkt = flood_packet(src=0, dst=3)
    rule = controller.on_verdict(pkt, Verdict.IDS_ANOMALY, now_us=0)
    assert controller.lookup(pkt, 10_000)[0] == "drop"  # boundary: exactly timeout
    assert controller.lookup(pkt, 19_000)[0] == "drop"  # refreshed at 10_000
    assert controller.active_rule_count(29_000) == 1  # boundary: exactly timeout
    assert controller.active_rule_count(29_001) == 0  # > 10 ms idle, lapsed
    assert controller.lookup(pkt, 29_001) == ("chain", None)
    assert rule.last_match == 19_000  # a miss refreshes nothing


def test_lookup_evicts_expired_rules():
    controller = Controller(
        StarSpec(hosts=2),
        ControllerSettings(install_delay_us=0, drop_idle_timeout_s=0.001),
    )
    pkt = flood_packet()
    rule = controller.on_verdict(pkt, Verdict.IDS_ANOMALY, now_us=0)
    # an expired rule no longer drops, though it stays stored until a
    # reinstall replaces it
    assert controller.lookup(pkt, 500_000) == ("chain", None)
    assert controller.active_rule_count(500_000) == 0
    assert controller._rules == {pkt.flow: rule} and rule.last_match == 0


def test_reinstall_replaces_prior_rule():
    controller = Controller(StarSpec(hosts=2))
    pkt = flood_packet()
    first = controller.on_verdict(pkt, Verdict.IDS_ANOMALY, now_us=0)
    second = controller.on_verdict(pkt, Verdict.IDS_SIGNATURE, now_us=100)
    assert controller.rules_installed == 2 and len(controller._rules) == 1
    assert controller._rules == {pkt.flow: second}
    assert controller.lookup(pkt, 1100) == ("drop", second)  # installed at 100 + 1000


def test_idle_timeout_rounds_to_the_nearest_microsecond():
    # 2.01 s is 2009999.9999999998 us in binary floating point
    settings = ControllerSettings(install_delay_us=0, drop_idle_timeout_s=2.01)
    controller = Controller(StarSpec(hosts=2), settings)
    rule = controller.on_verdict(flood_packet(), Verdict.IDS_SIGNATURE, now_us=0)
    assert rule.idle_timeout_us == 2_010_000
    assert rule.active(rule.last_match + 2_010_000)
    assert not rule.active(rule.last_match + 2_010_001)


def test_forward_verdict_installs_nothing():
    controller = Controller(StarSpec(hosts=2))
    pkt = flood_packet(src=0, dst=3)
    assert controller.on_verdict(pkt, Verdict.FORWARD, now_us=0) is None
    assert controller._rules == {} and controller.rules_installed == 0
