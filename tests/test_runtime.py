"""Dataplane behaviour pinned against hand-computed store-and-forward
timings: queueing, overflow, benign-first push-out, rule-enforced
blackholing until idle expiry, detection timing, and conservation of
packets between the live aggregator and an offline trace rollup.

The default star wiring puts host0/host1 at ids 0/1, the switch at 2 and
server0 at 3; access links run at 1 Gbps + 300 us, so a 1000-byte packet
reaches the switch at t+308 us.
"""

import pytest

from vnfsdnsim.engine import EventKind, SimEngine, seconds
from vnfsdnsim.metrics import kpi_rollup
from vnfsdnsim.model import (
    LinkParams,
    Packet,
    PacketClass,
    SecurityPolicy,
    StarSpec,
    ThreatKind,
    build_topology,
)
from vnfsdnsim.runtime import NetworkSim, service_time_us
from vnfsdnsim.sdn import Controller, ControllerSettings
from vnfsdnsim.traffic import BenignProfile, DdosProfile, SizeDist
from vnfsdnsim.vnf import (
    FilterVnf,
    IdsSettings,
    IdsVnf,
    MitigationProfile,
    ProfileSettings,
    VnfChain,
)

GOLD_ONLY = SecurityPolicy(accepted_tags=frozenset({"gold"}))
# 1 Mbps trunk: a 1000-byte packet serialises in 8000 us; queue of 2.
SLOW_TRUNK = LinkParams(latency_us=800, bandwidth_bps=1_000_000, queue_capacity=2)


def make_sim(*, trunk=None, vnfs=(), ctrl=ControllerSettings(), seed=1, hosts=2):
    spec = StarSpec(hosts=hosts) if trunk is None else StarSpec(hosts=hosts, trunk=trunk)
    topology = build_topology(spec)
    engine = SimEngine(seed)
    controller = Controller(topology, ctrl)
    return NetworkSim(
        topology, engine, controller, VnfChain(list(vnfs)), collect_trace=True,
    )


def qos_profile():
    """A profile that never blocks and schedules benign traffic first."""
    settings = ProfileSettings(detection_probability=0.0, prioritize_benign=True)
    return MitigationProfile("q", settings, SimEngine(1).register_stream("q"))


def inject_at(sim, t_us, pid, *, src=0, dst=None, size=1000, cls=PacketClass.BENIGN,
              tag="gold", threat_kind=None, is_request=False, response_size=0,
              measured=None):
    if dst is None:
        dst = sim.topology.by_name("server0").id
    if measured is None:
        measured = cls is PacketClass.BENIGN

    def fire(now, _payload):
        sim.inject(Packet(
            id=pid, src=src, dst=dst, size=size, protocol="tcp", cls=cls,
            tag=tag, created_at=now, threat_kind=threat_kind, measured=measured,
            is_request=is_request, response_size=response_size,
        ))

    sim.engine.schedule(t_us, EventKind.TRAFFIC_EMIT, fire)


def recs(sim, kind):
    return [r for r in sim.trace if r[0] == kind]


def test_service_time_rounds_up_to_whole_microseconds():
    assert service_time_us(1000, 100_000_000) == 80
    assert service_time_us(1000, 1_000_000) == 8000
    assert service_time_us(125, 1_000_000) == 1000
    assert service_time_us(126, 1_000_000) == 1008
    assert service_time_us(1, 1_000_000_000) == 1  # never zero


def test_single_packet_latency_is_the_sum_of_hops():
    sim = make_sim()
    sim.attach_traffic(0.01)
    inject_at(sim, 0, pid=100)
    result = sim.run(0.01)
    # access: 8 us serialise + 300 us propagate; trunk: 80 + 800
    (deliver,) = recs(sim, "deliver")
    assert deliver[1] == 1188 and deliver[1] - deliver[2].created_at == 1188
    assert result.report.mean_latency_ms == pytest.approx(1.188)
    assert result.report.counters.delivered_packets == 1
    assert result.report.counters.in_flight() == 0


def test_fifo_queueing_delays_the_second_packet():
    sim = make_sim()
    sim.attach_traffic(0.01)
    inject_at(sim, 0, pid=1)
    inject_at(sim, 0, pid=2)
    sim.run(0.01)
    # p2 waits 8 us behind p1 on the access link, then 72 more at the trunk
    assert [(r[2].id, r[1]) for r in recs(sim, "deliver")] == [(1, 1188), (2, 1268)]


def test_queue_overflow_tail_drops():
    sim = make_sim(trunk=SLOW_TRUNK)
    sim.attach_traffic(0.05)
    for pid in range(10):
        inject_at(sim, 0, pid=pid)
    result = sim.run(0.05)
    # one in service plus two queued survive; seven arrivals bounce
    assert [r[1] for r in recs(sim, "deliver")] == [9108, 17108, 25108]
    assert len(recs(sim, "qdrop")) == 7
    c = result.report.counters
    assert (c.total_packets, c.delivered_packets, c.queue_dropped) == (10, 3, 7)
    assert result.report.benign_loss_total == 7
    assert c.in_flight() == 0


def test_benign_first_scheduling_pushes_out_queued_junk():
    sim = make_sim(trunk=SLOW_TRUNK, vnfs=[qos_profile()])
    sim.attach_traffic(0.05)
    for i, t in enumerate((0, 10, 20)):
        inject_at(sim, t, pid=i, cls=PacketClass.THREAT, tag="junk",
                  threat_kind=ThreatKind.UDP_FLOOD)
    inject_at(sim, 30, pid=9)
    sim.run(0.05)
    # the benign arrival evicts threat 2 (the queue tail) and jumps the band
    assert [r[2].id for r in recs(sim, "qdrop")] == [2]
    assert [(r[2].id, r[1]) for r in recs(sim, "deliver")] == [
        (0, 9108), (9, 17108), (1, 25108)
    ]


def test_without_priority_the_late_benign_packet_drops():
    sim = make_sim(trunk=SLOW_TRUNK)
    sim.attach_traffic(0.05)
    for i, t in enumerate((0, 10, 20)):
        inject_at(sim, t, pid=i, cls=PacketClass.THREAT, tag="junk",
                  threat_kind=ThreatKind.UDP_FLOOD)
    inject_at(sim, 30, pid=9)
    sim.run(0.05)
    assert [r[2].id for r in recs(sim, "qdrop")] == [9]
    assert [r[2].id for r in recs(sim, "deliver")] == [0, 1, 2]


def test_mitigation_profile_declares_benign_priority():
    assert make_sim(vnfs=[qos_profile()]).qos_priority
    assert not make_sim().qos_priority


def test_blocked_flow_delivers_nothing_until_rule_expiry():
    sim = make_sim(
        vnfs=[FilterVnf(policy=GOLD_ONLY)],
        ctrl=ControllerSettings(drop_idle_timeout_s=0.05),  # install delay stays 1000 us
    )
    sim.attach_traffic(0.25)
    for i, t_ms in enumerate((0, 10, 20, 30, 40, 200)):
        inject_at(sim, t_ms * 1000, pid=i, tag="evil")
    result = sim.run(0.25)

    assert recs(sim, "deliver") == []
    # first packet is judged by the chain; the drop rule (live from 1308)
    # consumes the next four; the long gap expires it, so packet 5 is
    # judged by the chain again and installs a second rule.
    assert [(r[1], r[3]) for r in recs(sim, "block")] == [
        (308, "block:policy_mismatch"),
        (10_308, "policy_mismatch"),
        (20_308, "policy_mismatch"),
        (30_308, "policy_mismatch"),
        (40_308, "policy_mismatch"),
        (200_308, "block:policy_mismatch"),
    ]
    assert len(recs(sim, "rule_install")) == 2
    assert result.rules_installed == 2
    # idle check: last match 40_308 + 50_000 us timeout, probed one us later
    assert [r[1] for r in recs(sim, "rule_expire")] == [90_309]
    assert result.report.counters.blocked_packets == 6


def test_detection_clock_starts_at_first_threat_emission():
    sim = make_sim(vnfs=[IdsVnf(IdsSettings(signatures=frozenset({ThreatKind.SYN_FLOOD})))])
    sim.attach_traffic(0.01)
    inject_at(sim, 0, pid=1, cls=PacketClass.THREAT, tag="syn",
              threat_kind=ThreatKind.SYN_FLOOD)
    result = sim.run(0.01)
    (detect,) = recs(sim, "detect")
    # blocked on arrival at 308, rule active 1000 us later
    assert detect[3] == 1308
    assert result.report.detection_time_ms == pytest.approx(1.308)
    assert result.report.tdr == 1.0


def test_anomaly_detection_latency_spans_the_undetected_prefix():
    ids = IdsVnf(IdsSettings(anomaly_window_s=1.0, anomaly_threshold_pps=2.0))
    sim = make_sim(vnfs=[ids])
    sim.attach_traffic(0.1)
    for i, t_ms in enumerate((0, 10, 20)):
        inject_at(sim, t_ms * 1000, pid=i, cls=PacketClass.THREAT, tag="syn",
                  threat_kind=ThreatKind.SYN_FLOOD)
    result = sim.run(0.1)
    # the third packet trips the rate check at 20_308; the rule lands at
    # 21_308, and the detection clock reaches back to the first emission.
    (detect,) = recs(sim, "detect")
    assert detect[3] == 21_308
    assert result.report.tdr == pytest.approx(1 / 3)
    assert len(recs(sim, "deliver")) == 2


def test_profile_reporting_delay_defers_rule_activation():
    profile = MitigationProfile(
        "slowpoke", ProfileSettings(detection_probability=1.0, detection_delay_us=5000),
        SimEngine(1).register_stream("p"),
    )
    sim = make_sim(vnfs=[profile])
    sim.attach_traffic(0.01)
    inject_at(sim, 0, pid=1, cls=PacketClass.THREAT, tag="syn",
              threat_kind=ThreatKind.SYN_FLOOD)
    sim.run(0.01)
    (detect,) = recs(sim, "detect")
    assert detect[3] == 308 + 1000 + 5000


def test_request_generates_an_unmeasured_response_and_an_rtt():
    sim = make_sim()
    sim.attach_traffic(0.01)
    inject_at(sim, 0, pid=50, size=1000, is_request=True, response_size=500)
    result = sim.run(0.01)
    delivered = recs(sim, "deliver")
    assert len(delivered) == 2
    # request lands at 1188; the 500-byte answer needs 40+800 trunk and
    # 4+300 access microseconds on the way back
    (response,) = [r for r in delivered if r[2].rtt_anchor is not None]
    assert response[1] - response[2].rtt_anchor == 2332
    assert result.report.mean_rtt_ms == pytest.approx(2.332)
    response_emit = [r for r in recs(sim, "emit") if r[2].origin.startswith("response/")]
    assert len(response_emit) == 1 and response_emit[0][2].measured is False
    assert result.report.benign_sent == 1  # the response is not a user packet


def test_run_guards_against_mismatched_horizons():
    sim = make_sim()
    with pytest.raises(RuntimeError):
        sim.run(0.01)
    sim.attach_traffic(0.01)
    with pytest.raises(ValueError):
        sim.run(0.02)


def test_live_totals_are_conserved_and_match_an_offline_rollup():
    topology = build_topology(
        StarSpec(hosts=4, trunk=LinkParams(latency_us=800, bandwidth_bps=2_000_000,
                                           queue_capacity=8))
    )
    engine = SimEngine(424242)
    sim = NetworkSim(
        topology, engine, Controller(topology), VnfChain([FilterVnf(policy=GOLD_ONLY)]),
        collect_trace=True,
    )
    sim.attach_traffic(
        2.0,
        benign=[BenignProfile(name="web", sources="all_hosts", dst="server0",
                              rate_pps=100.0, size=SizeDist(200, 1200), tag="gold",
                              request_fraction=0.2, response_size=300)],
        ddos=[DdosProfile(name="syn", target="server0", threat_kind=ThreatKind.SYN_FLOOD,
                          tag="attack", attackers=("host2", "host3"),
                          rate_multiplier=30.0, base_rate_pps=10.0)],
    )
    result = sim.run(2.0)
    c = result.report.counters
    c.check()
    assert c.total_packets == len(recs(sim, "emit"))
    assert c.delivered_packets == len(recs(sim, "deliver"))
    assert c.blocked_packets == len(recs(sim, "block"))
    assert c.queue_dropped == len(recs(sim, "qdrop"))
    assert (
        c.delivered_packets + c.blocked_packets + c.queue_dropped + c.in_flight()
        == c.total_packets
    )
    assert 0 <= c.in_flight() < 50
    # every threat that reached the switch was blocked; none were delivered
    assert c.threat_packets > 1000
    assert not [r for r in recs(sim, "deliver") if r[2].cls is PacketClass.THREAT]
    threat_qdrops = sum(1 for r in recs(sim, "qdrop") if r[2].cls is PacketClass.THREAT)
    threats_in_flight = c.threat_packets - c.blocked_threat_packets - threat_qdrops
    assert 0 <= threats_in_flight <= c.in_flight()
    # round trips are folded from the deliver records of the responses
    assert result.report.mean_rtt_ms is not None
    # an offline rollup of the captured trace reproduces the streaming report
    offline = kpi_rollup(result.trace, 1.0, duration_us=seconds(2.0),
                         devices_total=5)
    assert offline == result.report
