"""Dataplane behaviour pinned against hand-computed store-and-forward
timings: queueing, overflow, the departure-before-arrival tie rule on both
queue paths, one queue per direction of a link, benign-first push-out,
rule-enforced blackholing until idle expiry, detection timing, the
conservation check, and agreement between the live aggregator and an
offline trace rollup.

The default star wiring puts host0/host1 at ids 0/1, the switch at 2 and
server0 at 3; access links run at 1 Gbps + 300 us, so a 1000-byte packet
reaches the switch at t+308 us.
"""

from collections import Counter
from functools import partial

import pytest

from vnfsdnsim import scenarios
from vnfsdnsim.config import apply_overrides, default_config, from_dict
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
from vnfsdnsim.runtime import NetworkSim, run_cells, service_time_us
from vnfsdnsim.scenarios import run_one
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
# 10 ms access propagation: a switch arrival is scheduled before the trunk
# departure it ties with, so the event-driven path cannot win the tie by
# schedule order alone.
FAR_ACCESS = LinkParams(latency_us=10_000, bandwidth_bps=1_000_000_000, queue_capacity=64)


def make_sim(*, vnfs=(), ctrl=ControllerSettings(), seed=1, hosts=2, **links):
    topology = build_topology(StarSpec(hosts=hosts, **links))
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
              tag="gold", threat_kind=None, response_size=0,
              measured=None):
    if dst is None:
        dst = sim.topology.by_name("server0").id
    if measured is None:
        measured = cls is PacketClass.BENIGN

    def fire(now, _payload):
        sim.inject(now, Packet(
            id=pid, src=src, dst=dst, size=size, protocol="tcp", cls=cls,
            tag=tag, created_at=now, threat_kind=threat_kind, measured=measured,
            response_size=response_size,
        ))

    # any kind but PACKET_ARRIVAL, which the conservation check counts as held
    sim.engine.schedule(t_us, EventKind.MONITOR_SAMPLE, fire)


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
    inject_at(sim, 0, pid=100)
    result = sim.run(0.01)
    # access: 8 us serialise + 300 us propagate; trunk: 80 + 800
    (deliver,) = recs(sim, "deliver")
    assert deliver[1] == 1188 and deliver[1] - deliver[2].created_at == 1188
    assert result.report.mean_latency_ms == pytest.approx(1.188)
    assert result.report.counters.delivered_packets == 1
    assert result.report.counters.in_flight() == 0


@pytest.mark.parametrize("qos", [False, True], ids=["fifo", "qos"])
@pytest.mark.parametrize("sent_at, delivered", [(0, True), (1, False)])
def test_a_last_hop_counts_when_it_arrives_by_the_horizon(qos, sent_at, delivered):
    sim = make_sim(vnfs=[qos_profile()] if qos else [])
    # the horizon is the 1188 us a packet sent at 0 needs to reach server0
    inject_at(sim, sent_at, pid=7)
    counters = sim.run(0.001188).report.counters
    assert [(r[2].id, r[1]) for r in recs(sim, "deliver")] == ([(7, 1188)] if delivered else [])
    assert (counters.delivered_packets, counters.in_flight()) == (
        (1, 0) if delivered else (0, 1)
    )


def test_fifo_queueing_delays_the_second_packet():
    sim = make_sim()
    inject_at(sim, 0, pid=1)
    inject_at(sim, 0, pid=2)
    sim.run(0.01)
    # p2 waits 8 us behind p1 on the access link, then 72 more at the trunk
    assert [(r[2].id, r[1]) for r in recs(sim, "deliver")] == [(1, 1188), (2, 1268)]


def test_queue_overflow_tail_drops():
    sim = make_sim(trunk=SLOW_TRUNK)
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


@pytest.mark.parametrize("qos", [False, True], ids=["fifo", "qos"])
@pytest.mark.parametrize("late_us, admitted", [(8000, True), (7999, False)])
def test_a_departure_frees_its_slot_before_an_arrival_at_the_same_microsecond(
    qos, late_us, admitted
):
    sim = make_sim(trunk=SLOW_TRUNK, access=FAR_ACCESS, vnfs=[qos_profile()] if qos else [])
    # host0's three packets reach the switch at 10_008, 10_016, 10_024: one
    # in trunk service until 18_008, two waiting, so the queue is full.
    for pid in range(3):
        inject_at(sim, 0, pid=pid)
    # host1's packet reaches the switch at 18_008 (or one us earlier)
    inject_at(sim, late_us, pid=3, src=1)
    sim.run(0.05)
    delivered = [(r[2].id, r[1]) for r in recs(sim, "deliver")]
    assert delivered[:3] == [(0, 18_808), (1, 26_808), (2, 34_808)]
    if admitted:
        assert delivered[3:] == [(3, 42_808)] and recs(sim, "qdrop") == []
    else:
        assert delivered[3:] == []
        assert [(r[1], r[2].id) for r in recs(sim, "qdrop")] == [(18_007, 3)]


@pytest.mark.parametrize("qos", [False, True], ids=["fifo", "qos"])
def test_each_direction_of_a_link_queues_on_its_own(qos):
    # host0's own link runs at 1 Mbps: a 1000-byte packet serialises in 8000 us
    slow = LinkParams(latency_us=300, bandwidth_bps=1_000_000, queue_capacity=64)
    sim = make_sim(per_host_access={0: slow}, vnfs=[qos_profile()] if qos else [])
    server = sim.topology.by_name("server0").id
    inject_at(sim, 0, pid=1, src=0, dst=server)
    inject_at(sim, 0, pid=2, src=server, dst=0)
    inject_at(sim, 0, pid=3, src=1, dst=0)
    sim.run(0.05)
    # packet 1 holds host0's uplink until 8000 and reaches the switch at
    # 8300; packet 3 reaches it at 308 and takes host0's idle downlink at
    # once, 8000 + 300 later; packet 2, at the switch at 880, waits
    # behind packet 3 on that downlink until 8308
    assert sorted((r[2].id, r[1]) for r in recs(sim, "deliver")) == [
        (1, 9180), (2, 16608), (3, 8608)
    ]


@pytest.mark.parametrize("qos", [False, True], ids=["fifo", "qos"])
@pytest.mark.parametrize("packets", [1, 2])
def test_events_per_two_hop_packet(qos, packets, monkeypatch):
    sim = make_sim(vnfs=[qos_profile()] if qos else [])
    scheduled = Counter()
    schedule = sim.engine.schedule

    def counting(time, kind, fn, payload=None):
        scheduled[kind.name] += 1
        schedule(time, kind, fn, payload)

    monkeypatch.setattr(sim.engine, "schedule", counting)
    server = sim.topology.by_name("server0").id
    offered = [
        (0, Packet(id=pid, src=0, dst=server, size=1000, protocol="tcp",
                   cls=PacketClass.BENIGN, tag="gold", created_at=0, measured=True))
        for pid in range(packets)
    ]
    sim.start(0.01)
    sim.advance(seconds(0.01), offered)
    result = sim.finish()
    # an offered packet is fed, not emitted by an event; it costs the arrival
    # at the switch alone, as the delivery is recorded when the last hop is
    # scheduled.  The second packet waits behind the first on both links,
    # and the event-driven server wakes for it there
    waits = 2 if qos and packets == 2 else 0
    assert scheduled == Counter(PACKET_ARRIVAL=packets, PACKET_DEPARTURE=waits)
    assert result.events_processed == packets + waits
    assert [r[1] for r in recs(sim, "deliver")] == [1188, 1268][:packets]


def test_benign_first_scheduling_pushes_out_queued_junk():
    sim = make_sim(trunk=SLOW_TRUNK, vnfs=[qos_profile()])
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
    for i, t_us in enumerate((0, 10_000, 20_000, 30_000, 40_000, 90_001)):
        inject_at(sim, t_us, pid=i, tag="evil")
    result = sim.run(0.25)

    assert recs(sim, "deliver") == []
    # first packet is judged by the chain; the drop rule (live from 1308)
    # consumes the next four.  Its last match at 40_308 plus the 50_000 us
    # timeout keeps it live until 90_308, so packet 5, at the switch one us
    # later, is judged by the chain again and installs a second rule.
    assert [(r[1], r[3]) for r in recs(sim, "block")] == [
        (308, "block:policy_mismatch"),
        (10_308, "policy_mismatch"),
        (20_308, "policy_mismatch"),
        (30_308, "policy_mismatch"),
        (40_308, "policy_mismatch"),
        (90_309, "block:policy_mismatch"),
    ]
    assert [r[1] for r in recs(sim, "rule_install")] == [308, 90_309]
    assert result.rules_installed == 2
    # the idle rule stayed stored until the second one replaced it
    (rule,) = sim.controller._rules.values()
    assert rule.installed_at == 91_309
    assert result.report.counters.blocked_packets == 6


def test_detection_clock_starts_at_first_threat_emission():
    sim = make_sim(vnfs=[IdsVnf(IdsSettings(signatures=frozenset({ThreatKind.SYN_FLOOD})))])
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
    inject_at(sim, 0, pid=1, cls=PacketClass.THREAT, tag="syn",
              threat_kind=ThreatKind.SYN_FLOOD)
    sim.run(0.01)
    (detect,) = recs(sim, "detect")
    assert detect[3] == 308 + 1000 + 5000


def test_request_generates_an_unmeasured_response_and_an_rtt():
    sim = make_sim()
    inject_at(sim, 0, pid=50, size=1000, response_size=500)
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


def test_a_delivery_without_its_record_fails_the_conservation_check():
    sim = make_sim()
    fold, lost = sim._rec_deliver, []

    def lose_the_first(t, packet):
        if lost:
            fold(t, packet)
        else:
            lost.append(packet)

    sim._rec_deliver = lose_the_first
    inject_at(sim, 0, pid=1)
    inject_at(sim, 0, pid=2)
    with pytest.raises(RuntimeError, match="1 in flight, 0 held"):
        sim.run(0.01)
    assert [p.id for p in lost] == [1]


def test_cells_that_count_different_offers_fail_the_run():
    web = BenignProfile(name="web", sources="all_hosts", dst="server0",
                        rate_pps=200.0, size=SizeDist(100), tag="gold")
    assert len({r.report.counters.total_packets
                for r in run_cells([make_sim(), make_sim()], 0.5, benign=[web])}) == 1
    sims = [make_sim(), make_sim()]
    inject, lost = sims[1].inject, []

    def lose_the_first(t, packet):
        if lost:
            inject(t, packet)
        else:
            lost.append(packet)

    sims[1].inject = lose_the_first  # the second cell is never offered packet 0
    with pytest.raises(RuntimeError, match="offered traffic differs across cells"):
        run_cells(sims, 0.5, benign=[web])
    assert [p.id for p in lost] == [0]


def test_a_run_without_traffic_reports_undefined_ratios():
    # the first monitor tick would fall at the end of a 1 s run, so the
    # aggregator is fed no record at all
    sim = make_sim()
    report = sim.run(1.0).report
    assert sim.trace == [] and report.counters.total_packets == 0
    for value in (report.secure_traffic_pct, report.tdr, report.ubr, report.access_outcome,
                  report.mean_latency_ms, report.availability_pct):
        assert value is None
    assert len(report.windows) == 1 and report.reliability == 1.0
    # given the horizon, the empty trace rolls up to the same report
    assert kpi_rollup([], 1.0, duration_us=1_000_000, devices_total=3) == report


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
    result = sim.run(
        2.0,
        benign=[BenignProfile(name="web", sources="all_hosts", dst="server0",
                              rate_pps=100.0, size=SizeDist(200, 1200), tag="gold",
                              request_fraction=0.2, response_size=300)],
        ddos=[DdosProfile(name="syn", target="server0", threat_kind=ThreatKind.SYN_FLOOD,
                          tag="attack", attackers=("host2", "host3"),
                          rate_multiplier=30.0, base_rate_pps=10.0)],
    )
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


# Shrunk s1 and s5 with their attacks moved to 0.5 s: every security config
# blocks, drops or delivers; s5's qos_sdn profile runs the benign-first queue.
ROLLUP_RUNS = {
    1: ["traffic.ddos.0.window.start_s=0.5", "traffic.ddos.1.window.start_s=0.5"],
    5: ["traffic.ddos.0.window.start_s=0.5"],
}


@pytest.mark.parametrize("scenario", sorted(ROLLUP_RUNS))
def test_the_runtime_folds_and_feed_agree(scenario, monkeypatch):
    # The runtime calls the aggregator's fold of each packet record kind
    # directly; kpi_rollup feeds the collected tuples through ``feed``.
    monkeypatch.setattr(scenarios, "NetworkSim", partial(NetworkSim, collect_trace=True))
    cfg = from_dict(apply_overrides(default_config(scenario),
                                    ["duration_s=2", *ROLLUP_RUNS[scenario]]))
    devices = cfg.topology.hosts + cfg.topology.servers
    for label in cfg.security.configs:
        result = run_one(cfg, label)
        offline = kpi_rollup(result.trace, cfg.window_s, duration_us=seconds(cfg.duration_s),
                             devices_total=devices, memory_base_mb=cfg.memory_base_mb)
        assert offline == result.report, label
        assert offline.counters.delivered_packets > 0, label


# Benign-only traffic puts every packet in one band, so the event-driven
# benign-first queue and the FIFO computed at enqueue are the same queue.
DIFFERENTIAL_RUNS = {
    "s1_surge": (1, None, ["duration_s=4", "traffic.benign.1.window.start_s=1",
                           "traffic.benign.2.window.start_s=1"]),
    "s2_100_hosts": (2, 100, ["duration_s=3"]),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_RUNS))
def test_both_queue_paths_agree_on_benign_only_traffic(name):
    scenario, hosts, overrides = DIFFERENTIAL_RUNS[name]
    tree = apply_overrides(default_config(scenario), [
        *overrides, "traffic.ddos=[]", "traffic.access=[]",
    ])

    def run(prioritize):
        flag = f"security.profiles.qos_sdn.prioritize_benign={prioritize}"
        return run_one(from_dict(apply_overrides(tree, [flag])), "profile-qos_sdn", hosts=hosts)

    qos, fifo = run("true"), run("false")
    assert qos.report.counters.queue_dropped > 0
    assert fifo.report == qos.report
    assert fifo.events_processed < qos.events_processed
