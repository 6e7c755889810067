"""Security-function verdict tables, chain short-circuiting, the IDS
sliding window against a replay oracle, profile detection statistics, and
the capture round trip.
"""

import json
from collections import deque

import pytest

from vnfsdnsim.engine import RngStream
from vnfsdnsim.model import (
    Packet,
    PacketClass,
    SecurityPolicy,
    StarSpec,
    ThreatKind,
)
from vnfsdnsim.vnf import (
    CaptureVnf,
    FilterVnf,
    FirewallRule,
    FirewallVnf,
    IdsSettings,
    IdsVnf,
    IoFailure,
    MitigationProfile,
    MonitoringStopped,
    ProfileSettings,
    Verdict,
    VnfChain,
)

POLICY = SecurityPolicy(accepted_tags=frozenset({"gold", "guest"}))
# host<i> has node id i
HOSTS = StarSpec(hosts=10)


def make_packet(
    *,
    pid=1,
    src=0,
    dst=9,
    size=400,
    protocol="tcp",
    cls=PacketClass.BENIGN,
    tag="gold",
    created_at=0,
    threat_kind=None,
):
    return Packet(
        id=pid,
        src=src,
        dst=dst,
        size=size,
        protocol=protocol,
        cls=cls,
        tag=tag,
        created_at=created_at,
        threat_kind=threat_kind,
    )


def test_verdict_labels_and_reasons():
    assert Verdict.FORWARD.forward and Verdict.FORWARD.label == "forward"
    blocks = [v for v in Verdict if v is not Verdict.FORWARD]
    assert [v.value for v in blocks] == [
        "policy_mismatch", "firewall_rule", "ids_signature", "ids_anomaly", "profile_detection"
    ]
    for verdict in blocks:
        assert not verdict.forward and verdict.label == f"block:{verdict.value}"


def test_filter_verdicts():
    vnf = FilterVnf(policy=POLICY)
    assert vnf.check(make_packet(tag="gold")).forward
    blocked = vnf.check(make_packet(tag="intruder"))
    assert blocked is Verdict.POLICY_MISMATCH
    # unauthorized access is blocked even under an accepted tag
    sneaky = make_packet(cls=PacketClass.UNAUTHORIZED_ACCESS, tag="gold")
    assert not vnf.check(sneaky).forward


def test_firewall_first_match_and_default():
    rules = [
        FirewallRule(action="deny", protocol="legacyudp"),
        FirewallRule(action="allow", src="host3"),
        FirewallRule(action="deny", src="host3", dst="host9"),  # shadowed by the allow above
        FirewallRule(action="deny", src="host5", dst="host9"),
    ]
    fw = FirewallVnf(rules, HOSTS)
    assert not fw.check(make_packet(protocol="legacyudp")).forward
    assert fw.check(make_packet(src=3, dst=9)).forward
    assert not fw.check(make_packet(src=5, dst=9)).forward
    assert fw.check(make_packet(src=5, dst=8)).forward  # default allow
    assert fw.check(make_packet(src=4)).forward


def test_ids_signature_match_blocks_immediately():
    ids = IdsVnf(IdsSettings(signatures=frozenset({ThreatKind.SYN_FLOOD})))
    attack = make_packet(cls=PacketClass.THREAT, threat_kind=ThreatKind.SYN_FLOOD)
    verdict = ids.check(attack, now_us=0)
    assert verdict is Verdict.IDS_SIGNATURE
    other = make_packet(cls=PacketClass.THREAT, threat_kind=ThreatKind.ZERO_DAY)
    assert ids.check(other, now_us=1).forward


def test_ids_anomaly_matches_sliding_window_oracle():
    window_s, threshold = 1.0, 50.0
    ids = IdsVnf(IdsSettings(anomaly_window_s=window_s, anomaly_threshold_pps=threshold))
    # replay a bursty arrival pattern and recompute the rate independently
    rng = RngStream(77, "ids-oracle")
    now = 0
    history = deque()
    for i in range(3000):
        now += int(rng.exponential(80.0) * 1_000_000)  # ~80 pps mean
        cutoff = now - int(window_s * 1_000_000)
        while history and history[0] <= cutoff:
            history.popleft()
        history.append(now)
        expect_block = len(history) / window_s > threshold
        verdict = ids.check(make_packet(pid=i, src=5), now_us=now)
        assert verdict.forward == (not expect_block), f"diverged at packet {i}"
        if not verdict.forward:
            assert verdict is Verdict.IDS_ANOMALY
    assert ids.tracked_sources == 1


def test_ids_window_prunes_per_source():
    ids = IdsVnf(IdsSettings(anomaly_window_s=1.0, anomaly_threshold_pps=2.0))
    # three packets within a second trips the source; a different source is clean
    assert ids.check(make_packet(src=1), now_us=0).forward
    assert ids.check(make_packet(src=1), now_us=100).forward
    assert not ids.check(make_packet(src=1), now_us=200).forward
    assert ids.check(make_packet(src=2), now_us=250).forward
    # after the window slides past, the same source is clean again
    assert ids.check(make_packet(src=1), now_us=2_000_000).forward


def test_profile_detection_fraction_and_rng_requirement():
    rng = RngStream(404, "profile")
    profile = MitigationProfile("x", ProfileSettings(detection_probability=0.8), rng)
    n = 10_000
    blocked = 0
    for i in range(n):
        verdict = profile.check(
            make_packet(pid=i, cls=PacketClass.THREAT,
                        threat_kind=ThreatKind.UDP_FLOOD, tag="war"),
            now_us=i,
        )
        blocked += 0 if verdict.forward else 1
    assert abs(blocked / n - 0.8) < 0.02
    # one draw per threat packet; benign packets are never probability-blocked
    # and do not consume draws
    assert rng.counter == n
    assert profile.check(make_packet(), now_us=0).forward
    assert rng.counter == n
    assert profile.tracked_flows == 2


def test_chain_short_circuits_at_first_block():
    forwarding = FilterVnf(policy=POLICY)
    firewall = FirewallVnf([FirewallRule(action="deny", protocol="bad")], HOSTS)
    ids = IdsVnf(IdsSettings())
    chain = VnfChain([forwarding, firewall, ids])
    verdict, cost = chain.process(make_packet(), now_us=0)
    assert verdict.forward and cost == 8  # all three consulted
    verdict, cost = chain.process(make_packet(tag="evil"), now_us=1)
    assert not verdict.forward and cost == 2  # filter blocks, rest never run
    verdict, cost = chain.process(make_packet(protocol="bad"), now_us=2)
    assert not verdict.forward and cost == 3  # filter + firewall
    verdict, cost = VnfChain([]).process(make_packet(), now_us=3)
    assert verdict.forward and cost == 0


def test_capture_round_trip_preserves_every_field(tmp_path):
    cap = CaptureVnf(tmp_path, run_seed=7)
    expected = []
    for i in range(100):
        pkt = make_packet(pid=i, src=i % 5, size=100 + i,
                          cls=PacketClass.THREAT if i % 3 else PacketClass.BENIGN,
                          threat_kind=ThreatKind.SYN_FLOOD if i % 3 else None,
                          tag=f"t{i % 4}")
        verdict = Verdict.POLICY_MISMATCH if i % 2 else Verdict.FORWARD
        cap.capture(pkt, verdict, now_us=10 * i)
        expected.append({
            "class": "threat:syn_flood" if i % 3 else "benign",
            "dst": 9,
            "id": i,
            "protocol": "tcp",
            "sim_time_us": 10 * i,
            "size": 100 + i,
            "src": i % 5,
            "tag": f"t{i % 4}",
            "verdict": "block:policy_mismatch" if i % 2 else "forward",
        })
    assert len(cap.buffer) == 100
    path = cap.stop_and_save()
    assert path.name == "capture_7_0.ndrec"
    lines = path.read_text().splitlines()
    assert len(lines) == 101  # header + one per packet
    header = json.loads(lines[0])
    assert header["format_version"] == 1 and header["run_seed"] == 7
    for line, record in zip(lines[1:], expected):
        obj = json.loads(line)
        assert list(obj.keys()) == sorted(obj.keys())
        assert obj == record
    # saving clears the buffer and stops monitoring
    assert cap.buffer == [] and not cap.monitoring
    with pytest.raises(MonitoringStopped):
        cap.capture(make_packet(), Verdict.FORWARD, now_us=0)


def test_capture_io_failure_surfaces(tmp_path):
    blocker = tmp_path / "not-a-folder"
    blocker.write_text("occupied")
    cap = CaptureVnf(blocker, run_seed=1)
    cap.capture(make_packet(), Verdict.FORWARD, now_us=0)
    with pytest.raises(IoFailure):
        cap.stop_and_save()
