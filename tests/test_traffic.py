"""Traffic generation: arrival times replayed against the raw random
streams, burst-window arithmetic, class/tag assignment, the merge of the
streams into numbered chunks, and the stream isolation that keeps workloads
identical across security configurations.

The profiles run over a two-host star: host0/host1 at ids 0/1, the switch
at 2 and server0 at 3.
"""

import math
from dataclasses import replace

import pytest

from vnfsdnsim import traffic
from vnfsdnsim.engine import RngStream, SimEngine, seconds
from vnfsdnsim.model import PacketClass, StarSpec, ThreatKind
from vnfsdnsim.runtime import NetworkSim
from vnfsdnsim.sdn import Controller
from vnfsdnsim.traffic import (
    AccessProfile,
    ActivityWindow,
    BenignProfile,
    DdosProfile,
    SizeDist,
    offered_chunks,
)
from vnfsdnsim.vnf import VnfChain

STAR = StarSpec(hosts=2)


def run_profile(seed, duration_s, *profiles):
    """Every packet the streams of ``profiles`` offer, in offered order."""
    streams = [stream for profile in profiles for stream in profile.streams(STAR)]
    return [
        packet
        for _end, items in offered_chunks(seed, streams, seconds(duration_s))
        for _t, packet in items
    ]


def test_benign_arrivals_replay_from_the_named_stream():
    profile = BenignProfile(
        name="web", sources=("host0",), dst="server0",
        rate_pps=50.0, size=SizeDist(400), tag="gold",
    )
    packets = run_profile(99, 2.0, profile)
    # rebuild the exact arrival sequence from the same seed and stream name
    stream = RngStream(99, "benign/web/host0")
    expected, cursor = [], 0.0
    while True:
        cursor += stream.exponential(50.0)
        wall = seconds(cursor)
        if wall >= seconds(2.0):
            break
        expected.append(wall)
    assert [p.created_at for p in packets] == expected
    assert all(p.size == 400 and p.tag == "gold" and p.measured for p in packets)
    assert all(p.cls is PacketClass.BENIGN and p.response_size == 0 for p in packets)


def test_poisson_volume_tracks_rate():
    profile = BenignProfile(
        name="bulk", sources=("host0",), dst="server0",
        rate_pps=500.0, size=SizeDist(200, 1200), tag="gold",
    )
    packets = run_profile(7, 20.0, profile)
    mean = 500.0 * 20.0
    assert abs(len(packets) - mean) < 4 * math.sqrt(mean)
    assert all(200 <= p.size <= 1200 for p in packets)


def test_request_fraction_marks_probes():
    profile = BenignProfile(
        name="probe", sources=("host0",), dst="server0",
        rate_pps=1000.0, size=SizeDist(128), tag="gold",
        request_fraction=0.3, response_size=900,
    )
    packets = run_profile(21, 5.0, profile)
    fraction = sum(p.response_size > 0 for p in packets) / len(packets)
    assert abs(fraction - 0.3) < 4 * math.sqrt(0.3 * 0.7 / len(packets))
    assert {p.response_size for p in packets} == {0, 900}


def test_activity_window_maps_active_axis_to_wall_clock():
    window = ActivityWindow(start_s=2.0, burst_period_s=10.0, burst_on_s=3.0)
    assert window.wall_us(0.0) == seconds(2.0)
    assert window.wall_us(2.9) == seconds(4.9)
    assert window.wall_us(3.0) == seconds(12.0)  # second cycle begins
    assert window.wall_us(7.5) == seconds(23.5)  # cycle 2, 1.5 s in
    plain = ActivityWindow(start_s=1.5)
    assert plain.wall_us(4.0) == seconds(5.5)
    with pytest.raises(ValueError):
        ActivityWindow(burst_period_s=5.0)
    with pytest.raises(ValueError):
        ActivityWindow(burst_period_s=5.0, burst_on_s=6.0)
    # a window that stops at or before its start can never emit
    for start_s, stop_s in ((15.0, 10.0), (0.0, -1.0), (2.0, 2.0)):
        with pytest.raises(ValueError, match="stop_s must be greater than start_s"):
            ActivityWindow(start_s=start_s, stop_s=stop_s)


def test_burst_window_confines_emission_to_on_phases():
    profile = DdosProfile(
        name="pulse", target="host1", threat_kind=ThreatKind.UDP_FLOOD, tag="junk",
        attackers=("host0",), rate_multiplier=20.0, base_rate_pps=10.0,
        window=ActivityWindow(start_s=0.5, burst_period_s=1.0, burst_on_s=0.2),
    )
    packets = run_profile(3, 8.0, profile)
    assert len(packets) > 100  # ~200 pps on 20% duty over 7.5 s
    for p in packets:
        offset_us = (p.created_at - seconds(0.5)) % seconds(1.0)
        assert 0 <= offset_us <= seconds(0.2)
        assert p.created_at >= seconds(0.5)
    assert all(p.threat_kind is ThreatKind.UDP_FLOOD for p in packets)
    assert all(not p.measured for p in packets)


def test_stop_time_ends_emission():
    profile = DdosProfile(
        name="wave", target="host1", threat_kind=ThreatKind.SYN_FLOOD, tag="junk",
        attackers=("host0",), rate_multiplier=30.0, base_rate_pps=10.0,
        window=ActivityWindow(start_s=1.0, stop_s=3.0),
    )
    sim = NetworkSim(STAR, SimEngine(5), Controller(STAR), VnfChain(), collect_trace=True)
    sim.run(10.0, ddos=[profile])
    emitted = [rec[1] for rec in sim.trace if rec[0] == "emit"]
    assert emitted and all(seconds(1.0) <= t < seconds(3.0) for t in emitted)


def test_ddos_rate_is_multiplier_times_base():
    profile = DdosProfile(
        name="flood", target="server0", threat_kind=ThreatKind.SYN_FLOOD, tag="junk",
        attackers=("host0", "host1"), rate_multiplier=50.0, base_rate_pps=10.0,
    )
    assert profile.rate_pps_per_attacker == 500.0
    packets = run_profile(11, 4.0, profile)
    per_source = {src: sum(1 for p in packets if p.src == src) for src in (0, 1)}
    for count in per_source.values():
        assert abs(count - 2000) < 4 * math.sqrt(2000)


def test_access_attempts_split_by_authorisation():
    profile = AccessProfile(
        name="door", sources=("host0",), dst="server0",
        authorized_pps=40.0, unauthorized_pps=10.0, authorized_tag="gold",
    )
    packets = run_profile(13, 20.0, profile)
    good = [p for p in packets if p.cls is PacketClass.BENIGN]
    bad = [p for p in packets if p.cls is PacketClass.UNAUTHORIZED_ACCESS]
    assert len(good) + len(bad) == len(packets)
    assert abs(len(good) - 800) < 4 * math.sqrt(800)
    assert abs(len(bad) - 200) < 4 * math.sqrt(200)
    assert all(p.tag == "gold" for p in good)
    assert all(p.tag == "unauthorized" for p in bad)
    assert all(p.origin == "access/door" for p in packets)


def test_profiles_draw_from_isolated_streams():
    """Adding a second workload must not perturb the first one's packets."""
    web = BenignProfile(name="web", sources=("host0",), dst="server0",
                        rate_pps=80.0, size=SizeDist(100, 900), tag="gold")
    junk = DdosProfile(name="junk", target="server0", tag="junk",
                       threat_kind=ThreatKind.UDP_FLOOD, attackers=("host1",))

    def fingerprint(with_attack):
        packets = run_profile(2024, 3.0, web, *([junk] if with_attack else []))
        return [(p.created_at, p.size) for p in packets if p.origin == "benign/web"]

    assert fingerprint(False) == fingerprint(True)


def test_zero_rate_emits_nothing(monkeypatch):
    profile = BenignProfile(name="mute", sources=("host0",), dst="server0",
                            rate_pps=0.0, size=SizeDist(100), tag="gold")
    opened = []

    class Counting(RngStream):
        def __init__(self, seed, name):
            opened.append(name)
            super().__init__(seed, name)

    monkeypatch.setattr(traffic, "RngStream", Counting)
    assert run_profile(1, 5.0, profile) == []
    assert opened == []  # no random stream opened either
    assert run_profile(1, 5.0, replace(profile, rate_pps=1.0))
    assert opened == ["benign/mute/host0"]


def test_streams_name_and_resolve_their_endpoints():
    web = BenignProfile(name="web", sources="all_hosts", dst="server0",
                        rate_pps=1.0, size=SizeDist(100), tag="gold")
    flood = DdosProfile(name="f", target="host1", threat_kind=ThreatKind.UDP_FLOOD,
                        tag="junk")
    listed = DdosProfile(name="g", target="server0", threat_kind=ThreatKind.UDP_FLOOD,
                         tag="junk", attackers=("host1", "host0"))
    # a repeated name would run two streams off one random stream
    with pytest.raises(ValueError, match="attackers"):
        replace(listed, attackers=("host1", "host0", "host1"))
    with pytest.raises(ValueError, match="sources"):
        replace(web, sources=("host0", "host0"))
    door = AccessProfile(name="door", sources=("host1",), dst="server0",
                         authorized_pps=1.0, unauthorized_pps=1.0, authorized_tag="gold")

    def names(profile):
        return [(s.name, s.src, s.dst) for s in profile.streams(STAR)]

    assert names(web) == [("benign/web/host0", 0, 3), ("benign/web/host1", 1, 3)]
    assert names(flood) == [("ddos/f/host0", 0, 1)]  # every host but the target
    assert names(listed) == [("ddos/g/host1", 1, 3), ("ddos/g/host0", 0, 3)]
    assert names(door) == [
        ("access/door/host1/authorized", 1, 3),
        ("access/door/host1/unauthorized", 1, 3),
    ]


def test_chunks_merge_the_streams_in_time_then_stream_order(monkeypatch):
    # 20k pps per stream puts many emissions of one stream, and of both, on
    # one microsecond; ranges on size and requests use every draw
    web = BenignProfile(name="web", sources="all_hosts", dst="server0",
                        rate_pps=20_000.0, size=SizeDist(100, 900), tag="gold",
                        request_fraction=0.5, response_size=300)
    streams = web.streams(STAR)
    horizon = seconds(0.25)

    def replay(stream):
        rng, cursor, out = RngStream(5, stream.name), 0.0, []
        while True:
            cursor += rng.exponential(stream.rate_pps)
            wall = seconds(cursor)
            if wall >= horizon:
                return out
            request = rng.uniform() < stream.request_fraction
            out.append((wall, stream.src, rng.uniform_int(100, 900), 300 if request else 0))

    want = sorted(replay(streams[0]) + replay(streams[1]), key=lambda x: (x[0], x[1]))
    assert len(want) > 2 * 4500 and len({w[0] for w in want}) < len(want)
    for chunk_us in (1, 1_000, 100_000, 10**9):
        monkeypatch.setattr(traffic, "CHUNK_US", chunk_us)
        chunks = list(offered_chunks(5, streams, horizon))
        ends = [end for end, _ in chunks]
        assert ends == [min(k * chunk_us, horizon) for k in range(1, len(chunks) + 1)]
        assert ends[-1] == horizon
        packets = []
        for (start, _), (end, items) in zip([(0, None), *chunks], chunks):
            assert all(start <= t < end and t == p.created_at for t, p in items)
            packets.extend(p for _, p in items)
        assert [p.id for p in packets] == list(range(len(want)))
        assert [(p.created_at, p.src, p.size, p.response_size) for p in packets] == want
