"""End-to-end acceptance: one test per deliverable property of the
package, each finishing with a single printed pass line (visible with
``pytest -s``; the test name itself is the pass/fail line under ``-v``).

The expensive scenario runs are shared through module-scoped fixtures:
the flash-crowd study runs exactly twice (that pair also feeds the
determinism comparison), the DDoS-mitigation and junk-traffic studies
once each.
"""

import json
import random
import time

import pytest

from vnfsdnsim.config import default_config, from_dict
from vnfsdnsim.engine import EventKind, RngStream, SimEngine
from vnfsdnsim.metrics import (
    KpiCounters,
    access_outcome_rate,
    exposure_ratio,
    reliability_ratio,
    secure_traffic_pct,
    threat_detection_rate,
    unauthorized_block_rate,
)
from vnfsdnsim.model import (
    Packet,
    PacketClass,
    StarSpec,
    ThreatKind,
    build_topology,
)
from vnfsdnsim.runtime import NetworkSim
from vnfsdnsim.scenarios import (
    capture_dump,
    emit_results,
    run_scenario,
    verify_hypothesis1,
)
from vnfsdnsim.sdn import Controller, ControllerSettings
from vnfsdnsim.vnf import (
    BlockReason,
    CaptureVnf,
    IdsSettings,
    IdsVnf,
    Verdict,
    VnfChain,
    block,
)


def stamp(name: str, detail: str) -> None:
    print(f"[pass] {name}: {detail}")


# ----------------------------------------------------------------------
# shared scenario runs


@pytest.fixture(scope="module")
def flash_crowd_pair(tmp_path_factory):
    """The flash-crowd study executed twice, each emitted to its own dir."""
    cfg = from_dict(default_config(1))
    outs, results, elapsed = [], [], []
    for i in (1, 2):
        out = tmp_path_factory.mktemp(f"flash_crowd_{i}")
        t0 = time.monotonic()
        result = run_scenario(1, cfg, out_dir=out)
        emit_results(result, out)
        elapsed.append(time.monotonic() - t0)
        outs.append(out)
        results.append(result)
    return outs, results, elapsed


@pytest.fixture(scope="module")
def ddos_mitigation_study():
    t0 = time.monotonic()
    result = run_scenario(5, from_dict(default_config(5)))
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def junk_traffic_study():
    t0 = time.monotonic()
    result = run_scenario(4, from_dict(default_config(4)))
    return result, time.monotonic() - t0


# ----------------------------------------------------------------------


def test_formula_suite_against_independent_recomputation():
    t0 = time.monotonic()
    # tabulated examples, exact
    tabulated = [
        (secure_traffic_pct, dict(total_packets=200, blocked_packets=50), 75.0),
        (secure_traffic_pct, dict(total_packets=100, blocked_packets=0), 100.0),
        (secure_traffic_pct, dict(total_packets=8, blocked_packets=2), 75.0),
        (threat_detection_rate, dict(threat_packets=5, blocked_threat_packets=4), 0.8),
        (threat_detection_rate, dict(threat_packets=3, blocked_threat_packets=0), 0.0),
        (threat_detection_rate, dict(threat_packets=7, blocked_threat_packets=7), 1.0),
        (unauthorized_block_rate, dict(unauthorized_attempts=4, blocked_unauthorized=3), 0.75),
        (unauthorized_block_rate, dict(unauthorized_attempts=8, blocked_unauthorized=1), 0.125),
        (unauthorized_block_rate, dict(unauthorized_attempts=5, blocked_unauthorized=5), 1.0),
        (exposure_ratio, dict(devices_total=10, devices_affected=4), 0.6),
        (exposure_ratio, dict(devices_total=5, devices_affected=0), 1.0),
        (exposure_ratio, dict(devices_total=4, devices_affected=3), 0.25),
        (access_outcome_rate, dict(access_attempts=20, failed_access=5), 0.75),
        (access_outcome_rate, dict(access_attempts=10, failed_access=0), 1.0),
        (access_outcome_rate, dict(access_attempts=16, failed_access=4), 0.75),
        (reliability_ratio, dict(uptime_us=1_000_000, downtime_us=250_000), 0.75),
        (reliability_ratio, dict(uptime_us=500_000, downtime_us=0), 1.0),
        (reliability_ratio, dict(uptime_us=800_000, downtime_us=200_000), 0.75),
    ]
    for fn, fields, expected in tabulated:
        assert fn(KpiCounters(**fields)) == expected, fn.__name__

    # randomized counter sets against differently-written forms
    rng = random.Random(4224)
    for _ in range(100):
        total = rng.randint(1, 10_000)
        threats = rng.randint(1, total)
        attempts = rng.randint(1, 500)
        accesses = rng.randint(1, 500)
        devices = rng.randint(1, 64)
        uptime = rng.randint(1, 10**9)
        c = KpiCounters(
            total_packets=total,
            blocked_packets=rng.randint(0, total),
            threat_packets=threats,
            blocked_threat_packets=rng.randint(0, threats),
            unauthorized_attempts=attempts,
            blocked_unauthorized=rng.randint(0, attempts),
            access_attempts=accesses,
            failed_access=rng.randint(0, accesses),
            devices_total=devices,
            devices_affected=rng.randint(0, devices),
            uptime_us=uptime,
            downtime_us=rng.randint(0, uptime),
        )
        c.check()
        pairs = [
            (secure_traffic_pct(c), 100.0 - c.blocked_packets / c.total_packets * 100.0),
            (threat_detection_rate(c),
             1.0 - (c.threat_packets - c.blocked_threat_packets) / c.threat_packets),
            (unauthorized_block_rate(c),
             1.0 - (c.unauthorized_attempts - c.blocked_unauthorized)
             / c.unauthorized_attempts),
            (exposure_ratio(c), 1.0 - c.devices_affected / c.devices_total),
            (access_outcome_rate(c), 1.0 - c.failed_access / c.access_attempts),
            (reliability_ratio(c), 1.0 - c.downtime_us / c.uptime_us),
        ]
        for got, independent in pairs:
            assert abs(got - independent) <= 1e-12
            assert 0.0 <= got <= 100.0

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    stamp("formula suite", f"18 tabulated + 600 randomized comparisons in {elapsed:.2f}s")


def test_security_strength_rises_with_network_size():
    t0 = time.monotonic()
    flat = verify_hypothesis1(16)
    assert [n for n, _ in flat.rows] == [1, 4, 9, 16]
    for n, integral in flat.rows:
        assert integral == pytest.approx(n ** 0.25, rel=1e-8)
    assert flat.increasing

    wavy = verify_hypothesis1(16, gamma=0.1, m=1.0, horizon_s=20.0, gamma_scale="sqrt")
    assert wavy.increasing
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    stamp("size scaling", f"flat integrals = n^1/4, oscillating verdict true "
                          f"({elapsed:.2f}s)")


def test_identical_reruns_are_byte_identical(flash_crowd_pair):
    outs, results, elapsed = flash_crowd_pair
    assert results[0].config_digest == results[1].config_digest
    assert results[0].digest() == results[1].digest()

    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    compared = 0
    for rel in files_a:
        a, b = (outs[0] / rel).read_bytes(), (outs[1] / rel).read_bytes()
        if rel.suffix == ".ndrec":
            # the result-record header carries the only wall-clock field
            lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
            assert len(lines_a) == len(lines_b)
            for la, lb in zip(lines_a, lines_b):
                if la == lb:
                    continue
                oa, ob = json.loads(la), json.loads(lb)
                oa.pop("generated_unix_ms", None)
                ob.pop("generated_unix_ms", None)
                assert oa == ob, rel
        else:
            assert a == b, rel
        compared += 1
    total = sum(elapsed)
    assert total < 120.0
    stamp("determinism", f"{compared} files identical across reruns "
                         f"({total:.1f}s for both runs)")


def test_exact_policy_yields_perfect_rates(ddos_mitigation_study):
    result, _ = ddos_mitigation_study
    guarded = result.row("vnfsdn").result.report
    open_net = result.row("no_security").result.report
    assert guarded.tdr == 1.0
    assert guarded.ubr == 1.0
    assert open_net.counters.threat_packets >= 1
    assert open_net.tdr == 0.0
    stamp("perfect filter", f"tdr=ubr=1.0 guarded over "
                            f"{guarded.counters.threat_packets} threats; "
                            f"tdr=0.0 open over "
                            f"{open_net.counters.threat_packets}")


def test_flash_crowd_calibration(flash_crowd_pair):
    _, results, elapsed = flash_crowd_pair
    checks = {c.name: c for c in results[0].checks}
    expected_names = {
        "s1_benign_loss_no_security",
        "s1_benign_loss_vnfsdn",
        "s1_benign_loss_vnfsdn_firewall",
        "s1_availability_min_no_security",
        "s1_availability_peak_vnfsdn_firewall",
    }
    assert set(checks) == expected_names
    for name in expected_names:
        check = checks[name]
        assert check.normative and check.passed, (
            f"{name}: measured {check.measured:.3f}, "
            f"expected {check.expected:.3f} +/- {check.tolerance:.3f} "
            f"({check.comparator})"
        )
    assert elapsed[0] < 60.0
    losses = {n: checks[f"s1_benign_loss_{n}"].measured
              for n in ("no_security", "vnfsdn", "vnfsdn_firewall")}
    stamp("flash-crowd calibration",
          f"losses {losses['no_security']:.0f}/{losses['vnfsdn']:.0f}/"
          f"{losses['vnfsdn_firewall']:.0f}, "
          f"avail min {checks['s1_availability_min_no_security'].measured:.2f}%, "
          f"peak {checks['s1_availability_peak_vnfsdn_firewall'].measured:.2f}% "
          f"({elapsed[0]:.1f}s)")


def test_mitigation_improvement_claims(ddos_mitigation_study):
    result, _ = ddos_mitigation_study
    checks = {c.name: c for c in result.checks}
    for name, floor in (
        ("s5_response_reduction_pct", 40.0),
        ("s5_benign_loss_reduction_pct", 70.0),
        ("s5_availability_gain_pp", 3.0),
    ):
        check = checks[name]
        assert check.normative and check.passed
        assert check.measured >= floor
    stamp("mitigation deltas",
          f"response -{checks['s5_response_reduction_pct'].measured:.1f}%, "
          f"benign loss -{checks['s5_benign_loss_reduction_pct'].measured:.1f}%, "
          f"availability +{checks['s5_availability_gain_pp'].measured:.2f}pp")


def test_junk_traffic_calibration(junk_traffic_study):
    result, elapsed = junk_traffic_study
    checks = {c.name: c for c in result.checks}
    normative = {
        "s4_latency_ms_no_security",
        "s4_latency_ms_vnfsdn",
        "s4_jitter_ms_no_security",
        "s4_jitter_ms_vnfsdn",
        "s4_throughput_mbps_no_security",
        "s4_throughput_mbps_vnfsdn",
    }
    assert normative | {"s4_lab_throughput_mbps"} == set(checks)
    for name in normative:
        check = checks[name]
        assert check.normative and check.passed, (
            f"{name}: measured {check.measured:.3f}, "
            f"expected {check.expected:.3f} +/- {check.tolerance:.3f}"
        )
    # the hardware-testbed peak is represented but does not bind
    lab = checks["s4_lab_throughput_mbps"]
    assert not lab.normative and not lab.passed and lab.note
    assert elapsed < 60.0
    stamp("junk-traffic calibration",
          f"latency {checks['s4_latency_ms_no_security'].measured:.1f}->"
          f"{checks['s4_latency_ms_vnfsdn'].measured:.1f}ms, "
          f"jitter {checks['s4_jitter_ms_no_security'].measured:.1f}->"
          f"{checks['s4_jitter_ms_vnfsdn'].measured:.1f}ms, "
          f"throughput {checks['s4_throughput_mbps_no_security'].measured:.0f}->"
          f"{checks['s4_throughput_mbps_vnfsdn'].measured:.0f}Mbps ({elapsed:.1f}s)")


def test_capture_round_trip_at_volume(tmp_path):
    t0 = time.monotonic()
    n = 10_000
    cap = CaptureVnf(tmp_path, run_seed=33)
    rng = RngStream(33, "capture-fuzz")
    classes = (PacketClass.BENIGN, PacketClass.THREAT, PacketClass.UNAUTHORIZED_ACCESS)
    reasons = tuple(BlockReason)
    expected = []
    for i in range(n):
        cls = classes[i % 3]
        pkt = Packet(
            id=i,
            src=rng.uniform_int(0, 9),
            dst=rng.uniform_int(10, 12),
            size=rng.uniform_int(64, 9000),
            protocol=("tcp", "udp", "synflood")[i % 3],
            cls=cls,
            tag=f"tag{i % 7}",
            created_at=i,
            threat_kind=ThreatKind.SYN_FLOOD if cls is PacketClass.THREAT else None,
        )
        verdict = Verdict(True) if i % 2 else block(reasons[i % len(reasons)])
        record = cap.capture(pkt, verdict, now_us=i * 3)
        expected.append(record.as_object())
    assert len(cap.buffer) == n
    path = cap.stop_and_save()

    listing = capture_dump(path)  # validates format and version
    assert listing.rstrip().endswith(f"{n} records")

    lines = path.read_text().splitlines()
    assert len(lines) == n + 1
    reparsed = [json.loads(line) for line in lines[1:]]
    assert reparsed == expected  # zero diffs, field for field
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    stamp("capture round trip", f"{n} packets, zero diffs ({elapsed:.2f}s)")


def test_rule_blackholing():
    # --- a blocked flow delivers nothing while its rule lives, and
    #     delivery resumes once the rule idles out
    topology = build_topology(StarSpec(hosts=2))
    engine = SimEngine(5)
    controller = Controller(topology, ControllerSettings(drop_idle_timeout_s=0.2))
    ids = IdsVnf(IdsSettings(anomaly_window_s=1.0, anomaly_threshold_pps=2.0))
    sim = NetworkSim(topology, engine, controller, VnfChain([ids]), collect_trace=True)
    send_times_ms = (0, 100, 200, 350, 500, 650, 1500)
    for i, t_ms in enumerate(send_times_ms):
        def fire(now, _p, pid=i):
            sim.inject(now, Packet(id=pid, src=0, dst=3, size=1000, protocol="tcp",
                              cls=PacketClass.BENIGN, tag="chatty", created_at=now))
        engine.schedule(t_ms * 1000, EventKind.MONITOR_SAMPLE, fire)
    sim.run(2.0)
    trace = sim.trace
    delivered = [r for r in trace if r[0] == "deliver"]
    blocked = [r for r in trace if r[0] == "block"]
    # burst packets 0 and 1 pass, 2 trips the rate check; 3..5 die on the
    # rule; the rule idles out; packet 6 passes the (now calm) chain
    assert [r[2].id for r in delivered] == [0, 1, 6]
    assert [(r[2].id, r[3]) for r in blocked] == [
        (2, "block:ids_anomaly"),
        (3, "ids_anomaly"),
        (4, "ids_anomaly"),
        (5, "ids_anomaly"),
    ]
    # the rule last matched packet 5 and lapsed 200 ms later, before packet 6
    # reached the switch at 1_500_308
    (rule,) = controller._rules.values()
    lapsed_at = rule.last_match + 200_001
    assert rule.last_match == blocked[-1][1] and lapsed_at < 1_500_308
    assert not rule.active(lapsed_at) and rule.active(lapsed_at - 1)
    stamp("blackholing",
          f"blocked flow resumed only after its rule lapsed at t={lapsed_at}us")
