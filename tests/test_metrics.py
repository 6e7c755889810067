"""Formula suite: each ratio matches an independent re-computation, the
quadrature matches closed forms and a halving-step oracle, and the window
aggregation matches a naive single-pass scan over the same trace.
"""

import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnfsdnsim.metrics import (
    ROW_SUMS,
    AnalyticParams,
    KpiCounters,
    WindowAggregator,
    WindowRow,
    access_outcome_rate,
    check_hypothesis1,
    composite_simpson,
    exposure_ratio,
    kpi_rollup,
    reliability_ratio,
    secure_traffic_pct,
    security_integral,
    strength,
    threat_detection_rate,
    unauthorized_block_rate,
)
from vnfsdnsim.model import Packet, PacketClass, ThreatKind

SECOND = 1_000_000


# ----------------------------------------------------------------------
# tabulated ratio examples


def test_secure_traffic_pct_examples():
    assert secure_traffic_pct(KpiCounters(total_packets=200, blocked_packets=50)) == 75.0
    assert secure_traffic_pct(KpiCounters(total_packets=7, blocked_packets=0)) == 100.0
    assert secure_traffic_pct(KpiCounters(total_packets=9, blocked_packets=9)) == 0.0
    assert secure_traffic_pct(KpiCounters()) is None


def test_threat_detection_rate_examples():
    assert (
        threat_detection_rate(KpiCounters(threat_packets=40, blocked_threat_packets=30))
        == 0.75
    )
    assert (
        threat_detection_rate(KpiCounters(threat_packets=13, blocked_threat_packets=13))
        == 1.0
    )
    assert threat_detection_rate(KpiCounters(threat_packets=0)) is None


def test_unauthorized_block_rate_examples():
    assert (
        unauthorized_block_rate(
            KpiCounters(unauthorized_attempts=20, blocked_unauthorized=18)
        )
        == 0.9
    )
    assert (
        unauthorized_block_rate(
            KpiCounters(unauthorized_attempts=4, blocked_unauthorized=0)
        )
        == 0.0
    )
    assert unauthorized_block_rate(KpiCounters()) is None


def test_exposure_ratio_examples():
    assert exposure_ratio(KpiCounters(devices_total=100, devices_affected=10)) == 0.9
    assert exposure_ratio(KpiCounters(devices_total=5, devices_affected=0)) == 1.0
    assert exposure_ratio(KpiCounters(devices_total=6, devices_affected=6)) == 0.0
    assert exposure_ratio(KpiCounters()) is None


def test_access_outcome_rate_examples():
    assert access_outcome_rate(KpiCounters(access_attempts=50, failed_access=5)) == 0.9
    assert access_outcome_rate(KpiCounters(access_attempts=8, failed_access=0)) == 1.0
    assert access_outcome_rate(KpiCounters(access_attempts=8, failed_access=8)) == 0.0
    assert access_outcome_rate(KpiCounters()) is None


def test_reliability_ratio_examples():
    assert (
        reliability_ratio(
            KpiCounters(uptime_us=3600 * SECOND, downtime_us=36 * SECOND)
        )
        == 0.99
    )
    assert reliability_ratio(KpiCounters(uptime_us=10 * SECOND)) == 1.0
    assert (
        reliability_ratio(KpiCounters(uptime_us=7 * SECOND, downtime_us=7 * SECOND))
        == 0.0
    )
    assert reliability_ratio(KpiCounters()) is None


def test_ratios_match_independent_recomputation_on_random_counters():
    rng = random.Random(12345)
    for _ in range(100):
        total = rng.randint(1, 10**6)
        blocked = rng.randint(0, total)
        threat = rng.randint(1, total)
        bthreat = rng.randint(0, threat)
        attempts = rng.randint(1, 10**4)
        battempts = rng.randint(0, attempts)
        access = rng.randint(1, 10**4)
        failed = rng.randint(0, access)
        devices = rng.randint(1, 500)
        affected = rng.randint(0, devices)
        window = rng.randint(1, 10**9)
        down = rng.randint(0, window)
        c = KpiCounters(
            total_packets=total,
            blocked_packets=blocked,
            threat_packets=threat,
            blocked_threat_packets=bthreat,
            unauthorized_attempts=attempts,
            blocked_unauthorized=battempts,
            access_attempts=access,
            failed_access=failed,
            devices_total=devices,
            devices_affected=affected,
            uptime_us=window,
            downtime_us=down,
        )
        # Independent re-computation, deliberately written in a different
        # algebraic form: ratio = 1 - complement/denominator.
        assert abs(secure_traffic_pct(c) - (100.0 - blocked / total * 100.0)) < 1e-12
        assert abs(threat_detection_rate(c) - (1.0 - (threat - bthreat) / threat)) < 1e-12
        assert abs(
            unauthorized_block_rate(c) - (1.0 - (attempts - battempts) / attempts)
        ) < 1e-12
        assert abs(exposure_ratio(c) - (1.0 - affected / devices)) < 1e-12
        assert abs(access_outcome_rate(c) - (1.0 - failed / access)) < 1e-12
        assert abs(reliability_ratio(c) - (1.0 - down / window)) < 1e-12
        assert 0.0 <= secure_traffic_pct(c) <= 100.0
        for value in (
            threat_detection_rate(c),
            unauthorized_block_rate(c),
            exposure_ratio(c),
            access_outcome_rate(c),
            reliability_ratio(c),
        ):
            assert 0.0 <= value <= 1.0


@given(
    threat=st.integers(min_value=1, max_value=10**9),
    missed=st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=100, deadline=None)
def test_tdr_bounds_property(threat, missed):
    blocked = max(threat - missed, 0)
    c = KpiCounters(threat_packets=threat, blocked_threat_packets=blocked)
    value = threat_detection_rate(c)
    assert 0.0 <= value <= 1.0
    if missed == 0:
        assert value == 1.0


def test_counter_invariants_rejected():
    with pytest.raises(ValueError):
        KpiCounters(total_packets=5, blocked_packets=6).check()
    with pytest.raises(ValueError):
        KpiCounters(threat_packets=2, blocked_threat_packets=3).check()
    with pytest.raises(ValueError):
        KpiCounters(total_packets=-1).check()


def test_finalize_rejects_inconsistent_counters():
    agg = WindowAggregator(window_s=1.0, horizon_us=SECOND)
    p1 = _packet(1, 10)
    agg.feed(("emit", 10, p1))
    agg.feed(("deliver", 100, p1))
    agg.feed(("deliver", 200, _packet(2, 110)))  # never emitted
    with pytest.raises(ValueError, match="dispositions exceed emitted packets"):
        agg.finalize(devices_total=2)


# ----------------------------------------------------------------------
# analytic strength model


def test_strength_examples():
    assert strength(AnalyticParams(n=4, gamma_n=0.5, m=1.0), 0.0) == 2.0
    assert strength(AnalyticParams(n=1, gamma_n=0.0), 123.456) == 1.0
    # sin(m·√n·t) = 1 at t = π/(2·m·√n) with n=9, m=2 → √9 + 0.2
    t = math.pi / (2 * 2 * 3)
    assert abs(strength(AnalyticParams(n=9, gamma_n=0.2, m=2.0), t) - 3.2) < 1e-12


def test_params_reject_amplitude_at_or_above_baseline():
    with pytest.raises(ValueError):
        AnalyticParams(n=4, gamma_n=2.0)
    with pytest.raises(ValueError):
        AnalyticParams(n=1, gamma_n=1.0)
    with pytest.raises(ValueError):
        AnalyticParams(n=0)


def test_composite_simpson_exact_for_cubics():
    # Simpson integrates cubics exactly; ∫₀³ x² dx = 9, ∫₀² x³ dx = 4.
    assert abs(composite_simpson(lambda x: x * x, 0.0, 3.0, 2) - 9.0) < 1e-12
    assert abs(composite_simpson(lambda x: x**3, 0.0, 2.0, 2) - 4.0) < 1e-12
    with pytest.raises(ValueError):
        composite_simpson(lambda x: x, 0.0, 1.0, 3)
    with pytest.raises(ValueError):
        composite_simpson(lambda x: x, 0.0, 1.0, 0)


def test_security_integral_closed_forms():
    # With γ=0 the integrand is the constant √(√n): integral = a·T·n^¼.
    value = security_integral(AnalyticParams(n=16, a_n=1.0, gamma_n=0.0, horizon_s=1.0))
    assert abs(value - 2.0) <= 1e-8 * 2.0
    value = security_integral(AnalyticParams(n=1, a_n=1.0, gamma_n=0.0, horizon_s=5.0))
    assert abs(value - 5.0) <= 1e-8 * 5.0
    for n in (1, 4, 9, 16):
        value = security_integral(AnalyticParams(n=n, gamma_n=0.0, horizon_s=1.0))
        assert abs(value - n**0.25) <= 1e-8 * n**0.25


def _halving_oracle(p: AnalyticParams, rel_tol: float = 1e-9) -> float:
    """Step-halving quadrature, independent of the shipped interval count."""
    intervals = 64
    previous = composite_simpson(
        lambda t: p.a_n * math.sqrt(strength(p, t)), 0.0, p.horizon_s, intervals
    )
    while True:
        intervals *= 2
        current = composite_simpson(
            lambda t: p.a_n * math.sqrt(strength(p, t)), 0.0, p.horizon_s, intervals
        )
        if abs(current - previous) <= rel_tol * abs(current):
            return current
        previous = current


def test_security_integral_matches_halving_oracle():
    p = AnalyticParams(n=4, a_n=1.0, gamma_n=0.3, m=1.0, horizon_s=10.0)
    assert abs(security_integral(p) - _halving_oracle(p)) <= 1e-6


def test_check_hypothesis1_monotone_for_quiet_model():
    result = check_hypothesis1(AnalyticParams(n=1, gamma_n=0.0), [1, 4, 9, 16])
    assert result.increasing
    values = [v for _, v in result.rows]
    assert values == sorted(values)
    for (n, v) in result.rows:
        assert abs(v - n**0.25) <= 1e-8 * n**0.25


def test_check_hypothesis1_single_size_is_vacuously_true():
    result = check_hypothesis1(AnalyticParams(n=1, gamma_n=0.0), [1])
    assert result.increasing
    assert len(result.rows) == 1


def test_check_hypothesis1_matches_high_resolution_oracle():
    base = AnalyticParams(n=1, a_n=1.0, gamma_n=0.5, m=3.0, horizon_s=20.0)
    sizes = list(range(1, 17))
    result = check_hypothesis1(base, sizes)
    oracle_values = []
    for n in sizes:
        p = AnalyticParams(n=n, a_n=1.0, gamma_n=0.5, m=3.0, horizon_s=20.0)
        oracle_values.append(
            composite_simpson(
                lambda t: p.a_n * math.sqrt(strength(p, t)), 0.0, p.horizon_s, 100_000
            )
        )
    oracle_increasing = all(
        b > a for a, b in zip(oracle_values, oracle_values[1:])
    )
    assert result.increasing == oracle_increasing
    for (_, got), want in zip(result.rows, oracle_values):
        assert abs(got - want) <= 1e-6 * abs(want)


def test_check_hypothesis1_rejects_bad_size_lists():
    base = AnalyticParams(n=1, gamma_n=0.0)
    with pytest.raises(ValueError):
        check_hypothesis1(base, [])
    with pytest.raises(ValueError):
        check_hypothesis1(base, [2, 4])
    with pytest.raises(ValueError):
        check_hypothesis1(base, [1, 9, 4])
    with pytest.raises(ValueError):
        check_hypothesis1(base, [1, 4], gamma_scale="cubic")


def test_gamma_scale_sqrt_keeps_amplitude_proportional():
    base = AnalyticParams(n=1, gamma_n=0.1, m=1.0, horizon_s=20.0)
    assert check_hypothesis1(base, [1, 4, 9, 16], gamma_scale="sqrt").increasing


# ----------------------------------------------------------------------
# window aggregation vs a naive trace scan


def _packet(pid, created_at, cls=PacketClass.BENIGN, size=1000, origin="bench/a",
            src=0, rtt_anchor=None):
    """A packet to server 9; benign ones are measured."""
    return Packet(
        id=pid, src=src, dst=9, size=size, protocol="tcp", cls=cls, tag="tag",
        created_at=created_at,
        threat_kind=ThreatKind.SYN_FLOOD if cls is PacketClass.THREAT else None,
        origin=origin, measured=cls is PacketClass.BENIGN, rtt_anchor=rtt_anchor,
    )


def _trace_for_rollup():
    """Two windows of hand-checkable traffic plus degenerate third window."""
    t0 = 100_000
    p1 = _packet(1, t0)
    p2 = _packet(2, t0 + 10)
    p3 = _packet(3, t0 + 20, size=500)
    p4 = _packet(4, SECOND + t0, PacketClass.THREAT, 800, "ddos/x", src=1)
    p5 = _packet(5, SECOND + t0 + 100, PacketClass.UNAUTHORIZED_ACCESS, 200, "access/u", src=2)
    # packet 6 answers a request sent 10 ms before its delivery
    p6 = _packet(6, SECOND + t0 + 200, size=1500, rtt_anchor=SECOND + t0 - 4_800)
    trace = [
        # window 0: three benign sent, two delivered (1 ms / 3 ms), one qdrop
        ("emit", t0, p1),
        ("emit", t0 + 10, p2),
        ("emit", t0 + 20, p3),
        ("deliver", t0 + 1_000, p1),
        ("deliver", t0 + 3_010, p2),
        ("qdrop", t0 + 500, p3),
        ("cost", t0, 4_000),
        ("mem", t0, 80.0),
        # window 1: threat blocked, unauthorized blocked, benign delivered at 5 ms
        ("emit", SECOND + t0, p4),
        ("block", SECOND + t0 + 50, p4, "policy"),
        ("emit", SECOND + t0 + 100, p5),
        ("block", SECOND + t0 + 150, p5, "policy"),
        ("emit", SECOND + t0 + 200, p6),
        ("deliver", SECOND + t0 + 5_200, p6),
        ("detect", SECOND + t0 + 60, (1, 9, "bad"), 2_000),
        ("mem", SECOND + t0, 90.0),
    ]
    return trace


def test_kpi_rollup_matches_naive_scan():
    trace = _trace_for_rollup()
    report = kpi_rollup(trace, window_s=1.0, devices_total=12)

    # Naive independent scan.
    sent0 = sum(1 for r in trace if r[0] == "emit" and r[2].measured and r[1] < SECOND)
    del0 = [r for r in trace if r[0] == "deliver" and r[1] < SECOND]
    assert report.windows[0].sent_benign == sent0 == 3
    assert report.windows[0].delivered_benign == len(del0) == 2
    assert report.windows[0].benign_queue_drops == 1
    # window 0 latency: mean(1 ms, 3 ms) = 2 ms; jitter needs ≥2 windows.
    assert report.windows[0].mean_latency_ms == pytest.approx(2.0)
    assert report.windows[1].mean_latency_ms == pytest.approx(5.0)
    # throughput of window 0: 2000 bytes · 8 / 1 s = 0.016 Mbps
    assert report.windows[0].throughput_mbps == pytest.approx(0.016)
    # availability: 2/3 in window 0, 1/1 in window 1
    assert report.windows[0].availability_pct == pytest.approx(200 / 3)
    assert report.windows[1].availability_pct == pytest.approx(100.0)
    # run-level jitter = |5 - 2| = 3 ms (one consecutive pair)
    assert report.jitter_ms == pytest.approx(3.0)
    # counters
    c = report.counters
    assert c.total_packets == 6
    assert c.delivered_packets == 3
    assert c.blocked_packets == 2
    assert c.queue_dropped == 1
    assert c.threat_packets == c.blocked_threat_packets == 1
    assert c.unauthorized_attempts == c.blocked_unauthorized == 1
    assert c.access_attempts == c.failed_access == 1
    # ratios against direct formulas
    assert report.tdr == 1.0
    assert report.ubr == 1.0
    assert report.secure_traffic_pct == pytest.approx((6 - 2) / 6 * 100)
    assert report.access_outcome == 0.0
    # detection + rtt
    assert report.detection_time_ms == pytest.approx(2.0)
    assert report.mean_rtt_ms == pytest.approx(10.0)
    assert report.response_time_ms == pytest.approx(12.0)
    # memory: mean of 80/90 over observed windows, max 90
    assert report.memory_mb_max == pytest.approx(90.0)
    assert report.memory_mb_mean == pytest.approx(85.0)
    # cpu: 4000 µs busy in window 0 → 0.4% of that window, 0 in window 1
    assert report.windows[0].cpu_pct == pytest.approx(0.4)
    assert report.benign_loss_total == 1  # one queue drop, no benign blocks


def test_rollup_degenerate_windows_are_excluded_not_zeroed():
    pkt = _packet(1, 10, size=100)
    trace = [("emit", 10, pkt), ("deliver", 1_010, pkt)]
    report = kpi_rollup(trace, window_s=1.0, duration_us=3 * SECOND)
    assert len(report.windows) == 3
    assert report.windows[1].availability_pct is None
    assert report.windows[2].availability_pct is None
    assert report.availability_pct == pytest.approx(100.0)
    # no threats / attempts / devices → undefined, never coerced to 0 or 1
    assert report.tdr is None
    assert report.ubr is None
    assert report.exposure is None
    assert report.access_outcome is None


def test_rollup_throughput_definitional_case():
    # 250 Mbit delivered within one 1-s window → 250 Mbps.
    packets = [_packet(i, 0, size=6_250) for i in range(5_000)]  # 5000 · 6250 B · 8 = 250 Mbit
    trace = [("emit", 0, p) for p in packets] + [("deliver", 999_999, p) for p in packets]
    report = kpi_rollup(trace, window_s=1.0, duration_us=SECOND)
    assert report.windows[0].throughput_mbps == pytest.approx(250.0)


def test_rollup_empty_trace_rejected():
    from vnfsdnsim.metrics import EmptyTrace

    with pytest.raises(EmptyTrace):
        kpi_rollup([], window_s=1.0)


def test_aggregator_window_means_count_each_delivery_once():
    # Measured deliveries carry the latency, unmeasured responses the round
    # trip; each mean divides its own sum by its own count.
    t0 = 100_000
    measured = [_packet(1, t0), _packet(2, t0), _packet(3, t0), _packet(4, SECOND + t0)]
    responses = [
        replace(_packet(5, t0, rtt_anchor=t0), measured=False),
        replace(_packet(6, t0, rtt_anchor=t0), measured=False),
        replace(_packet(7, SECOND + t0, rtt_anchor=SECOND + t0 - 3_000), measured=False),
    ]
    agg = WindowAggregator(window_s=1.0, horizon_us=3 * SECOND)
    for p in measured + responses:
        agg.feed(("emit", p.created_at, p))
    for p, delivered_at in zip(
        measured + responses,
        (t0 + 1_000, t0 + 2_000, t0 + 6_000, SECOND + t0 + 4_000,
         t0 + 10_000, t0 + 14_000, SECOND + t0 + 4_000),
    ):
        agg.feed(("deliver", delivered_at, p))
    report = agg.finalize(devices_total=1)
    w0, w1, w2 = report.windows
    assert w0.mean_latency_ms == pytest.approx(3.0)  # (1 + 2 + 6) / 3
    assert w0.mean_rtt_ms == pytest.approx(12.0)  # (10 + 14) / 2
    assert w1.mean_latency_ms == pytest.approx(4.0)
    assert w1.mean_rtt_ms == pytest.approx(7.0)
    assert w2.mean_latency_ms is None and w2.mean_rtt_ms is None
    assert report.mean_latency_ms == pytest.approx(13 / 4)
    assert report.mean_rtt_ms == pytest.approx(31 / 3)


def test_a_partial_last_window_of_downtime_counts_its_own_length():
    # 1.5 s with 1 s windows: the last window is half a second long and down
    up, down = _packet(1, 10), _packet(2, SECOND + 10)
    trace = [("emit", 10, up), ("deliver", 1_010, up), ("emit", SECOND + 10, down)]
    report = kpi_rollup(trace, window_s=1.0, duration_us=SECOND + SECOND // 2)
    assert [w.availability_pct for w in report.windows] == [100.0, 0.0]
    assert report.counters.downtime_us == SECOND // 2
    assert report.reliability == pytest.approx(2 / 3)


def test_a_partial_last_window_reports_its_rates_over_its_own_length():
    # 1.5 s with 1 s windows: 10,000 bits delivered and 5,000 us spent in
    # the last half second are 0.02 Mbps and 1 % of that half second
    p = _packet(1, SECOND + 10, size=1250)
    trace = [("emit", SECOND + 10, p), ("deliver", SECOND + 1_010, p),
             ("cost", SECOND + 1_010, 5_000)]
    report = kpi_rollup(trace, window_s=1.0, duration_us=SECOND + SECOND // 2)
    first, last = report.windows
    assert (first.throughput_mbps, first.cpu_pct) == (0.0, 0.0)
    assert (last.throughput_mbps, last.cpu_pct) == (0.02, 1.0)
    # the run's rates are the same formulas over the 1.5 s horizon
    assert report.throughput_mbps == pytest.approx(10_000 / 1.5 / 1e6)
    assert report.cpu_pct == pytest.approx(5_000 / 1.5e6 * 100.0)


def test_a_run_one_window_long_reports_that_windows_rates():
    t0 = 100_000
    measured = [_packet(1, t0), _packet(2, t0 + 10, size=500)]
    response = replace(_packet(3, t0, rtt_anchor=t0 - 7_000), measured=False)
    trace = [("emit", t0, p) for p in (*measured, response)]
    trace += [("deliver", t0 + 1_000, measured[0]), ("deliver", t0 + 3_010, measured[1]),
              ("deliver", t0 + 5_000, response), ("cost", t0 + 1_000, 40_000)]
    report = kpi_rollup(trace, window_s=1.0, duration_us=SECOND)
    (window,) = report.windows
    rates = ("mean_latency_ms", "mean_rtt_ms", "throughput_mbps", "cpu_pct")
    assert [getattr(report, f) for f in rates] == [getattr(window, f) for f in rates]
    assert [getattr(report, f) for f in rates] == pytest.approx([2.0, 12.0, 0.012, 4.0])


def test_every_field_a_fold_adds_to_is_a_row_sum():
    # One record of every kind for a measured packet, a threat and an
    # unauthorised attempt.  A field missing from ROW_SUMS would be left
    # out of the run total and of ``add``.
    benign = _packet(1, 10, rtt_anchor=5)
    threat = _packet(2, 10, PacketClass.THREAT, 800, "ddos/x", src=1)
    probe = _packet(3, 10, PacketClass.UNAUTHORIZED_ACCESS, 200, "access/u", src=2)
    agg = WindowAggregator(1.0, horizon_us=SECOND)
    for p in (benign, threat, probe):
        for rec in (("emit", 10, p), ("deliver", 20, p), ("qdrop", 30, p),
                    ("block", 40, p, "policy")):
            agg.feed(rec)
    for rec in (("cost", 50, 7), ("mem", 60, 64.5), ("detect", 70, "1->9/tcp", 60),
                ("rule_install", 80, 1, 9, "tcp", "ids")):
        agg.feed(rec)
    row, fresh = agg._row(0), WindowRow(0, 0.0)
    changed = {f.name for f in fields(WindowRow) if getattr(row, f.name) != getattr(fresh, f.name)}
    assert changed - {"mem_mb"} == set(ROW_SUMS)


def test_adding_a_fold_equals_folding_its_records():
    # Records folded once for several runs, the emit and qdrop records of
    # shared uplinks, are added to each run's own fold; the sum must equal
    # folding those records directly, in both windows
    records = []
    for t in (10, SECOND + 10):
        measured = _packet(t, t)
        unmeasured = replace(_packet(t + 1, t, size=300), measured=False)
        threat = _packet(t + 2, t, PacketClass.THREAT, 800, "ddos/x", src=1)
        probe = _packet(t + 3, t, PacketClass.UNAUTHORIZED_ACCESS, 200, "access/u", src=2)
        scan = _packet(t + 4, t, PacketClass.UNAUTHORIZED_ACCESS, 100, "scan/u", src=3)
        records += [("emit", t, p) for p in (measured, unmeasured, threat, probe, scan)]
        records += [("qdrop", t + 5, p) for p in (measured, threat)]
    mine = _packet(99, 20)
    own = [("emit", 20, mine), ("deliver", 30, mine), ("block", SECOND + 20, probe, "policy")]

    direct, scratch, added = (WindowAggregator(1.0, horizon_us=2 * SECOND) for _ in range(3))
    for rec in own + records:
        direct.feed(rec)
    for rec in records:
        scratch.feed(rec)
    for rec in own:
        added.feed(rec)
    added.add(scratch)
    want = direct.finalize(devices_total=4)
    assert added.finalize(devices_total=4) == want
    c = want.counters
    assert (c.total_packets, c.queue_dropped, c.access_attempts) == (11, 4, 2)
    assert (c.threat_packets, c.unauthorized_attempts, c.blocked_unauthorized) == (2, 4, 1)
    assert [(w.sent_benign, w.benign_queue_drops) for w in want.windows] == [(2, 1), (1, 1)]
    assert want.windows[1].monitored_weighted_bytes == 1000 + 300 + 2 * (800 + 200 + 100)


def test_aggregator_availability_capped_at_100():
    agg = WindowAggregator(window_s=1.0, horizon_us=2 * SECOND)
    # a packet emitted in window 0 but delivered in window 1 can push the
    # per-window delivered count above the sent count
    p1, p2, p3 = _packet(1, 10), _packet(2, 20), _packet(3, SECOND + 10)
    agg.feed(("emit", 10, p1))
    agg.feed(("emit", 20, p2))
    agg.feed(("deliver", 100, p1))
    agg.feed(("emit", SECOND + 10, p3))
    agg.feed(("deliver", SECOND + 20, p2))
    agg.feed(("deliver", SECOND + 30, p3))
    report = agg.finalize(devices_total=2)
    assert report.windows[1].availability_pct == 100.0
    assert all(
        w.availability_pct is None or 0 <= w.availability_pct <= 100
        for w in report.windows
    )
