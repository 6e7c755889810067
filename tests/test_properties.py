"""Properties of every run over random small star configurations.

Each example is a config tree read by ``from_dict``: 1-6 hosts, 1-2
servers, 1-3 simulated seconds, random link capacities (one host's access
link may differ from the rest), benign, DDoS and access profiles with
random rates, and two or more security labels.  Every cell must pass the
runtime's packet-conservation check, its collected trace must roll up to
the live report, and every label must be offered the same packets.  A
rerun of a cell must repeat it exactly, and a scenario's emitted files
must read back to the result they were written from.
"""

import tempfile
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vnfsdnsim import scenarios
from vnfsdnsim.config import KNOWN_LABELS, from_dict
from vnfsdnsim.engine import seconds
from vnfsdnsim.metrics import kpi_rollup
from vnfsdnsim.model import ThreatKind
from vnfsdnsim.runtime import NetworkSim
from vnfsdnsim.scenarios import _result_object, emit_results, load_results

# profile-q runs the benign-first queues
LABELS = (*KNOWN_LABELS, "profile-p", "profile-q")


@st.composite
def star_configs(draw):
    hosts = draw(st.integers(1, 6))
    host_names = [f"host{i}" for i in range(hosts)]
    servers = draw(st.integers(1, 2))
    server_names = [f"server{j}" for j in range(servers)]
    rate = partial(st.floats, allow_nan=False, allow_infinity=False)
    rate_or_off = st.one_of(st.just(0.0), rate(min_value=1e-6, max_value=20))
    duration = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    start = st.sampled_from([0.0, 0.25 * duration, 0.5 * duration])
    size = st.fixed_dictionaries({"lo": st.integers(64, 800), "hi": st.integers(800, 1500)})

    def benign(i):
        dst = draw(st.sampled_from([*server_names, *host_names]))
        return {
            "name": f"b{i}", "dst": dst,
            "sources": "all_hosts" if dst in server_names else ["server0"],
            "rate_pps": draw(rate(min_value=1, max_value=150)), "size": draw(size),
            "tag": draw(st.sampled_from(["gold", "silver"])),
            "request_fraction": draw(st.sampled_from([0.0, 0.2, 1.0])),
            "response_size": draw(st.sampled_from([0, 300])),
            "window": {"start_s": draw(start)},
        }

    ddos = [{
        "name": "d", "target": draw(st.sampled_from([*server_names, *host_names])),
        "threat_kind": draw(st.sampled_from([k.value for k in ThreatKind])),
        "tag": "flood", "rate_multiplier": draw(rate(min_value=1, max_value=20)),
        "window": {"start_s": draw(start), "stop_s": duration},
    } for _ in range(draw(st.integers(0, 1)))]
    access = [{
        "name": "a", "sources": "all_hosts", "dst": "server0", "authorized_tag": "gold",
        "authorized_pps": draw(rate_or_off), "unauthorized_pps": draw(rate_or_off),
    } for _ in range(draw(st.integers(0, 1)))]
    return {
        "scenario": 1,
        "seed": draw(st.integers(0, 2**16)),
        "duration_s": duration,
        "window_s": draw(st.sampled_from([0.25, 0.5, 1.0])),
        "monitor_interval_s": 0.5,
        "topology": {"hosts": hosts, "servers": servers, "trunk": {
            "latency_us": 800,
            "bandwidth_bps": draw(st.sampled_from([1_000_000, 1_000_000_000])),
            "queue_capacity": draw(st.integers(2, 16)),
        }, "per_host_access": draw(st.dictionaries(
            st.sampled_from([str(i) for i in range(hosts)]),
            st.fixed_dictionaries({
                "latency_us": st.just(300),
                "bandwidth_bps": st.sampled_from([1_000_000, 10_000_000]),
                "queue_capacity": st.integers(2, 16),
            }),
            max_size=1,
        ))},
        "policy": {"accepted_tags": ["gold"]},
        "controller": {"drop_idle_timeout_s": draw(st.sampled_from([0.05, 30.0]))},
        "security": {
            "configs": draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=3,
                                     unique=True)),
            "firewall_rules": [{"action": "deny", "protocol": "synflood"}],
            "ids": {"signatures": ["syn_flood"], "anomaly_threshold_pps": 50.0},
            "profiles": {
                "p": {"detection_probability": 0.9},
                "q": {"detection_probability": draw(st.sampled_from([0.0, 0.9])),
                      "prioritize_benign": True},
            },
            "capture": False,
        },
        "traffic": {"benign": [benign(i) for i in range(draw(st.integers(1, 2)))],
                    "ddos": ddos, "access": access},
    }


def offered(trace):
    """The emit records of the offered packets, responses excluded, by packet
    id: a FIFO cell's trace takes the records of its shared uplinks a slice
    at a time, ahead of its own."""
    emits = [
        (p.id, (t, p.src, p.dst, p.size, p.cls, p.tag, p.origin))
        for kind, t, p, *_ in trace
        if kind == "emit" and not p.origin.startswith("response/")
    ]
    return [fields for _, fields in sorted(emits)]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(star_configs())
def test_every_cell_conserves_packets_rolls_up_and_sees_the_same_offer(tree):
    cfg = from_dict(tree)
    devices = cfg.topology.hosts + cfg.topology.servers
    offers = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "NetworkSim", partial(NetworkSim, collect_trace=True))
        for label in cfg.security.configs:
            # the run raises unless every packet in flight is held somewhere
            result = scenarios.run_one(cfg, label)
            assert result.report.counters.in_flight() >= 0
            rollup = kpi_rollup(result.trace, cfg.window_s, duration_us=seconds(cfg.duration_s),
                                devices_total=devices, memory_base_mb=cfg.memory_base_mb)
            assert rollup == result.report, label
            offers[label] = offered(result.trace)
    first, *others = offers.values()
    assert all(offer == first for offer in others)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(star_configs())
def test_every_cell_reruns_alike_and_its_files_read_back(tree):
    cfg = from_dict(tree)
    result = scenarios.run_scenario(1, cfg)
    first = result.rows[0]
    again = scenarios.run_one(cfg, first.label)
    assert (again.report, again.event_hash, again.events_processed) == (
        first.result.report, first.result.event_hash, first.result.events_processed)
    with tempfile.TemporaryDirectory() as out:
        emit_results(result, out)
        (loaded,) = load_results(out)
    # the CSV files carry every summary and window column but the digest
    want, got = _result_object(result), _result_object(loaded)
    assert got.pop("config_digest") == ""
    want.pop("config_digest")
    assert got == want
