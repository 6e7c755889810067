"""Configuration handling, result files round-tripping, calibration-target
plumbing, capture-file validation, and the CLI exit-code contract.

Scenario runs in this module use a shrunk variant of the first study
(3 hosts, 4 simulated seconds, two security configs) so the whole module
stays fast; full-length calibration is exercised by the acceptance tests.
"""

import dataclasses
import hashlib
import json
import re
import typing
from pathlib import Path

import pytest

from vnfsdnsim.cli import main
from vnfsdnsim.config import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    canonical_json,
    default_config,
    from_dict,
    load_tree,
)
from vnfsdnsim.metrics import Hypothesis1Result
from vnfsdnsim.model import PacketClass
from vnfsdnsim.scenarios import (
    BadFormat,
    CalibrationTargets,
    ConfigMismatch,
    MissingMetric,
    TargetSpec,
    UnsupportedVersion,
    _result_object,
    capture_dump,
    emit_results,
    hypothesis1_sizes,
    load_results,
    run_one,
    run_scenario,
    verify_hypothesis1,
)
from vnfsdnsim.vnf import CaptureVnf, Verdict

SHRINK = [
    "duration_s=4.0",
    "topology.hosts=3",
    'security.configs=["no_security","vnfsdn"]',
]


def shrunk_config():
    return from_dict(apply_overrides(default_config(1), SHRINK))


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """One shrunk scenario run, emitted to disk, shared by the module."""
    out = tmp_path_factory.mktemp("results")
    result = run_scenario(1, shrunk_config(), out_dir=out)
    paths = emit_results(result, out)
    return result, out, paths


# ----------------------------------------------------------------------
# overrides and validation


def test_overrides_reach_nested_and_indexed_entries():
    tree = default_config(1)
    updated = apply_overrides(tree, [
        "duration_s=7.5",
        "topology.trunk.bandwidth_bps=1000000",
        "security.configs.1=vnfsdn",
        'policy.accepted_tags=["a","b"]',
        "traffic.benign.0.name=renamed",
    ])
    assert updated["duration_s"] == 7.5
    assert updated["topology"]["trunk"]["bandwidth_bps"] == 1_000_000
    assert updated["security"]["configs"][1] == "vnfsdn"  # bare-string fallback
    assert updated["policy"]["accepted_tags"] == ["a", "b"]
    assert updated["traffic"]["benign"][0]["name"] == "renamed"
    assert tree["duration_s"] == 60.0  # input tree untouched
    # a schema key the shipped tree leaves out may still be set
    cfg = from_dict(apply_overrides(default_config(2), ["controller.install_delay_us=5"]))
    assert cfg.controller.install_delay_us == 5


def test_override_error_paths():
    tree = default_config(1)
    for bad in (
        "no_equals_sign",
        "topology.nothere.deep=1",
        "security.configs.99=x",
        "duration_s.sub=1",  # leaf is not a container
    ):
        with pytest.raises(ConfigError):
            apply_overrides(tree, [bad])


def test_from_dict_rejects_malformed_trees():
    def mutated(fn, scenario=1):
        tree = default_config(scenario)
        fn(tree)
        return tree

    link = {"latency_us": 1, "bandwidth_bps": 1, "queue_capacity": 1}
    # each tree, and the path its error must name
    bad_trees = [
        (mutated(lambda t: t.update(scenario=7)), "scenario"),
        (mutated(lambda t: t["security"].update(configs=["vnfsdn", "vnfsdn"])), "security"),
        (mutated(lambda t: t["security"].update(configs=["castle_wall"])), "security"),
        (mutated(lambda t: t["security"].update(configs=["profile-unheard_of"])), "security"),
        (mutated(lambda t: t["traffic"]["ddos"][0].update(threat_kind="gremlins")),
         "traffic.ddos.0.threat_kind"),
        (mutated(lambda t: t.update(duration_s=-1)), "duration_s"),
        (mutated(lambda t: t["topology"].update(kind="ring")), "topology.kind"),
        (mutated(lambda t: t["security"]["ids"]["signatures"].append("gremlins")),
         "security.ids"),
        (mutated(lambda t: t.pop("topology")), "topology"),
        # a firewall action the chain cannot apply, and a key no rule field
        # reads, which would otherwise leave a rule that matches everything
        (mutated(lambda t: t["security"].update(firewall_rules=[{"action": "block"}])),
         "security.firewall_rules.0.action"),
        (mutated(lambda t: t["security"].update(
            firewall_rules=[{"action": "deny", "tag": "guest"}])),
         "security.firewall_rules.0.tag"),
        # topologies the star builder refuses
        (mutated(lambda t: t["topology"].update(hosts=0)), "topology"),
        (mutated(lambda t: t["topology"]["trunk"].update(bandwidth_bps=0)), "topology"),
        # node names the topology does not have
        (mutated(lambda t: t["security"].update(
            firewall_rules=[{"action": "deny", "src": "hostX"}])),
         "security.firewall_rules.0.src"),
        (mutated(lambda t: t["traffic"]["ddos"][0].update(target="nosuch"), 5),
         "traffic.ddos.0.target"),
        (mutated(lambda t: t["traffic"]["ddos"][0].update(attackers=["host1", "nosuch"]), 5),
         "traffic.ddos.0.attackers.1"),
        (mutated(lambda t: t["traffic"]["benign"][0].update(sources=["nosuch"]), 5),
         "traffic.benign.0.sources.0"),
        (mutated(lambda t: t["traffic"]["access"][0].update(dst="nosuch"), 5),
         "traffic.access.0.dst"),
        # a per-host link for a host the topology does not have
        (mutated(lambda t: t["topology"]["per_host_access"].update({"99": link}), 5),
         "topology.per_host_access.99"),
        (mutated(lambda t: t["topology"]["per_host_access"].update({"x": {}}), 5),
         "topology.per_host_access.x"),
    ]
    for tree, path in bad_trees:
        with pytest.raises(ConfigError, match=re.escape(path)):
            from_dict(tree)
    with pytest.raises(ConfigError):
        from_dict("not a tree")


def test_from_dict_rejects_non_positive_monitor_interval():
    # a zero interval reschedules the monitor tick at the same instant
    # forever, so this is checked on the tree and never run
    for value in (0, -1):
        tree = apply_overrides(default_config(1), [f"monitor_interval_s={value}"])
        with pytest.raises(ConfigError, match="monitor_interval_s"):
            from_dict(tree)


def _schema_paths(cls, prefix=()):
    """Every key path a config tree can hold, derived from the dataclass fields.

    A list of objects contributes its element 0, a map of objects one key.
    """
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        path = prefix + (f.name,)
        yield path
        tp = hints[f.name]
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if dataclasses.is_dataclass(tp):
            yield from _schema_paths(tp, path)
        elif origin is tuple and dataclasses.is_dataclass(args[0]):
            yield from _schema_paths(args[0], path + (0,))
        elif origin is dict and dataclasses.is_dataclass(args[1]):
            yield from _schema_paths(args[1], path + ("0" if args[0] is int else "p",))


def test_every_misspelled_key_is_named():
    paths = list(_schema_paths(ScenarioConfig))
    assert ("topology", "trunk", "bandwidth_bps") in paths
    assert ("traffic", "ddos", 0, "window", "burst_on_s") in paths
    assert ("sweep", "hosts") in paths and ("monitor_interval_s",) in paths
    assert len(paths) == len(set(paths)) > 100
    base = default_config(5)
    from_dict(base)
    for path in paths:
        tree = json.loads(json.dumps(base))
        node = tree
        for part, child in zip(path, path[1:]):  # build absent parents
            if isinstance(part, int):
                if not node:
                    node.append({})
                node = node[part]
            else:
                node = node.setdefault(part, [] if isinstance(child, int) else {})
        node[path[-1] + "x"] = 1
        dotted = ".".join(map(str, path)) + "x"
        with pytest.raises(ConfigError, match=f"^unknown key {re.escape(repr(dotted))}$"):
            from_dict(tree)


def test_shipped_config_digests_are_pinned():
    # recorded before the defaults moved from Python literals to package data
    assert {n: from_dict(default_config(n)).digest() for n in range(1, 7)} == {
        1: "0c743f1dbe416a838b3d1b993f0c4a4d8dc957ff6b83ab9e99167f541882991b",
        2: "ab217d2d2f6ffa1abbe31e8bcba7b7557879f5537c7513411af92d46f1a620a5",
        3: "897a7d9007383e20b20ad23fa9ee71c7b8d511472276a72aa878c4ca16f8c7f5",
        4: "8bda217f71d2c259159efc414d46ae85743d3ac4e6897b8bada983cd831ce6ed",
        5: "c075fed788e0c50348cab086577e0a613eb3f4caf94a61ed2652347bf294dc09",
        6: "02c7c6c3fffc5afd799aa7e7b986c91e979f0b26796fa8974d24ae934e5bed05",
    }


def test_sweep_must_ascend():
    tree = default_config(2)
    tree["sweep"]["hosts"] = [40, 20]
    with pytest.raises(ConfigError):
        from_dict(tree)


def test_default_trees_are_independent_copies():
    tree = default_config(3)
    tree["seed"] = 999999
    assert default_config(3)["seed"] != 999999
    with pytest.raises(ConfigError):
        default_config(9)


def test_load_tree_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_tree(tmp_path / "absent.json")
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{nope")
    with pytest.raises(ConfigError):
        load_tree(bad_json)
    top_list = tmp_path / "list.json"
    top_list.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_tree(top_list)


def test_digest_follows_content():
    cfg_a = shrunk_config()
    cfg_b = shrunk_config()
    assert cfg_a.digest() == cfg_b.digest()
    assert len(cfg_a.digest()) == 64
    cfg_c = from_dict(apply_overrides(default_config(1), SHRINK + ["seed=555"]))
    assert cfg_c.digest() != cfg_a.digest()
    # canonical form is key-sorted and whitespace-free
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# calibration targets


def test_target_spec_validation():
    ok = TargetSpec(name="x", scenario=1, value=10.0, comparator="ge", tolerance=1.0)
    assert ok.normative
    with pytest.raises(ValueError):
        TargetSpec(name="x", scenario=1, value=1.0, comparator="abs",
                   tolerance=1.0, tolerance_pct=5.0)
    with pytest.raises(ValueError):
        TargetSpec(name="x", scenario=1, value=1.0, comparator="abs")
    with pytest.raises(ValueError):
        TargetSpec(name="x", scenario=1, value=1.0, comparator="abs", tolerance=-2.0)
    with pytest.raises(ValueError):
        TargetSpec(name="x", scenario=1, value=1.0, comparator="abs", tolerance=1.0,
                   scale_with_duration=True)
    between = {"name": "x", "scenario": 1, "value": 1.0, "comparator": "between",
               "tolerance": 1.0}
    with pytest.raises(ConfigError, match=re.escape("targets.0.comparator")):
        CalibrationTargets.from_dict({"targets": [between]})


def test_shipped_targets_are_wellformed():
    targets = CalibrationTargets.shipped()
    names = [t.name for t in targets.targets]
    assert len(names) == len(set(names)) == 15
    assert {t.scenario for t in targets.targets} == {1, 4, 5}
    informational = [t for t in targets.targets if not t.normative]
    assert len(informational) == 1
    assert informational[0].name == "s4_lab_throughput_mbps"
    assert informational[0].note  # explains why it cannot bind


# ----------------------------------------------------------------------
# scenario execution and result files


def test_run_scenario_rejects_mismatched_id():
    with pytest.raises(ConfigMismatch):
        run_scenario(2, shrunk_config())


def test_run_one_rejects_unknown_config_label():
    with pytest.raises(ConfigError):
        run_one(shrunk_config(), "castle_wall")


def test_repeated_runs_are_identical():
    cfg = shrunk_config()
    first = run_one(cfg, "no_security")
    second = run_one(cfg, "no_security")
    assert first.report == second.report
    assert first.events_processed == second.events_processed


def test_scenario_result_shape(emitted):
    result, _, _ = emitted
    assert result.scenario == 1 and result.seed == 101
    assert [row.label for row in result.rows] == ["no_security", "vnfsdn"]
    assert result.row("vnfsdn").hosts == 3
    with pytest.raises(MissingMetric):
        result.row("firewall_only")
    # the shipped loss targets cannot hold without the attack phase, and
    # that is visible, not hidden: checks exist and the loss ones fail
    assert result.checks and not all(c.passed for c in result.checks)
    assert len(result.digest()) == 64


def test_emitted_file_inventory(emitted):
    result, out, paths = emitted
    names = {p.name for p in paths}
    assert names == {
        "s1_no_security_101.csv",
        "s1_vnfsdn_101.csv",
        "s1_summary_101.csv",
        "s1_no_security_101.ndrec",
        "s1_vnfsdn_101.ndrec",
        "plotdata_fig5a.csv",
        "plotdata_fig5b.csv",
    }
    assert all(p.parent == out and p.stat().st_size > 0 for p in paths)
    # the vnfsdn run wrote its capture file too
    captures = list((out / "captures" / "s1_vnfsdn").glob("capture_101_*.ndrec"))
    assert len(captures) == 1


def test_record_lines_are_canonical(emitted):
    _, out, _ = emitted
    lines = (out / "s1_vnfsdn_101.ndrec").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header" and header["format_version"] == 1
    assert header["config"] == "vnfsdn" and "generated_unix_ms" in header
    for line in lines:
        obj = json.loads(line)
        assert list(obj.keys()) == sorted(obj.keys())
        assert " " not in line.split('","')[0] or True  # compact separators
    assert json.loads(lines[1])["kind"] == "window"
    assert json.loads(lines[-1])["kind"] == "summary"


def test_results_round_trip_through_disk(emitted):
    result, out, _ = emitted
    (loaded,) = load_results(out)
    # every emitted column reads back to the value it was written from; only
    # the configuration digest is not in the CSV files
    want, got = _result_object(result), _result_object(loaded)
    assert got.pop("config_digest") == ""
    want.pop("config_digest")
    assert got == want


# Shrunk runs of scenarios 1-6, each attack moved to 0.5 s so that blocks,
# drop rules, detections and captures occur; together they write all seven
# plot-data figures.  golden_emission.json holds the result digest and the
# sha256 of every emitted file, wall-clock header field masked: the emitted
# bytes change only on purpose, and then this file changes with them.
GOLDEN_RUNS = {
    1: ["traffic.ddos.0.window.start_s=0.5", "traffic.ddos.1.window.start_s=0.5"],
    2: ["sweep.hosts=[10,20]", "traffic.ddos.0.window.start_s=0.5"],
    3: ["traffic.ddos.0.window.start_s=0.5"],
    4: [],
    5: ["traffic.ddos.0.window.start_s=0.5"],
    6: ["traffic.ddos.0.window.start_s=0.5", "traffic.ddos.1.window.start_s=0.5"],
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_RUNS))
def test_emitted_bytes_match_golden(scenario, tmp_path):
    golden = json.loads(
        Path(__file__).with_name("golden_emission.json").read_text()
    )[str(scenario)]
    tree = apply_overrides(default_config(scenario), ["duration_s=2", *GOLDEN_RUNS[scenario]])
    result = run_scenario(scenario, from_dict(tree), out_dir=tmp_path)
    emit_results(result, tmp_path)
    assert result.digest() == golden["digest"]
    files = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(
            re.sub(rb'"generated_unix_ms":\d+', b'"generated_unix_ms":0', path.read_bytes())
        ).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert files == golden["files"]


def test_load_results_ignores_unrelated_files(tmp_path):
    (tmp_path / "notes.txt").write_text("scratch")
    assert load_results(tmp_path) == []


# ----------------------------------------------------------------------
# capture files


def good_capture(tmp_path, records=3):
    cap = CaptureVnf(tmp_path, run_seed=42)
    from vnfsdnsim.model import Packet

    for i in range(records):
        cap.capture(
            Packet(id=i, src=0, dst=3, size=200, protocol="tcp",
                   cls=PacketClass.BENIGN, tag="gold", created_at=i),
            Verdict(True),
            now_us=i,
        )
    return cap.stop_and_save()


def test_capture_dump_lists_the_file(tmp_path):
    path = good_capture(tmp_path)
    listing = capture_dump(path)
    assert listing.rstrip().endswith("3 records")
    assert "seed 42" in listing or "42" in listing


def test_capture_dump_rejects_corruption(tmp_path):
    path = good_capture(tmp_path)
    lines = path.read_text().splitlines()

    truncated = tmp_path / "truncated.ndrec"
    truncated.write_text("\n".join(lines[:1] + [lines[1][:-5]]) + "\n")
    with pytest.raises(BadFormat) as err:
        capture_dump(truncated)
    assert "line 2" in str(err.value)

    shuffled = tmp_path / "shuffled.ndrec"
    record = json.loads(lines[1])
    backwards = "{" + ",".join(
        f"{json.dumps(k)}:{json.dumps(record[k])}" for k in reversed(list(record))
    ) + "}"
    shuffled.write_text(lines[0] + "\n" + backwards + "\n")
    with pytest.raises(BadFormat):
        capture_dump(shuffled)

    futuristic = tmp_path / "future.ndrec"
    header = json.loads(lines[0])
    header["format_version"] = 2
    futuristic.write_text(json.dumps(header, sort_keys=True) + "\n")
    with pytest.raises(UnsupportedVersion):
        capture_dump(futuristic)

    empty = tmp_path / "empty.ndrec"
    empty.write_text("")
    with pytest.raises(BadFormat):
        capture_dump(empty)


# ----------------------------------------------------------------------
# shipped studies not covered by the calibration-target files; these run
# full length and pin the qualitative shapes the defaults were tuned for


def test_host_sweep_saturates_past_sixty_hosts():
    cfg = from_dict(default_config(2))
    result = run_scenario(2, cfg)
    labels = [row.label for row in result.rows]
    assert labels == [f"vnfsdn_h{n:03d}" for n in range(10, 101, 10)]
    assert [row.hosts for row in result.rows] == list(range(10, 101, 10))
    by_hosts = {row.hosts: row.result.report for row in result.rows}
    # below the knee the trunk keeps up: no benign loss, low latency
    for n in (10, 20, 30, 40, 50):
        assert by_hosts[n].benign_loss_total == 0
        assert by_hosts[n].mean_latency_ms < 5.0
    # past the knee the 20 Mbps trunk is pinned and loss grows with size
    for n in (70, 80, 90, 100):
        assert by_hosts[n].benign_loss_total > 1000
        assert 19.5 < by_hosts[n].throughput_mbps <= 20.0
    assert (
        by_hosts[70].benign_loss_total
        < by_hosts[80].benign_loss_total
        < by_hosts[90].benign_loss_total
        < by_hosts[100].benign_loss_total
    )
    # signature detection time does not degrade with network size
    detections = [r.result.report.detection_time_ms for r in result.rows]
    assert max(detections) - min(detections) < 1.0


def test_detection_paths_order_as_designed():
    result = run_scenario(3, from_dict(default_config(3)))
    chain = result.row("vnfsdn").result.report
    ids = result.row("ids_only").result.report
    qos = result.row("profile-qos_sdn").result.report
    # the filter kills the flood on signature-speed timescales; a lone
    # anomaly detector must first watch the rate build up
    assert chain.detection_time_ms < 5.0
    assert ids.detection_time_ms > 100.0
    assert chain.benign_loss_total == 0
    assert ids.benign_loss_total > 1000  # anomaly collateral on busy sources
    # pure QoS scheduling never detects anything, yet protects the users
    assert qos.detection_time_ms is None
    assert qos.tdr == 0.0
    assert qos.benign_loss_total == 0


def test_config_families_separate_by_detection_rate():
    result = run_scenario(6, from_dict(default_config(6)))
    tdr = {row.label: row.result.report.tdr for row in result.rows}
    assert tdr["no_security"] == 0.0
    assert tdr["vnfsdn"] == 1.0
    assert tdr["vnfsdn_firewall"] == 1.0
    # the firewall rule only covers one of the two attack protocols, and
    # the anomaly detector misses each flood's run-up
    assert 0.2 < tdr["firewall_only"] < 0.45
    assert 0.9 < tdr["ids_only"] < 1.0
    assert (
        tdr["no_security"] < tdr["firewall_only"] < tdr["ids_only"] < tdr["vnfsdn"]
    )


# ----------------------------------------------------------------------
# size-scaling verification


def test_hypothesis_sizes_are_squares_capped_at_n_max():
    assert hypothesis1_sizes(16) == [1, 4, 9, 16]
    assert hypothesis1_sizes(10) == [1, 4, 9, 10]
    assert hypothesis1_sizes(2) == [1, 2]
    assert hypothesis1_sizes(25) == [1, 4, 9, 16, 25]
    # a single size is vacuous for this tool; the library-level checker
    # owns that case, and the enumerator refuses to produce it
    with pytest.raises(ValueError):
        hypothesis1_sizes(1)


def test_verify_hypothesis1_reports_rows_and_verdict():
    result = verify_hypothesis1(16)
    assert [n for n, _ in result.rows] == [1, 4, 9, 16]
    assert [v for _, v in result.rows] == pytest.approx(
        [1.0, 4 ** 0.25, 9 ** 0.25, 16 ** 0.25]
    )
    assert result.increasing
    wavy = verify_hypothesis1(9, gamma=0.5, m=3.0, horizon_s=5.0, gamma_scale="sqrt")
    assert wavy.increasing


# ----------------------------------------------------------------------
# CLI exit codes


def run_cli(*argv):
    return main(list(argv))


def test_cli_run_writes_results(tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = run_cli(
        "run", "--scenario", "1", "--out", str(out),
        *(f"--set={s}" for s in SHRINK),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "no_security" in stdout
    assert (out / "s1_summary_101.csv").exists()
    assert (out / "s1_vnfsdn_101.ndrec").exists()


def test_cli_run_usage_errors(tmp_path):
    assert run_cli("run", "--scenario", "9") == 2
    assert run_cli("run", "--scenario", "1", "--config", str(tmp_path / "no.json")) == 2
    assert run_cli("run", "--scenario", "1", "--format", "yaml") == 2
    assert run_cli("run", "--scenario", "1", "--set", "oops") == 2


@pytest.mark.parametrize("scenario, assignment, key", [
    (4, "topology.trunk.bandwidthh_bps=5", "'topology.trunk.bandwidthh_bps'"),
    (4, "topology.trunkk=5", "'topology.trunkk'"),
    (5, "traffic.ddos.0.rate_pps_per_attacker=5", "'traffic.ddos.0.rate_pps_per_attacker'"),
    (5, "duration_s=abc", "duration_s"),
    (5, "seed=1.5", "seed"),
    (5, 'traffic.benign.0.measured="false"', "traffic.benign.0.measured"),
    (5, 'policy.accepted_tags="abc"', "policy.accepted_tags"),
    (5, 'topology.per_host_access={"x":{}}', "topology.per_host_access.x"),
    (5, "monitor_interval_s=0", "monitor_interval_s"),
    (5, "duration_s=Infinity", "duration_s"),  # JSON as Python reads it
    # values outside a key's accepted range
    (5, "security.profiles.qos_sdn.detection_probability=2",
     "security.profiles.qos_sdn.detection_probability"),
    (5, "security.profiles.netvirt.detection_delay_us=-1",
     "security.profiles.netvirt.detection_delay_us"),
    (5, "security.profiles.netvirt.cost_us=-1", "security.profiles.netvirt.cost_us"),
    (5, "security.profiles.netvirt.memory_kb_per_flow=-1",
     "security.profiles.netvirt.memory_kb_per_flow"),
    (5, "controller.congestion_threshold=2", "controller.congestion_threshold"),
    (5, "controller.install_delay_us=-5000", "controller.install_delay_us"),
    (5, "controller.drop_idle_timeout_s=0", "controller.drop_idle_timeout_s"),
    (5, "security.ids.anomaly_window_s=0", "security.ids.anomaly_window_s"),
    (5, "security.ids.anomaly_threshold_pps=0", "security.ids.anomaly_threshold_pps"),
    (5, "traffic.benign.0.size=10", "traffic.benign.0.size"),
    (5, 'traffic.benign.0.size={"lo":1000,"hi":500}', "traffic.benign.0.size.hi"),
    (5, 'traffic.ddos.0.size={"lo":1000,"hi":9001}', "traffic.ddos.0.size.hi"),
    (5, "traffic.benign.0.rate_pps=-5", "traffic.benign.0.rate_pps"),
    (5, "traffic.benign.0.request_fraction=2", "traffic.benign.0.request_fraction"),
    (3, "traffic.benign.0.response_size=10", "traffic.benign.0.response_size"),
    (5, "traffic.ddos.0.rate_multiplier=-1", "traffic.ddos.0.rate_multiplier"),
    (5, "traffic.ddos.0.base_rate_pps=-1", "traffic.ddos.0.base_rate_pps"),
    (5, "traffic.access.0.authorized_pps=-1", "traffic.access.0.authorized_pps"),
    (5, "traffic.access.0.unauthorized_pps=-1", "traffic.access.0.unauthorized_pps"),
    # a repeated node name would run two streams off one random stream
    (5, 'traffic.benign.1.sources=["host0","host0"]', "traffic.benign.1.sources"),
    (5, 'traffic.ddos.0.attackers=["host1","host1"]', "traffic.ddos.0.attackers"),
])
def test_cli_run_names_the_bad_key(scenario, assignment, key, tmp_path, capsys):
    code = run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path),
                   "--set", assignment)
    assert code == 2
    assert key in capsys.readouterr().err


def test_cli_compare_exit_codes(emitted, tmp_path, capsys):
    _, out, _ = emitted
    # shrunk measurements cannot satisfy the shipped normative targets
    assert run_cli("compare", "--result", str(out)) == 1
    capsys.readouterr()
    # a targets file this run does satisfy
    lenient = tmp_path / "targets.json"
    lenient.write_text(json.dumps({
        "targets": [{
            "name": "s1_availability_min_no_security",
            "scenario": 1, "value": 1.0, "comparator": "ge", "tolerance": 1.0,
        }]
    }))
    assert run_cli("compare", "--result", str(out), "--targets", str(lenient)) == 0
    assert "[pass]" in capsys.readouterr().out
    # a misspelled key is named, not read as its default
    target = {"name": "s1_availability_min_no_security", "scenario": 1, "value": 1.0,
              "tolerance": 1.0}
    for typo, value in (("normativ", False), ("scenarioo", 3)):
        lenient.write_text(json.dumps({"targets": [{**target, typo: value}]}))
        assert run_cli("compare", "--result", str(out), "--targets", str(lenient)) == 2
        assert f"targets.0.{typo}" in capsys.readouterr().err
    empty = tmp_path / "void"
    empty.mkdir()
    assert run_cli("compare", "--result", str(empty)) == 2


def test_cli_verify_exit_codes(monkeypatch, capsys):
    assert run_cli("verify-hypothesis1", "--n-max", "9") == 0
    assert "strictly increasing: yes" in capsys.readouterr().out
    assert run_cli("verify-hypothesis1", "--n-max", "1") == 2
    assert run_cli("verify-hypothesis1", "--n-max", "4", "--gamma", "1.0") == 2

    # the integrand is pointwise monotone in n, so a genuine false verdict
    # cannot arise from valid parameters; fake one to pin the exit code
    monkeypatch.setattr(
        "vnfsdnsim.cli.verify_hypothesis1",
        lambda *a, **k: Hypothesis1Result(((1, 1.0), (4, 0.5)), False),
    )
    assert run_cli("verify-hypothesis1", "--n-max", "4") == 1
    assert "NO" in capsys.readouterr().out


def test_cli_capture_dump_exit_codes(tmp_path, capsys):
    path = good_capture(tmp_path)
    assert run_cli("capture", "dump", str(path)) == 0
    assert "3 records" in capsys.readouterr().out
    assert run_cli("capture", "dump", str(tmp_path / "missing.ndrec")) == 2
    mangled = tmp_path / "mangled.ndrec"
    mangled.write_text("not json\n")
    assert run_cli("capture", "dump", str(mangled)) == 2
