"""The benchmark harness under ``bench/`` reaches into the program by name.

``bench/tracing.py`` wraps its entry points by looking each one up in its
owner's ``__dict__``, ``bench/run_bench.py`` times cells by replacing
``scenarios.run_one``, and both it and ``bench/checks.py`` read
``RunResult.reroutes``.  Its hit counters read ``VnfChain.process``'s
verdict (``.forward``) and ``Controller.lookup``'s first element.  A
rename or deletion of any of these, or a change of those result shapes,
would otherwise show up only as a failed benchmark run.
"""

import importlib.util
from dataclasses import fields
from pathlib import Path

from vnfsdnsim import config, scenarios
from vnfsdnsim.engine import SimEngine
from vnfsdnsim.runtime import RunResult

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(tracing):
    # ``install`` also wraps ``SimEngine.schedule``, outside ENTRY_POINTS.
    return [(owner, attr) for owner, attr, _, _ in tracing.ENTRY_POINTS] + [
        (SimEngine, "schedule")
    ]


def test_every_traced_entry_point_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr in wrapped_names(load_tracing())
               if attr not in owner.__dict__]
    assert missing == []


def test_tracer_uninstall_restores_every_original():
    tracing = load_tracing()
    names = wrapped_names(tracing)
    originals = [owner.__dict__[attr] for owner, attr in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(names, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(names, originals))


def test_cell_entry_and_reroutes_column_exist():
    assert callable(scenarios.run_one)
    assert "reroutes" in {f.name for f in fields(RunResult)}


def test_a_traced_cell_counts_calls_and_hits(tmp_path):
    # scenario 5's vnfsdn cell, shrunk to 1 s with the flood from 0.5 s
    tree = config.default_config(5)
    tree["duration_s"] = 1.0
    tree["traffic"]["ddos"][0]["window"] = {"start_s": 0.5}
    cfg = config.from_dict(tree)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        scenarios.run_one(cfg, "vnfsdn", out_dir=tmp_path)
    finally:
        tracer.uninstall()
    for name in ("vnf.process", "sdn.lookup"):
        assert tracer.stats[name][0] > 0, name
        assert tracer.hits[name] > 0, name
