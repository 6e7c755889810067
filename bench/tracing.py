"""Traced rounds: wrappers around each layer's entry points, installed from here.

``Tracer.install`` replaces the entry points below with timing wrappers and
``Tracer.uninstall`` puts the originals back, so untraced rounds in the same
process run the program as shipped.  Every wrapped call adds to a per-name
aggregate (calls, total time, self time); a call's self time is its duration
minus the time spent in wrapped calls it made.  Cell, finalize, capture-save,
emission and config-parse calls are also recorded as spans (id, name, start,
end, parent id).  Event handlers are timed by wrapping the callback that
``SimEngine.schedule`` receives, so ``SimEngine.run_until``'s self time is
the dispatch loop alone: heap, event hash and the call into the handler.
Everything stays in memory until ``write``.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from vnfsdnsim import config, scenarios
from vnfsdnsim.engine import RngStream, SimEngine
from vnfsdnsim.metrics import WindowAggregator
from vnfsdnsim.model import Packet
from vnfsdnsim.runtime import NetworkSim
from vnfsdnsim.sdn import Controller
from vnfsdnsim.vnf import CaptureVnf, VnfChain

# (owner, attribute, aggregate name, recorded as a span)
ENTRY_POINTS = (
    (SimEngine, "run_until", "engine.run_until", False),
    (RngStream, "uniform", "engine.rng_uniform", False),
    (RngStream, "exponential", "engine.rng_exponential", False),
    (Packet, "__init__", "model.packet_init", False),
    (NetworkSim, "inject", "runtime.inject", False),
    (VnfChain, "process", "vnf.process", False),
    (CaptureVnf, "stop_and_save", "vnf.capture_save", True),
    (Controller, "lookup", "sdn.lookup", False),
    (Controller, "on_verdict", "sdn.on_verdict", False),
    (Controller, "route", "sdn.route", False),
    (Controller, "handle_congestion", "sdn.handle_congestion", False),
    (WindowAggregator, "feed", "metrics.feed", False),
    (WindowAggregator, "finalize", "metrics.finalize", True),
    (scenarios, "run_scenario", "scenarios.run_scenario", True),
    (scenarios, "run_one", "scenarios.cell", True),
    (scenarios, "emit_results", "scenarios.emit", True),
    (config, "from_dict", "config.parse", True),
)

# Calls counted as hits: a drop-rule match, a chain block.
HITS = {
    "sdn.lookup": lambda result: result[0] == "drop",
    "vnf.process": lambda result: not result[0].forward,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.hits = dict.fromkeys(HITS, 0)
        self.heap_peak = 0
        self.spans: list[tuple] = []  # (id, name, start_s, end_s, parent id)
        self._child: list[float] = []  # time in wrapped callees of each open call
        self._open: list[int] = []  # ids of open spans
        self._t0 = perf_counter()
        self._saved: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, name: str, fn, span: bool = False):
        stat = self._stat(name)
        child = self._child
        open_spans = self._open
        spans = self.spans
        t_base = self._t0

        def wrapper(*args, **kwargs):
            if span:
                span_id = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append(None)
                open_spans.append(span_id)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                inner = child.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if child:
                    child[-1] += dt
                if span:
                    open_spans.pop()
                    spans[span_id] = (span_id, name, t0 - t_base, t1 - t_base, parent)

        return wrapper

    def _schedule(self, fn):
        timed = self._timed("engine.schedule", fn)
        tracer = self

        def schedule(engine, time, kind, callback, payload=None):
            handler = tracer._timed(f"handler.{kind.value}", callback)
            ev = timed(engine, time, kind, handler, payload)
            tracer.heap_peak = max(tracer.heap_peak, engine.pending())
            return ev

        return schedule

    def _counting(self, name: str, fn, hit):
        timed = self._timed(name, fn)
        hits = self.hits

        def wrapper(*args):
            result = timed(*args)
            if hit(result):
                hits[name] += 1
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, span in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if name in HITS:
                wrapper = self._counting(name, original, HITS[name])
            else:
                wrapper = self._timed(name, original, span)
            setattr(owner, attr, wrapper)
        self._saved.append((SimEngine, "schedule", SimEngine.__dict__["schedule"]))
        SimEngine.schedule = self._schedule(SimEngine.schedule)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def layer_metrics(self, rounds: int, events: int, reroutes: int, bytes_written: int,
                      overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``rounds`` traced rounds, as (value, unit)."""

        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def per_call_us(*names, which=2):
            n = sum(calls(x) for x in names)
            t = sum(self.stats.get(x, [0, 0.0, 0.0])[which] for x in names)
            return t / n * 1e6 if n else 0.0

        def per_round_ms(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1] / rounds * 1e3

        run_until_self = self.stats.get("engine.run_until", [0, 0.0, 0.0])[2]
        return {
            "engine.events": (events / rounds, "count"),
            "engine.dispatch_us_per_event": (run_until_self / events * 1e6, "us"),
            "engine.schedule_us": (per_call_us("engine.schedule"), "us"),
            "engine.heap_peak": (self.heap_peak, "count"),
            "engine.rng_draws": (calls("engine.rng_uniform") / rounds, "count"),
            "model.packet_init_us": (per_call_us("model.packet_init"), "us"),
            "traffic.emit_us": (per_call_us("handler.traffic_emit"), "us"),
            "runtime.inject_us": (per_call_us("runtime.inject"), "us"),
            "runtime.hop_us": (
                per_call_us("handler.packet_arrival", "handler.packet_departure"), "us"),
            "vnf.process_us": (per_call_us("vnf.process"), "us"),
            "vnf.process_calls": (calls("vnf.process") / rounds, "count"),
            "vnf.block_ratio": (self.hits["vnf.process"] / max(1, calls("vnf.process")), "ratio"),
            "vnf.capture_save_ms": (per_round_ms("vnf.capture_save"), "ms"),
            "sdn.lookup_us": (per_call_us("sdn.lookup"), "us"),
            "sdn.drop_hit_ratio": (self.hits["sdn.lookup"] / max(1, calls("sdn.lookup")), "ratio"),
            "sdn.on_verdict_us": (per_call_us("sdn.on_verdict"), "us"),
            "sdn.route_us": (per_call_us("sdn.route"), "us"),
            "sdn.congestion_ms": (per_round_ms("sdn.handle_congestion"), "ms"),
            "sdn.reroutes": (reroutes / rounds, "count"),
            "metrics.feed_us": (per_call_us("metrics.feed"), "us"),
            "metrics.records": (calls("metrics.feed") / rounds, "count"),
            "metrics.finalize_ms": (per_round_ms("metrics.finalize"), "ms"),
            "scenarios.emit_ms": (per_round_ms("scenarios.emit"), "ms"),
            "scenarios.bytes_written": (bytes_written / rounds, "bytes"),
            "config.parse_ms": (per_call_us("config.parse", which=1) / 1e3, "ms"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }

    def write(self, path: Path, header: dict, metrics: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        doc["aggregates"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.stats.items())
        }
        doc["spans"] = [
            {"id": i, "name": n, "start_s": a, "end_s": b, "parent": p}
            for i, n, a, b, p in self.spans
        ]
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
