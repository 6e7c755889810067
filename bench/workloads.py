"""Benchmark workloads: config trees built from the shipped scenario defaults.

Each workload is a shipped scenario tree with a shorter horizon and, where
stated, fewer security configs, sweep points or an earlier attack phase.
Nothing else in the shipped tree changes.  Why each one was chosen is in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

from vnfsdnsim.config import default_config


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: int
    seed: int  # the shipped seed, used when no seed is given
    horizon_s: float
    configs: tuple[str, ...]
    sweep: tuple[int, ...] = ()
    # Earliest attack-phase start after the shift; None keeps the shipped timing.
    attack_start_s: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # Scenario 1 over all five security configs.  The four surge profiles
        # start at 4 s instead of 20 s, so one round (five cells) fits many
        # times into a run; the 20 s of steady load before the shipped surge
        # exercise no code the first 4 s do not.
        Workload(
            "flash_crowd", 1, 101, 7.0,
            ("no_security", "firewall_only", "ids_only", "vnfsdn", "vnfsdn_firewall"),
            attack_start_s=4.0,
        ),
        # Scenario 5 at its shipped timing: the flood starts at 15 s.
        Workload("edge_flood", 5, 505, 20.0, ("vnfsdn", "profile-qos_sdn")),
        # Scenario 2 (flood from 5 s to 15 s), trimmed to two sweep points.
        Workload("host_sweep", 2, 202, 20.0, ("vnfsdn",), sweep=(25, 100)),
    )
}

# The quick mode runs every workload on a tiny horizon, with the attack
# phase moved to its start so that blocking, rules and captures still happen.
QUICK_HORIZON_S = 1.5
QUICK_ATTACK_START_S = 0.5


def _windows(tree: dict):
    for kind in ("benign", "ddos", "access"):
        for profile in tree["traffic"].get(kind, ()):
            if "window" in profile:
                yield profile["window"]


def _shift_attacks(tree: dict, start_s: float) -> None:
    """Move every delayed activity window so the earliest starts at ``start_s``."""
    delayed = [w for w in _windows(tree) if w.get("start_s", 0.0) > 0.0]
    if not delayed:
        return
    shift = min(w["start_s"] for w in delayed) - start_s
    for w in delayed:
        w["start_s"] -= shift
        if w.get("stop_s") is not None:
            w["stop_s"] -= shift


def build_tree(w: Workload, seed: int, quick: bool = False) -> dict:
    """The configuration tree of a workload for ``seed``."""
    tree = default_config(w.scenario)
    tree["seed"] = seed
    tree["duration_s"] = QUICK_HORIZON_S if quick else w.horizon_s
    tree["security"]["configs"] = list(w.configs)
    if w.sweep:
        tree["sweep"]["hosts"] = list(w.sweep)
    attack_start = QUICK_ATTACK_START_S if quick else w.attack_start_s
    if attack_start is not None:
        _shift_attacks(tree, attack_start)
    return tree
