"""Deterministic discrete-event simulator of an SDN-controlled network
guarded by a chain of virtual network functions.

The public surface: build a topology, choose a security configuration,
run it with traffic profiles — or use the canned evaluation scenarios and the
``vnfsdnsim`` command-line tool.
"""

from .config import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    default_config,
    from_dict,
    load,
    load_tree,
)
from .engine import SimEngine, SimTime, TimeTravel, seconds
from .metrics import (
    AnalyticParams,
    KpiCounters,
    KpiReport,
    WindowAggregator,
    WindowRow,
    access_outcome_rate,
    check_hypothesis1,
    exposure_ratio,
    kpi_rollup,
    reliability_ratio,
    secure_traffic_pct,
    security_integral,
    threat_detection_rate,
    unauthorized_block_rate,
)
from .model import (
    LinkParams,
    Packet,
    PacketClass,
    SecurityPolicy,
    StarSpec,
    ThreatKind,
    Topology,
    build_topology,
)
from .runtime import NetworkSim, RunResult
from .scenarios import (
    BadFormat,
    CalibrationTargets,
    ConfigMismatch,
    MissingMetric,
    ScenarioResult,
    UnsupportedVersion,
    capture_dump,
    compare_to_targets,
    emit_results,
    load_results,
    run_one,
    run_scenario,
    verify_hypothesis1,
)
from .sdn import Controller, ControllerSettings, FlowRule
from .traffic import AccessProfile, ActivityWindow, BenignProfile, DdosProfile
from .vnf import (
    CaptureVnf,
    FilterVnf,
    FirewallRule,
    FirewallVnf,
    IdsSettings,
    IdsVnf,
    MitigationProfile,
    ProfileSettings,
    Verdict,
    VnfChain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
