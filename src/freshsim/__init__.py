"""freshsim: a deterministic discrete-event simulator for validity-interval
freshness in real-time temporal databases."""

from .core import (
    Arrival,
    ConfigError,
    FeasibilityReport,
    FreshnessMode,
    ObjectSpec,
    PolicyInfeasibleError,
    SimInternalError,
    Tick,
    UserTxnSpec,
    Version,
    feasibility_check,
    is_fresh,
)
from .engine import Simulator
from .metrics import MetricsReport, TraceLines, trace_hash
from .store import VersionStore
from .workload import SimConfig, emit_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "Arrival", "ConfigError", "FeasibilityReport", "FreshnessMode",
    "MetricsReport", "ObjectSpec", "PolicyInfeasibleError", "SimConfig",
    "SimInternalError", "Simulator", "Tick", "TraceLines", "UserTxnSpec",
    "Version", "VersionStore", "emit_config", "feasibility_check", "is_fresh",
    "parse_config", "trace_hash", "__version__",
]
