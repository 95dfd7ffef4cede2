"""Thread control speculation: policies, event-driven engine, metrics."""

from repro.core.speculation.disable import (
    LoopOutcomeStats,
    SpeculationDisableTable,
)
from repro.core.speculation.engine import (
    SpeculationEngine,
    simulate,
    simulate_infinite,
)
from repro.core.speculation.grid import grid_tables, simulate_grid
from repro.core.speculation.metrics import SpeculationResult
from repro.core.speculation.policies import (
    IdlePolicy,
    OracleAllPolicy,
    Policy,
    StrIPolicy,
    StrPolicy,
    make_policy,
)

__all__ = [
    "LoopOutcomeStats",
    "SpeculationDisableTable",
    "SpeculationEngine",
    "simulate",
    "simulate_grid",
    "simulate_infinite",
    "grid_tables",
    "SpeculationResult",
    "IdlePolicy",
    "OracleAllPolicy",
    "Policy",
    "StrIPolicy",
    "StrPolicy",
    "make_policy",
]
