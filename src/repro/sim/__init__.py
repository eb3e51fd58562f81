"""Trace-replay consolidation simulator (the paper's Setup-2 harness).

Drives a :class:`~repro.traces.trace.TraceSet` of fine-grained demand
traces through periodic placement + v/f scaling on a simulated homogeneous
fleet, accounting power, QoS violations, frequency residency and
migrations — the quantities behind Table II and Fig 6.
"""

from repro.sim.audit import AuditError, AuditEvent
from repro.sim.approaches import (
    ApproachDecision,
    BfdApproach,
    ConsolidationApproach,
    FfdApproach,
    PcpApproach,
    ProposedApproach,
)
from repro.sim.churn import ChurnEngine, ChurnEvent, ChurnRecord, synthesize_churn_events
from repro.sim.checkpoint import CheckpointError, CheckpointPolicy
from repro.sim.engine import ReplayConfig, replay
from repro.sim.migration import MigrationCostModel
from repro.sim.results import ReplayResult, comparison_rows, normalized_power
from repro.sim.runner import Scenario, run_scenarios

__all__ = [
    "Scenario",
    "run_scenarios",
    "ApproachDecision",
    "ConsolidationApproach",
    "ProposedApproach",
    "BfdApproach",
    "FfdApproach",
    "PcpApproach",
    "ReplayConfig",
    "replay",
    "CheckpointPolicy",
    "CheckpointError",
    "ChurnEngine",
    "ChurnEvent",
    "ChurnRecord",
    "synthesize_churn_events",
    "AuditEvent",
    "AuditError",
    "ReplayResult",
    "comparison_rows",
    "normalized_power",
    "MigrationCostModel",
]
