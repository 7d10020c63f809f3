"""Synchronous message-passing runtime and distributed protocols.

This subpackage is the "systems" half of the reproduction: it runs the
model of computation of paper §1.2 (synchronous rounds, port numbering, no
node identifiers) on an int-indexed message plane, faithfully enough that
round counts, message counts and locality radii are meaningful
measurements, and implements the paper's algorithm — plus the safe
baseline — as actual protocols on it.  The per-node simulator the plane is
tested against lives in :mod:`repro.oracle.distributed`.
"""

from .agents import PhaseSchedule, VectorizedMaxMinProtocol
from .plane import MessagePlane, VectorizedProtocol
from .dynamics import (
    ChangeImpact,
    DynamicNetwork,
    TickResult,
    changed_agent_positions,
    changed_sites,
    local_horizon_radius,
    measure_change_impact,
    random_churn_delta,
)
from .resilient import (
    AGENT_EXACT,
    AGENT_FAILED,
    AGENT_SAFE,
    DegradationCertificate,
    ResilientLocalSolver,
    ResilientSafeSolver,
)
from .runtime import (
    FaultEvent,
    RoundStatistics,
    RunResult,
    SynchronousRuntime,
    require_agent_outputs,
)
from .safe_agents import SAFE_ALGORITHM_ROUNDS, VectorizedSafeProtocol

__all__ = [
    "MessagePlane",
    "VectorizedProtocol",
    "VectorizedSafeProtocol",
    "VectorizedMaxMinProtocol",
    "SynchronousRuntime",
    "RunResult",
    "RoundStatistics",
    "require_agent_outputs",
    "PhaseSchedule",
    "SAFE_ALGORITHM_ROUNDS",
    "AGENT_EXACT",
    "AGENT_SAFE",
    "AGENT_FAILED",
    "FaultEvent",
    "DegradationCertificate",
    "ResilientLocalSolver",
    "ResilientSafeSolver",
    "ChangeImpact",
    "DynamicNetwork",
    "TickResult",
    "changed_agent_positions",
    "changed_sites",
    "measure_change_impact",
    "local_horizon_radius",
    "random_churn_delta",
]
