"""Exception hierarchy for :mod:`repro`.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "DegenerateInstanceError",
    "NotSpecialFormError",
    "InfeasibleSolutionError",
    "SolverError",
    "TransformError",
    "SimulationError",
    "SerializationError",
    "EngineError",
    "JobTimeoutError",
    "FaultInjectionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidInstanceError(ReproError):
    """Raised when a max-min LP instance violates structural requirements.

    Examples: non-positive coefficients, references to undeclared nodes,
    duplicate identifiers within a node class.
    """


class DegenerateInstanceError(ReproError):
    """Raised for degenerate instances the algorithm does not accept directly.

    The paper (Section 4) assumes every constraint and objective is adjacent
    to at least one agent and every agent is adjacent to at least one
    constraint and one objective.  :func:`repro.core.preprocess.preprocess`
    removes such degeneracies; solvers raise this error when asked to run on
    an instance that still contains them.
    """


class NotSpecialFormError(ReproError):
    """Raised when a special-form-only routine receives a general instance.

    The special form (paper Section 5) requires ``|V_i| = 2``, ``|V_k| ≥ 2``,
    ``|K_v| = 1``, ``|I_v| ≥ 1`` and ``c_kv = 1``.
    """


class InfeasibleSolutionError(ReproError):
    """Raised when a produced solution violates a constraint beyond tolerance."""


class SolverError(ReproError):
    """Raised when a solve cannot run: an exact LP solve fails (solver status
    not optimal), or the alternating trees would pass the tree-node limit."""


class TransformError(ReproError):
    """Raised when a local transformation cannot be applied or inverted."""


class SimulationError(ReproError):
    """Raised by the distributed runtime on protocol violations.

    Examples: a node sending a message to a non-existent port, an algorithm
    exceeding its declared local horizon, or inconsistent round counts.
    """


class SerializationError(ReproError):
    """Raised when an instance or solution cannot be (de)serialized."""


class EngineError(ReproError):
    """Raised by the batch-execution engine (:mod:`repro.engine`).

    Examples: a job referencing an unregistered algorithm, a worker process
    dying mid-batch, or a corrupt result-cache entry that cannot be ignored.
    """


class JobTimeoutError(EngineError):
    """Raised when a job attempt exceeds its ``timeout_s`` deadline.

    Counts as a failed attempt, retried under the job's
    :class:`~repro.engine.resilience.RetryPolicy` if it has one; once the
    attempts run out it becomes the job's structured error.
    """


class FaultInjectionError(EngineError):
    """Raised by :mod:`repro.faults` for injected transient failures.

    Also stands in for an injected worker crash when the executor has no
    expendable worker process (serial execution).  Never raised unless a
    :class:`~repro.faults.FaultPlan` was explicitly plumbed into the run.
    """
