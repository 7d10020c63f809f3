"""Solution objects: assignments of values to agents plus evaluation helpers.

A solution of a max-min LP is a non-negative vector ``x`` indexed by agents.
Its *utility* is ``ω(x) = min_k Σ_{v ∈ V_k} c_kv x_v``; it is *feasible* when
``Σ_{v ∈ V_i} a_iv x_v ≤ 1`` for every constraint ``i`` (up to a tolerance,
since the algorithms work in floating point).

Representation
--------------
A :class:`Solution` *is* that vector: one read-only float64 array in the
instance's canonical agent order (:meth:`Solution.value_array`).  Per-agent
reads (``solution[v]``, :meth:`~Solution.get`, :meth:`~Solution.as_dict`)
look values up through the compiled instance's agent index; the solve paths
never make them.

Evaluation
----------
The whole-solution evaluators (:meth:`Solution.utility`,
:meth:`Solution.objective_values`, :meth:`Solution.check_feasibility`,
:meth:`Solution.bottleneck_objectives`) evaluate every constraint /
objective in one CSR pass over the compiled instance
(:meth:`~repro.core.compiled.CompiledInstance.constraint_loads` /
``objective_values``).  Loads and utilities are *bitwise* identical to the
per-node dict evaluation of :mod:`repro.oracle` — the CSR accumulation adds
in the same canonical adjacency order as the oracle's loops — which the
equivalence tests in ``tests/test_record_path.py`` pin.  The load and
objective vectors are cached on the solution, so e.g. ``utility()`` followed
by ``bottleneck_objectives()`` or repeated feasibility checks evaluate each
edge exactly once.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from .._types import DEFAULT_FEASIBILITY_TOL, NodeId, ValueMap
from ..exceptions import InfeasibleSolutionError, InvalidInstanceError
from .instance import MaxMinInstance

__all__ = ["Solution", "FeasibilityReport"]


class FeasibilityReport:
    """Detailed result of a feasibility check.

    Attributes
    ----------
    feasible:
        True if every load is ``≤ 1 + tol`` and every value is ``≥ −tol``.
        A NaN load or value satisfies neither, so it is a violation.
    max_violation:
        Largest amount by which a constraint exceeds its right-hand side 1
        (0.0 if none, ``inf`` for a NaN load).
    violated_constraints:
        Tuple of ``(constraint_id, load)`` pairs for violated constraints.
    negative_agents:
        Tuple of ``(agent_id, value)`` pairs whose value is not ``≥ −tol``
        (negative beyond tolerance, or NaN).
    tol:
        Tolerance that was used.
    """

    __slots__ = ("feasible", "max_violation", "violated_constraints", "negative_agents", "tol")

    def __init__(
        self,
        feasible: bool,
        max_violation: float,
        violated_constraints: Tuple[Tuple[NodeId, float], ...],
        negative_agents: Tuple[Tuple[NodeId, float], ...],
        tol: float,
    ) -> None:
        self.feasible = feasible
        self.max_violation = max_violation
        self.violated_constraints = violated_constraints
        self.negative_agents = negative_agents
        self.tol = tol

    def __bool__(self) -> bool:
        return self.feasible

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeasibilityReport(feasible={self.feasible}, "
            f"max_violation={self.max_violation:.3e}, "
            f"violations={len(self.violated_constraints)})"
        )


class Solution:
    """A (candidate) solution of a max-min LP instance.

    Parameters
    ----------
    instance:
        The instance the solution refers to.
    values:
        Mapping from agent id to value.  Missing agents default to 0.0 (so
        ``{}`` gives the all-zero solution); unknown agents raise
        :class:`InvalidInstanceError`.
    label:
        Optional provenance label (e.g. ``"local-R3"``, ``"lp-optimum"``).
    require_complete:
        If true, ``values`` must cover *every* agent of the instance;
        missing agents raise :class:`InvalidInstanceError` instead of being
        backfilled with 0.0.  Algorithms that are supposed to produce a
        value for each agent (e.g. the distributed protocol solvers) pass
        this so a silently broken run cannot masquerade as a feasible
        all-zero solution.

    A solution produced by a faulty distributed run additionally carries a
    :class:`~repro.distributed.resilient.DegradationCertificate` on
    ``degradation`` (``None`` on every clean path).
    """

    __slots__ = ("instance", "_x", "label", "_loads", "_objvals", "degradation")

    def __init__(
        self,
        instance: MaxMinInstance,
        values: Mapping[NodeId, float],
        label: str = "solution",
        *,
        require_complete: bool = False,
    ) -> None:
        numbers = [float(x) for x in values.values()]
        index = instance.compiled().agent_index
        try:
            positions = [index[v] for v in values]
        except KeyError as exc:
            unknown = exc.args[0]
            raise InvalidInstanceError(f"solution refers to unknown agent {unknown!r}") from None
        if require_complete and len(positions) < instance.num_agents:
            missing = [v for v in instance.agents if v not in values]
            raise InvalidInstanceError(
                f"solution {label!r} is missing values for {len(missing)} agent(s) "
                f"(first few: {missing[:5]!r}) and require_complete=True"
            )
        x = np.zeros(instance.num_agents, dtype=np.float64)
        x[positions] = numbers
        self._adopt(instance, x, label)

    @classmethod
    def from_agent_array(
        cls, instance: MaxMinInstance, values: Iterable[float], label: str = "solution"
    ) -> "Solution":
        """Build a solution from one value per agent in canonical agent order.

        ``values`` is e.g. an output vector of the CSR kernels.  It is
        copied, and its length must match the instance's agent count.
        """
        if not isinstance(values, np.ndarray):
            values = list(values)
        x = np.array(values, dtype=np.float64)
        if x.ndim != 1 or len(x) != instance.num_agents:
            raise InvalidInstanceError(
                f"solution {label!r} got {len(x)} values for "
                f"{instance.num_agents} agents"
            )
        solution = cls.__new__(cls)
        solution._adopt(instance, x, label)
        return solution

    def _adopt(self, instance: MaxMinInstance, x: np.ndarray, label: str) -> None:
        x.flags.writeable = False
        self.instance = instance
        self._x = x
        self.label = label
        self._loads = None
        self._objvals = None
        self.degradation = None

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def __getitem__(self, v: NodeId) -> float:
        return float(self._x[self.instance.compiled().agent_index[v]])

    def get(self, v: NodeId, default: float = 0.0) -> float:
        p = self.instance.compiled().agent_index.get(v)
        return default if p is None else float(self._x[p])

    def as_dict(self) -> ValueMap:
        """The values as a fresh ``{agent: value}`` dict."""
        return dict(zip(self.instance.agents, self._x.tolist()))

    def __iter__(self):
        return iter(self.instance.agents)

    def __len__(self) -> int:
        return len(self._x)

    def value_array(self) -> np.ndarray:
        """The read-only value vector, in the instance's canonical agent order."""
        return self._x

    def aligned_to(self, instance: MaxMinInstance) -> np.ndarray:
        """The value vector in ``instance``'s canonical agent order.

        ``instance`` must equal this solution's instance.  Equal instances
        may declare their agents in different orders; only then is the
        vector gathered into a copy.
        """
        mine = self.instance
        if instance is mine or instance.agents == mine.agents:
            return self._x
        index = mine.compiled().agent_index
        return self._x[[index[v] for v in instance.agents]]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def constraint_loads(self) -> np.ndarray:
        """All constraint loads in canonical constraint order (cached CSR pass)."""
        if self._loads is None:
            obs.count("solution.load_passes")
            self._loads = self.instance.compiled().constraint_loads(self._x)
        return self._loads

    def objective_value_array(self) -> np.ndarray:
        """All objective values in canonical objective order (cached CSR pass)."""
        if self._objvals is None:
            obs.count("solution.objective_passes")
            self._objvals = self.instance.compiled().objective_values(self._x)
        return self._objvals

    def constraint_load(self, i: NodeId) -> float:
        """``Σ_{v ∈ V_i} a_iv x_v`` for constraint ``i``."""
        inst = self.instance
        return sum(inst.a(i, v) * self[v] for v in inst.agents_of_constraint(i))

    def constraint_slack(self, i: NodeId) -> float:
        """``1 − load(i)`` (negative when violated)."""
        return 1.0 - self.constraint_load(i)

    def objective_value(self, k: NodeId) -> float:
        """``ω_k(x) = Σ_{v ∈ V_k} c_kv x_v`` for objective ``k``."""
        inst = self.instance
        return sum(inst.c(k, v) * self[v] for v in inst.agents_of_objective(k))

    def objective_values(self) -> Dict[NodeId, float]:
        """All objective values keyed by objective id."""
        return dict(zip(self.instance.objectives, self.objective_value_array().tolist()))

    def utility(self) -> float:
        """``ω(x) = min_k ω_k(x)``; ``inf`` when the instance has no objective."""
        if not self.instance.objectives:
            return math.inf
        return float(self.objective_value_array().min())

    def bottleneck_objectives(self, tol: float = 1e-9) -> Tuple[NodeId, ...]:
        """The objectives attaining the minimum utility (within ``tol``).

        Shares the cached objective-value pass with :meth:`utility`, so
        calling both evaluates each objective edge once.
        """
        if not self.instance.objectives:
            return ()
        vals_arr = self.objective_value_array()
        best_val = vals_arr.min()
        hits = np.flatnonzero(vals_arr <= best_val + tol)
        objectives = self.instance.objectives
        return tuple(objectives[int(j)] for j in hits)

    def check_feasibility(self, tol: float = DEFAULT_FEASIBILITY_TOL) -> FeasibilityReport:
        """Check non-negativity and every packing constraint.

        Reuses the cached load vector, so repeated checks (or a check
        following :meth:`constraint_loads`) cost one CSR pass in total.
        A load that is not ``≤ 1 + tol`` or a value that is not ``≥ −tol``
        is a violation, so NaN fails both tests.  Violated constraints are
        reported in canonical constraint order, negative agents in
        canonical agent order.
        """
        loads = self.constraint_loads()
        dense = self._x
        viol_idx = np.flatnonzero(~(loads <= 1.0 + tol))
        constraints = self.instance.constraints
        violated = tuple((constraints[int(j)], float(loads[j])) for j in viol_idx)
        excess = np.where(np.isnan(loads[viol_idx]), math.inf, loads[viol_idx] - 1.0)
        max_violation = float(excess.max()) if len(viol_idx) else 0.0
        neg_idx = np.flatnonzero(~(dense >= -tol))
        agents = self.instance.agents
        negative = tuple((agents[int(j)], float(dense[j])) for j in neg_idx)
        return FeasibilityReport(
            feasible=not violated and not negative,
            max_violation=max_violation,
            violated_constraints=violated,
            negative_agents=negative,
            tol=tol,
        )

    def is_feasible(self, tol: float = DEFAULT_FEASIBILITY_TOL) -> bool:
        """Shorthand for ``check_feasibility(tol).feasible``."""
        return self.check_feasibility(tol).feasible

    def require_feasible(self, tol: float = DEFAULT_FEASIBILITY_TOL) -> "Solution":
        """Raise :class:`InfeasibleSolutionError` unless feasible; returns self."""
        report = self.check_feasibility(tol)
        if not report.feasible:
            raise InfeasibleSolutionError(
                f"solution {self.label!r} infeasible: max violation {report.max_violation:.3e}, "
                f"{len(report.violated_constraints)} constraint(s) violated, "
                f"{len(report.negative_agents)} negative value(s)"
            )
        return self

    # ------------------------------------------------------------------
    # Arithmetic helpers (used by the shifting / averaging analysis)
    # ------------------------------------------------------------------
    def scaled(self, factor: float, label: Optional[str] = None) -> "Solution":
        """Return ``factor · x`` as a new solution."""
        return Solution.from_agent_array(
            self.instance, factor * self._x, label=label or f"{self.label}*{factor:g}"
        )

    @staticmethod
    def average(solutions: Iterable["Solution"], label: str = "average") -> "Solution":
        """Pointwise average of several solutions over the same instance.

        Adds the vectors left to right from zero, then divides by their
        count.  Feasibility is preserved because the feasible region is
        convex.
        """
        sols = list(solutions)
        if not sols:
            raise InvalidInstanceError("cannot average an empty collection of solutions")
        inst = sols[0].instance
        for s in sols[1:]:
            if s.instance is not inst and s.instance != inst:
                raise InvalidInstanceError("cannot average solutions of different instances")
        total = np.zeros(inst.num_agents, dtype=np.float64)
        for s in sols:
            total = total + s.aligned_to(inst)
        return Solution.from_agent_array(inst, total / len(sols), label=label)

    def clipped_nonnegative(self, label: Optional[str] = None) -> "Solution":
        """Return a copy with tiny negative values (from round-off) set to 0."""
        return Solution.from_agent_array(
            self.instance, np.where(self._x > 0.0, self._x, 0.0), label=label or self.label
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        try:
            util = self.utility()
        except Exception:  # noqa: BLE001 - repr must not raise
            util = float("nan")
        return f"Solution(label={self.label!r}, utility={util:.6g}, n={len(self._x)})"
