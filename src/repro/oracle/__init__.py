"""Per-node reference implementations: the oracles of the production paths.

Every stage of the solver has one production path over the compiled CSR
arrays.  This module keeps the readable per-node transcriptions of the paper
that those paths are tested against, each with the tolerance it is pinned at:

* :func:`lower` — a dict declaration lowered edge by edge: coefficient
  maps, sorted adjacency tuples and the CSR arrays built one edge at a
  time.  Equal dicts and tuples, and bitwise-equal arrays of the same
  dtypes, to :class:`~repro.core.instance.MaxMinInstance`'s lowering (ids
  to positions and one lexsort).
* :func:`special_form_solve` — §5 with one alternating tree and bisection
  per agent, a breadth-first search per agent for the smoothing, and dict
  loops for the ``g±`` recursion (:func:`g_recursion`) and Eq. 18.  Within
  1e-9 of :class:`~repro.algo.local_solver.SpecialFormLocalSolver`.
* :func:`to_special_form` — the five §4 stage objects applied one by one.
  Digest-identical instances; back-mapped solutions within 1e-12 of
  :func:`repro.transforms.pipeline.to_special_form`.
* :func:`preprocess` — the degenerate-case fixed point as per-node set
  scans.  Identical removed sets, flags and lift to
  :func:`repro.core.preprocess.preprocess`.
* :func:`safe_solution` — the §1.3 safe share as a per-node loop.  Bitwise
  equal to :func:`repro.algo.safe_algorithm.safe_solution`.
* :func:`objective_values`, :func:`utility`, :func:`bottleneck_objectives`
  and :func:`check_feasibility` — dict evaluation of a
  :class:`~repro.core.solution.Solution`.  Bitwise equal to its CSR
  evaluation.

The per-node message-passing simulator that the message plane of
:mod:`repro.distributed` is pinned to lives in the submodule
:mod:`repro.oracle.distributed`.

The equivalence suites, the benchmark scripts and
:mod:`repro.algo.ablations` call these functions directly.  Nothing on the
``solve`` or ``serve`` path imports this module, and nothing here caches
onto the instance, so an oracle run never changes what a later production
solve computes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from .._types import DEFAULT_FEASIBILITY_TOL, NodeId
from ..algo.kernels import DEFAULT_BISECTION_TOL
from ..algo.local_solver import GRecursionValues, SpecialFormSolveResult, special_form_ratio
from ..algo.safe_algorithm import _check_variant
from ..algo.upper_bound import compute_upper_bounds, smooth_upper_bounds
from ..core.instance import MaxMinInstance
from ..core.preprocess import PreprocessResult, _FixedPoint, _result_from_fixed_point
from ..core.solution import FeasibilityReport, Solution
from ..core.validation import require_nondegenerate, require_special_form
from ..exceptions import InvalidInstanceError
from ..transforms.base import TransformResult
from ..transforms.pipeline import apply_chain, canonical_transforms

__all__ = [
    "lower",
    "special_form_solve",
    "g_recursion",
    "to_special_form",
    "preprocess",
    "safe_solution",
    "objective_values",
    "utility",
    "bottleneck_objectives",
    "check_feasibility",
]


# ----------------------------------------------------------------------
# Instance declaration: dicts lowered edge by edge
# ----------------------------------------------------------------------
def _csr(rows, position: Dict[NodeId, int], coeff) -> List[np.ndarray]:
    """Lower ``(owner, members)`` rows one edge at a time."""
    indptr, indices, values = [0], [], []
    for owner, members in rows:
        for member in members:
            indices.append(position[member])
            values.append(coeff(owner, member))
        indptr.append(len(indices))
    return [
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
    ]


def lower(
    agents: Sequence[NodeId],
    constraints: Sequence[NodeId],
    objectives: Sequence[NodeId],
    a: Mapping[Tuple[NodeId, NodeId], float],
    c: Mapping[Tuple[NodeId, NodeId], float],
) -> Dict[str, object]:
    """Lower a valid dict declaration edge by edge (no validation).

    Returns the coefficient maps ``"a"`` / ``"c"`` keyed by the declared
    node objects, the adjacency dicts ``"constraints_of_agent"``,
    ``"objectives_of_agent"``, ``"agents_of_constraint"`` and
    ``"agents_of_objective"`` (tuples in canonical order) and every
    :class:`~repro.core.compiled.CompiledInstance` array under its attribute
    name (the twelve CSR arrays and ``"capacity"``).
    """
    out: Dict[str, object] = {}
    pos_a = {v: p for p, v in enumerate(agents)}
    pos_i = {i: p for p, i in enumerate(constraints)}
    pos_k = {k: p for p, k in enumerate(objectives)}
    for coeffs, members, pos_m, key, rows_key, member_rows_key in (
        (a, constraints, pos_i, "a", "constraints_of_agent", "agents_of_constraint"),
        (c, objectives, pos_k, "c", "objectives_of_agent", "agents_of_objective"),
    ):
        coeff_map: Dict[Tuple[NodeId, NodeId], float] = {}
        of_agent: Dict[NodeId, List[NodeId]] = {v: [] for v in agents}
        of_member: Dict[NodeId, List[NodeId]] = {m: [] for m in members}
        for (m, v), value in coeffs.items():
            # Key by the declared objects: keys may be equal-but-distinct.
            m, v = members[pos_m[m]], agents[pos_a[v]]
            coeff_map[(m, v)] = float(value)
            of_agent[v].append(m)
            of_member[m].append(v)
        out[key] = coeff_map
        out[rows_key] = {v: tuple(sorted(ms, key=pos_m.__getitem__)) for v, ms in of_agent.items()}
        out[member_rows_key] = {m: tuple(sorted(vs, key=pos_a.__getitem__)) for m, vs in of_member.items()}

    a_map, c_map = out["a"], out["c"]
    for prefix, rows, position, coeff in (
        ("con", out["constraints_of_agent"], pos_i, lambda v, i: a_map[(i, v)]),
        ("obj", out["objectives_of_agent"], pos_k, lambda v, k: c_map[(k, v)]),
        ("cagents", out["agents_of_constraint"], pos_a, lambda i, v: a_map[(i, v)]),
        ("oagents", out["agents_of_objective"], pos_a, lambda k, v: c_map[(k, v)]),
    ):
        for part, array in zip(("indptr", "indices", "coeff"), _csr(rows.items(), position, coeff)):
            out[f"{prefix}_{part}"] = array
    out["capacity"] = np.asarray(
        [min((1.0 / a_map[(i, v)] for i in out["constraints_of_agent"][v]), default=math.inf) for v in agents],
        dtype=np.float64,
    )
    return out


# ----------------------------------------------------------------------
# §5: the local algorithm on a special-form instance
# ----------------------------------------------------------------------
def g_recursion(
    instance: MaxMinInstance, smoothed_bounds: Mapping[NodeId, float], r: int
) -> GRecursionValues:
    """Evaluate Eqs. 12–14 for all agents and all depths ``d = 0 … r``."""
    agents = instance.agents

    g_plus: List[Dict[NodeId, float]] = [dict() for _ in range(r + 1)]
    g_minus: List[Dict[NodeId, float]] = [dict() for _ in range(r + 1)]

    # Eq. 12 — depth 0 upper values are the individual capacities.
    for v in agents:
        g_plus[0][v] = instance.agent_capacity(v)

    for d in range(r + 1):
        if d >= 1:
            # Eq. 14 — g⁺ at depth d needs g⁻ of the constraint partners at d−1.
            for v in agents:
                best = math.inf
                for i in instance.constraints_of_agent(v):
                    partner = instance.other_agent(i, v)
                    candidate = (
                        1.0 - instance.a(i, partner) * g_minus[d - 1][partner]
                    ) / instance.a(i, v)
                    if candidate < best:
                        best = candidate
                g_plus[d][v] = best
        # Eq. 13 — g⁻ at depth d needs g⁺ of the objective siblings at d.
        for v in agents:
            sibling_total = sum(g_plus[d][w] for w in instance.objective_siblings(v))
            g_minus[d][v] = max(0.0, smoothed_bounds[v] - sibling_total)

    return GRecursionValues(
        instance,
        np.array([[row[v] for v in agents] for row in g_plus]),
        np.array([[row[v] for v in agents] for row in g_minus]),
    )


def special_form_solve(
    instance: MaxMinInstance,
    R: int,
    *,
    tu_method: str = "recursion",
    tu_tol: float = DEFAULT_BISECTION_TOL,
) -> SpecialFormSolveResult:
    """The §5 algorithm, agent by agent: ``t_u``, ``s_v``, ``g±`` and Eq. 18."""
    ratio = special_form_ratio(instance.delta_K, R)
    require_special_form(instance)
    r = R - 2
    upper_bounds = compute_upper_bounds(instance, r, method=tu_method, tol=tu_tol)
    smoothed = smooth_upper_bounds(instance, upper_bounds, r)
    g = g_recursion(instance, smoothed, r)
    # Eq. 18: x_v = (1/2R) Σ_d (g⁺_{v,d} + g⁻_{v,d}).
    factor = 1.0 / (2.0 * R)
    values = {
        v: factor * sum(g.plus(v, d) + g.minus(v, d) for d in range(r + 1))
        for v in instance.agents
    }
    solution = Solution(instance, values, label=f"local-R{R}")
    t = np.array([upper_bounds[v] for v in instance.agents])
    s = np.array([smoothed[v] for v in instance.agents])
    return SpecialFormSolveResult(t, s, g.g_plus, g.g_minus, solution, R, ratio)


# ----------------------------------------------------------------------
# §4: the transformation pipeline, stage object by stage object
# ----------------------------------------------------------------------
def to_special_form(
    instance: MaxMinInstance, *, verify: bool = True, name: Optional[str] = None
) -> TransformResult:
    """Apply :func:`~repro.transforms.pipeline.canonical_transforms` one by one."""
    require_nondegenerate(instance)
    result = apply_chain(instance, canonical_transforms(), name=name or "to-special-form (§4)")
    if verify:
        require_special_form(result.transformed)
    return result


# ----------------------------------------------------------------------
# Degenerate-case preprocessing
# ----------------------------------------------------------------------
def _fixed_point(instance: MaxMinInstance) -> _FixedPoint:
    """The degenerate-structure fixed point as per-node set scans."""
    agents: Set[NodeId] = set(instance.agents)
    constraints: Set[NodeId] = set(instance.constraints)
    objectives: Set[NodeId] = set(instance.objectives)

    forced_zero: List[NodeId] = []
    unconstrained: List[NodeId] = []
    forced_zero_set: Set[NodeId] = set()
    unconstrained_set: Set[NodeId] = set()
    removed_constraints: List[NodeId] = []
    removed_objectives: List[NodeId] = []
    optimum_is_zero = False

    # Isolated objectives in the *original* instance force the optimum to 0.
    for k in instance.objectives:
        if not instance.agents_of_objective(k):
            optimum_is_zero = True

    # Each phase walks its nodes in canonical order, like the production
    # fixed point: the removal lists (and so the lift) must not depend on
    # set iteration order, which varies with PYTHONHASHSEED.
    peel_rounds = 0
    changed = True
    while changed:
        changed = False
        peel_rounds += 1

        # Constraints with no surviving agents are trivially satisfied.
        for i in instance.constraints:
            if i in constraints and not any(v in agents for v in instance.agents_of_constraint(i)):
                constraints.discard(i)
                removed_constraints.append(i)
                changed = True

        # Unconstrained agents: every objective containing one never binds.
        freed: Set[NodeId] = set()
        for v in instance.agents:
            if v in agents and not any(i in constraints for i in instance.constraints_of_agent(v)):
                agents.discard(v)
                unconstrained.append(v)
                unconstrained_set.add(v)
                freed.update(instance.objectives_of_agent(v))
                changed = True
        for k in instance.objectives:
            if k in freed and k in objectives:
                objectives.discard(k)
                removed_objectives.append(k)

        # Objectives that lost all their agents (but had some originally)
        # would force the optimum to 0 — unless they were removed above
        # because an unconstrained agent can satisfy them.
        for k in instance.objectives:
            if k not in objectives:
                continue
            members = [v for v in instance.agents_of_objective(k) if v in agents]
            originally_empty = not instance.agents_of_objective(k)
            if not members:
                objectives.discard(k)
                removed_objectives.append(k)
                if not originally_empty:
                    # All its agents were forced to zero: the objective value
                    # is stuck at 0, hence the optimum is 0.
                    survivors_were_zeroed = any(
                        v in forced_zero_set for v in instance.agents_of_objective(k)
                    )
                    unconstrained_members = any(
                        v in unconstrained_set for v in instance.agents_of_objective(k)
                    )
                    if survivors_were_zeroed and not unconstrained_members:
                        optimum_is_zero = True
                if originally_empty:
                    optimum_is_zero = True
                changed = True

        # Non-contributing agents: no surviving objective.
        for v in instance.agents:
            if v in agents and not any(k in objectives for k in instance.objectives_of_agent(v)):
                agents.discard(v)
                forced_zero.append(v)
                forced_zero_set.add(v)
                changed = True

    obs.count("preprocess.peel_rounds", peel_rounds)
    return _FixedPoint(
        [v for v in instance.agents if v in agents],
        [i for i in instance.constraints if i in constraints],
        [k for k in instance.objectives if k in objectives],
        forced_zero,
        unconstrained,
        removed_constraints,
        removed_objectives,
        optimum_is_zero,
    )


def preprocess(instance: MaxMinInstance) -> PreprocessResult:
    """Remove degenerate structure with per-node scans (never cached)."""
    return _result_from_fixed_point(instance, _fixed_point(instance))


# ----------------------------------------------------------------------
# §1.3: the safe baseline
# ----------------------------------------------------------------------
def safe_solution(
    instance: MaxMinInstance, variant: str = "degree", delta_I: int = 0
) -> Solution:
    """``x_v = min_{i ∈ I_v} 1/(λ_i a_iv)`` agent by agent, edge by edge."""
    divisor_global = _check_variant(instance, variant, delta_I)
    values: Dict[NodeId, float] = {}
    for v in instance.agents:
        best = math.inf
        for i in instance.constraints_of_agent(v):
            if variant == "degree":
                divisor = len(instance.agents_of_constraint(i))
            else:
                divisor = divisor_global
            candidate = 1.0 / (divisor * instance.a(i, v))
            if candidate < best:
                best = candidate
        if math.isinf(best):
            raise InvalidInstanceError(
                f"agent {v!r} has no constraints; preprocess the instance before the safe algorithm"
            )
        values[v] = best
    return Solution(instance, values, label=f"safe-{variant}")


# ----------------------------------------------------------------------
# Solution evaluation through the value dict
# ----------------------------------------------------------------------
def objective_values(solution: Solution) -> Dict[NodeId, float]:
    """``ω_k(x)`` for every objective, one dict sum per objective."""
    return {k: solution.objective_value(k) for k in solution.instance.objectives}


def utility(solution: Solution) -> float:
    """``ω(x) = min_k ω_k(x)``; ``inf`` when the instance has no objective."""
    if not solution.instance.objectives:
        return math.inf
    return min(objective_values(solution).values())


def bottleneck_objectives(solution: Solution, tol: float = 1e-9) -> Tuple[NodeId, ...]:
    """The objectives attaining the minimum utility (within ``tol``)."""
    vals = objective_values(solution)
    if not vals:
        return ()
    best = min(vals.values())
    return tuple(k for k, val in vals.items() if val <= best + tol)


def check_feasibility(
    solution: Solution, tol: float = DEFAULT_FEASIBILITY_TOL
) -> FeasibilityReport:
    """Non-negativity and every packing constraint, one dict sum per constraint.

    NaN fails ``load ≤ 1 + tol`` and ``x ≥ −tol``; a NaN load exceeds 1 by ``inf``.
    """
    violated = []
    max_violation = 0.0
    for i in solution.instance.constraints:
        load = solution.constraint_load(i)
        if not load <= 1.0 + tol:
            violated.append((i, load))
            max_violation = max(max_violation, math.inf if math.isnan(load) else load - 1.0)
    negative = tuple((v, x) for v, x in solution.as_dict().items() if not x >= -tol)
    return FeasibilityReport(
        feasible=not violated and not negative,
        max_violation=max_violation,
        violated_constraints=tuple(violated),
        negative_agents=negative,
        tol=tol,
    )
