"""Exact (global, centralized) solution of max-min LPs via :mod:`scipy`.

The max-min LP

.. math::

    \\max \\omega \\quad\\text{s.t.}\\quad A x \\le 1,\\; C x \\ge \\omega 1,\\; x \\ge 0

is an ordinary linear program in the variables ``(x, ω)``.  This module
reduces it to the standard form expected by :func:`scipy.optimize.linprog`
(HiGHS backend) using sparse matrices, and wraps the result in library
objects.  scipy is imported inside the functions that call it, so importing
this module (which every CLI command does) does not load it.

The constraint matrix is assembled straight from the instance's compiled CSR
view (:meth:`MaxMinInstance.compiled`): the COO triplets of ``A_ub`` are the
concatenated per-constraint and per-objective adjacency arrays with an
``ω`` column appended — no per-edge Python loop.  A disconnected instance
is one LP like any other: its optimum is the smallest of its components'.

The exact optimum serves two roles in the reproduction:

* it is the denominator of every measured approximation ratio (the paper's
  guarantees are *relative to the global optimum*, which a local algorithm
  cannot compute);
* Lemma 3 states that the tree recursion of §5.2 computes the optimum of the
  finite tree ``A_u`` — the tests cross-check the recursion against this
  solver on those trees.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .. import obs
from .._types import NodeId
from ..exceptions import InvalidInstanceError, SolverError
from .compiled import _segment_gather
from .instance import MaxMinInstance
from .preprocess import preprocess
from .solution import Solution

__all__ = ["LPResult", "solve_maxmin_lp", "optimum_value", "best_response_value"]


class LPResult:
    """Result of an exact max-min LP solve.

    Attributes
    ----------
    optimum:
        The optimal utility ``ω*`` (``0.0`` for instances whose optimum is
        forced to zero, ``math.inf`` for unbounded instances).
    solution:
        An optimal :class:`Solution` (for unbounded instances, a finite
        witness achieving at least the requested ``unbounded_target``).
    status:
        ``"optimal"``, ``"zero"`` or ``"unbounded"``.
    """

    __slots__ = ("optimum", "solution", "status")

    def __init__(self, optimum: float, solution: Solution, status: str) -> None:
        self.optimum = optimum
        self.solution = solution
        self.status = status

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LPResult(optimum={self.optimum:.6g}, status={self.status!r})"


def _assembly_triplets(
    instance: MaxMinInstance,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of the packing and covering rows (without the ω column).

    Row ``r < |I|`` is packing constraint ``r`` (``Σ a_iv x_v ≤ 1``); row
    ``|I| + r`` is covering objective ``r`` (the ``− Σ c_kv x_v`` half of
    ``ω − Σ c_kv x_v ≤ 0``).  Taken directly from the compiled CSR arrays —
    identical entries, in identical order, to the historical per-edge loop.
    """
    comp = instance.compiled()
    n_con = comp.num_constraints
    rows = np.concatenate(
        [
            np.repeat(np.arange(n_con, dtype=np.int64), comp.constraint_degrees),
            n_con
            + np.repeat(
                np.arange(comp.num_objectives, dtype=np.int64), comp.objective_degrees
            ),
        ]
    )
    cols = np.concatenate([comp.cagents_indices, comp.oagents_indices])
    data = np.concatenate([comp.cagents_coeff, -comp.oagents_coeff])
    return rows, cols, data


def _solve_clean(instance: MaxMinInstance) -> LPResult:
    """Solve a non-degenerate instance (every node has positive degree)."""
    from scipy import sparse
    from scipy.optimize import linprog

    n = instance.num_agents
    n_con = instance.num_constraints
    n_obj = instance.num_objectives

    if n == 0 or n_obj == 0:
        # No variables or no objectives: handled by callers; be defensive.
        zero = Solution(instance, {}, label="lp-zero")
        return LPResult(math.inf if n_obj == 0 else 0.0, zero, "unbounded" if n_obj == 0 else "zero")

    with obs.span("lp.assemble", rows=n_con + n_obj, cols=n + 1):
        rows, cols, data = _assembly_triplets(instance)
        # The ω column: coefficient +1 in every covering row.
        rows = np.concatenate([rows, n_con + np.arange(n_obj, dtype=np.int64)])
        cols = np.concatenate([cols, np.full(n_obj, n, dtype=np.int64)])
        data = np.concatenate([data, np.ones(n_obj)])

        a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(n_con + n_obj, n + 1))
        b_ub = np.concatenate([np.ones(n_con), np.zeros(n_obj)])

        cost = np.zeros(n + 1)
        cost[n] = -1.0  # maximise ω

        bounds = [(0.0, None)] * (n + 1)

    with obs.span("lp.linprog"):
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise SolverError(
            f"linprog failed on instance {instance.name!r}: status={result.status}, "
            f"message={result.message!r}"
        )

    omega = float(result.x[n])
    solution = Solution.from_agent_array(
        instance, result.x[:n], label="lp-optimum"
    ).clipped_nonnegative()
    return LPResult(omega, solution, "optimal")


def solve_maxmin_lp(
    instance: MaxMinInstance,
    *,
    unbounded_target: float = 1.0,
) -> LPResult:
    """Compute the exact optimum of a max-min LP.

    Degenerate instances are handled according to §4 of the paper (isolated
    objectives force optimum 0; instances whose every objective contains an
    unconstrained agent are unbounded).

    Parameters
    ----------
    instance:
        The instance to solve (with ``scipy.optimize.linprog``'s HiGHS method).
    unbounded_target:
        For unbounded instances, the returned witness solution achieves at
        least this utility.
    """
    with obs.span("lp.solve", agents=instance.num_agents):
        return _solve_maxmin_lp(instance, unbounded_target)


def _solve_maxmin_lp(instance: MaxMinInstance, unbounded_target: float) -> LPResult:
    pre = preprocess(instance)

    if pre.optimum_is_zero:
        return LPResult(0.0, pre.zero_solution(label="lp-zero"), "zero")

    if pre.optimum_is_unbounded:
        witness = pre.lift(
            Solution(pre.instance, {}, label="lp-unbounded"),
            target_utility=unbounded_target,
        )
        return LPResult(math.inf, witness, "unbounded")

    result = _solve_clean(pre.instance)
    if pre.changed:
        lifted = pre.lift(result.solution, label="lp-optimum")
        return LPResult(result.optimum, lifted, "optimal")
    return result


def optimum_value(instance: MaxMinInstance) -> float:
    """Convenience wrapper returning only the optimal utility."""
    return solve_maxmin_lp(instance).optimum


def best_response_value(
    instance: MaxMinInstance,
    fixed: Dict[NodeId, float],
    free_agent: NodeId,
) -> float:
    """Largest feasible value of ``x_v`` for one agent, all others fixed.

    ``min_{i ∈ I_v} (1 − Σ_{w ≠ v} a_iw x_w) / a_iv`` clipped at 0; ``inf``
    when the agent has no constraints (the
    :meth:`CompiledInstance.agent_constraint_min` convention).  Used by the
    safe baseline tests and by the lower-bound experiment.

    Computed over the compiled CSR view, localized to the free agent's
    constraint rows (gathered via ``con_indptr``/``cagents_indptr``): one
    ordered row-load accumulation with the free agent's own entry zeroed.
    ``np.add.at`` accumulates strictly in edge order (unlike ``reduceat``,
    whose unrolled reduction reassociates the sum), so each row load —
    and hence the result — matches the historical per-constraint Python
    loop bit for bit.
    """
    comp = instance.compiled()
    try:
        free_pos = comp.agent_index[free_agent]
    except KeyError:
        raise InvalidInstanceError(f"unknown agent {free_agent!r}") from None
    own = slice(int(comp.con_indptr[free_pos]), int(comp.con_indptr[free_pos + 1]))
    rows = comp.con_indices[own]
    if not len(rows):
        return math.inf

    x = np.zeros(comp.num_agents, dtype=np.float64)
    for v, value in fixed.items():
        pos = comp.agent_index.get(v)
        if pos is not None:
            x[pos] = value
    x[free_pos] = 0.0  # excluded from every row load (w ≠ v)

    # Σ_{w ≠ v} a_iw x_w over just the rows in I_v, in canonical row order.
    degrees = comp.constraint_degrees[rows]
    flat = _segment_gather(comp.cagents_indptr[rows], degrees)
    members = comp.cagents_indices[flat]
    coeffs = comp.cagents_coeff[flat]
    loads = np.zeros(len(rows), dtype=np.float64)
    np.add.at(
        loads, np.repeat(np.arange(len(rows), dtype=np.int64), degrees), coeffs * x[members]
    )
    best = float(np.min((1.0 - loads) / comp.con_coeff[own]))
    return max(best, 0.0)
