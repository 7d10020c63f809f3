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
``ω`` column appended — no per-edge Python loop.  With
``split_components=True`` a disconnected instance is solved in **one**
block-diagonal ``linprog`` call: each connected component gets its own
``ω_j`` column and the objective maximises ``Σ_j ω_j``, which — because the
blocks share no variables or rows — optimises every component independently
and recovers each component's individual optimum from a single solve.

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
from typing import Dict, Optional, Tuple

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


def _solve_clean(instance: MaxMinInstance, method: str) -> LPResult:
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

    with obs.span("lp.linprog", method=method):
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method=method)
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


def _component_labels(instance: MaxMinInstance) -> Tuple[int, np.ndarray]:
    """Connected components of the communication graph, CSR-natively.

    Returns ``(count, objective_labels)`` computed by
    :func:`scipy.sparse.csgraph.connected_components` over the compiled
    bipartite adjacency — no networkx traversal, no per-component
    sub-instance construction.  Only the objective labels matter to the
    block-diagonal solve (they pick each covering row's ``ω_j`` column; the
    agent columns need no labelling because the blocks share no rows).
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    comp = instance.compiled()
    n = comp.num_agents
    n_con = comp.num_constraints
    n_obj = comp.num_objectives
    total = n + n_con + n_obj
    # Node numbering: agents, then constraints, then objectives.
    heads = np.concatenate(
        [
            n + np.repeat(np.arange(n_con, dtype=np.int64), comp.constraint_degrees),
            n + n_con + np.repeat(np.arange(n_obj, dtype=np.int64), comp.objective_degrees),
        ]
    )
    tails = np.concatenate([comp.cagents_indices, comp.oagents_indices])
    graph = sparse.coo_matrix(
        (np.ones(len(heads)), (heads, tails)), shape=(total, total)
    ).tocsr()
    count, labels = csgraph.connected_components(graph, directed=False)
    return count, labels[n + n_con :]


def _solve_components(
    instance: MaxMinInstance, method: str, obj_label: np.ndarray, n_comp: int
) -> LPResult:
    """Solve every connected component in one block-diagonal ``linprog`` call.

    Component ``j`` gets its own column ``ω_j`` and the objective maximises
    ``Σ_j ω_j``; the blocks share nothing, so the single solve optimises each
    component independently — the per-component optima are read off the
    ``ω_j`` entries and the overall optimum is their minimum, exactly the
    semantics of the historical per-component loop (without its per-component
    sub-instance construction and ``linprog`` calls).  Components without
    objectives are vacuously unbounded: they get no ``ω`` column (their
    agents take 0) and are excluded from the minimum — they never trigger an
    LP solve of their own.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n = instance.num_agents
    n_con = instance.num_constraints
    n_obj = instance.num_objectives

    # ω columns only for components that actually have objectives.
    has_objective = np.zeros(n_comp, dtype=bool)
    has_objective[obj_label] = True
    omega_col = np.full(n_comp, -1, dtype=np.int64)
    active = np.flatnonzero(has_objective)
    omega_col[active] = n + np.arange(len(active), dtype=np.int64)
    n_omega = len(active)
    if n_omega == 0:  # pragma: no cover - clean instances always have objectives
        zero = Solution(instance, {}, label="lp-zero")
        return LPResult(math.inf, zero, "unbounded")

    with obs.span("lp.assemble", rows=n_con + n_obj, cols=n + n_omega):
        rows, cols, data = _assembly_triplets(instance)
        rows = np.concatenate([rows, n_con + np.arange(n_obj, dtype=np.int64)])
        cols = np.concatenate([cols, omega_col[obj_label]])
        data = np.concatenate([data, np.ones(n_obj)])

        a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(n_con + n_obj, n + n_omega))
        b_ub = np.concatenate([np.ones(n_con), np.zeros(n_obj)])
        cost = np.zeros(n + n_omega)
        cost[n:] = -1.0  # maximise Σ_j ω_j — decomposes per block
        bounds = [(0.0, None)] * (n + n_omega)

    with obs.span("lp.linprog", method=method, components=n_comp):
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method=method)
    if not result.success:
        raise SolverError(
            f"linprog failed on instance {instance.name!r} "
            f"({n_comp} components): status={result.status}, message={result.message!r}"
        )

    omegas = result.x[n:]
    optimum = float(omegas.min())
    solution = Solution.from_agent_array(
        instance, result.x[:n], label="lp-optimum"
    ).clipped_nonnegative()
    return LPResult(optimum, solution, "optimal")


def solve_maxmin_lp(
    instance: MaxMinInstance,
    *,
    method: str = "highs",
    split_components: bool = False,
    unbounded_target: float = 1.0,
) -> LPResult:
    """Compute the exact optimum of a max-min LP.

    Degenerate instances are handled according to §4 of the paper (isolated
    objectives force optimum 0; instances whose every objective contains an
    unconstrained agent are unbounded).

    Parameters
    ----------
    instance:
        The instance to solve.
    method:
        ``scipy.optimize.linprog`` method (default HiGHS).
    split_components:
        If true, give each connected component its own ``ω_j`` variable and
        report the per-component optima's minimum.  The components are still
        solved in a *single* block-diagonal ``linprog`` call (the matrix is
        block diagonal anyway); component detection runs on the compiled CSR
        arrays, so no per-component sub-instances are built and empty or
        objective-free components never cost an LP solve.
    unbounded_target:
        For unbounded instances, the returned witness solution achieves at
        least this utility.
    """
    with obs.span("lp.solve", agents=instance.num_agents):
        return _solve_maxmin_lp(
            instance,
            method=method,
            split_components=split_components,
            unbounded_target=unbounded_target,
        )


def _solve_maxmin_lp(
    instance: MaxMinInstance,
    *,
    method: str,
    split_components: bool,
    unbounded_target: float,
) -> LPResult:
    pre = preprocess(instance)

    if pre.optimum_is_zero:
        return LPResult(0.0, pre.zero_solution(label="lp-zero"), "zero")

    if pre.optimum_is_unbounded:
        witness = pre.lift(
            Solution(pre.instance, {}, label="lp-unbounded"),
            target_utility=unbounded_target,
        )
        return LPResult(math.inf, witness, "unbounded")

    clean = pre.instance

    if split_components and clean.num_agents:
        n_comp, obj_label = _component_labels(clean)
        if n_comp > 1:
            result = _solve_components(clean, method, obj_label, n_comp)
            if pre.changed:
                lifted = pre.lift(result.solution, label="lp-optimum")
                return LPResult(result.optimum, lifted, result.status)
            return result

    result = _solve_clean(clean, method)
    if pre.changed:
        lifted = pre.lift(result.solution, label="lp-optimum")
        return LPResult(result.optimum, lifted, "optimal")
    return result


def optimum_value(instance: MaxMinInstance, **kwargs: object) -> float:
    """Convenience wrapper returning only the optimal utility."""
    return solve_maxmin_lp(instance, **kwargs).optimum  # type: ignore[arg-type]


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
