"""Per-agent upper bounds ``t_u`` and the smoothed bounds ``s_v`` (paper §5.2–5.3).

``t_u`` is the optimum of the max-min LP associated with the alternating tree
``A_u``; by Lemma 2 it upper-bounds the utility of *any* feasible solution of
the (unfolded) instance, and by Lemma 3 it equals the largest ``ω`` accepted
by the ``f±`` recursion.  Two interchangeable methods are provided:

* ``"recursion"`` — the paper's practical suggestion: binary search over
  ``ω`` using the recursion's monotone feasibility predicate (no LP solver
  needed, this is what a real distributed implementation would run);
* ``"lp"`` — solve the tree LP exactly with :mod:`scipy` (Lemma 3 says both
  agree; the tests cross-check them).

These per-tree functions are the oracle (:func:`repro.oracle.special_form_solve`),
and it still bisects.  The solver's batched kernel
(:func:`repro.algo.kernels.batched_upper_bounds`) finds the same ``t_u``
with a bracketed secant search in about half the ``f±`` evaluations; both
stop at a feasible ``ω`` within ``tol`` of the maximum, and both read their
default ``tol`` and iteration cap from :mod:`repro.algo.kernels`.

``s_v`` (Eq. before 12) is the minimum of ``t_u`` over all agents ``u``
within graph distance ``4r + 2`` of ``v`` — the *smoothing* step that makes
the locally computed bounds consistent enough for the ``g±`` recursion.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from .. import obs
from .._types import NodeId, NodeType, agent_node
from ..core.instance import MaxMinInstance
from ..core.lp import solve_maxmin_lp
from ..exceptions import SolverError
from .alternating_tree import AlternatingTree, build_alternating_tree
from .kernels import DEFAULT_BISECTION_TOL, MAX_BISECTION_ITERATIONS
from .tree_recursion import recursion_feasible

__all__ = [
    "tree_optimum_binary_search",
    "tree_optimum_lp",
    "tree_optimum",
    "compute_upper_bounds",
    "smooth_upper_bounds",
]


def _search_upper_limit(tree: AlternatingTree) -> float:
    """A finite value that is certainly infeasible-or-optimal for the recursion.

    The utility of the root objective ``k(u)`` can never exceed the sum of the
    individual capacities of its agents (all objective coefficients are 1 in
    the special form), so ``t_u`` is at most that sum.
    """
    instance = tree.instance
    u = tree.root_agent
    k = instance.unique_objective(u)
    total = 0.0
    for w in instance.agents_of_objective(k):
        cap = instance.agent_capacity(w)
        if math.isinf(cap):
            raise SolverError(
                f"agent {w!r} has no constraint; run preprocessing before the local algorithm"
            )
        total += cap
    return total


def tree_optimum_binary_search(
    tree: AlternatingTree,
    tol: float = DEFAULT_BISECTION_TOL,
) -> float:
    """``t_u`` via binary search over the ``f±`` recursion (paper §5.2).

    The feasibility predicate (Eqs. 8–9) is monotone: ``ω = 0`` is always
    feasible and the returned value is within ``tol`` of the true maximum.
    """
    hi = _search_upper_limit(tree)
    if hi <= 0.0:
        return 0.0
    if recursion_feasible(tree, hi):
        return hi
    lo = 0.0
    iterations = 0
    while hi - lo > tol and iterations < MAX_BISECTION_ITERATIONS:
        mid = 0.5 * (lo + hi)
        if recursion_feasible(tree, mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    obs.count("kernels.bisection_iterations", iterations)
    return lo


def tree_optimum_lp(tree: AlternatingTree) -> float:
    """``t_u`` via an exact LP solve of the max-min LP associated with ``A_u``."""
    return solve_maxmin_lp(tree.as_instance()).optimum


def tree_optimum(tree: AlternatingTree, method: str = "recursion", tol: float = DEFAULT_BISECTION_TOL) -> float:
    """Dispatch between the two ``t_u`` computations."""
    if method == "recursion":
        return tree_optimum_binary_search(tree, tol=tol)
    if method == "lp":
        return tree_optimum_lp(tree)
    raise ValueError(f"unknown t_u method {method!r} (expected 'recursion' or 'lp')")


def compute_upper_bounds(
    instance: MaxMinInstance,
    r: int,
    *,
    method: str = "recursion",
    tol: float = DEFAULT_BISECTION_TOL,
    agents: Optional[Iterable[NodeId]] = None,
) -> Dict[NodeId, float]:
    """Compute ``t_u`` for every agent ``u`` (or a subset) of a special-form instance."""
    targets = tuple(agents) if agents is not None else instance.agents
    obs.count("kernels.trees_total", len(targets))
    bounds: Dict[NodeId, float] = {}
    for u in targets:
        tree = build_alternating_tree(instance, u, r, validate=False)
        bounds[u] = tree_optimum(tree, method=method, tol=tol)
    return bounds


def smooth_upper_bounds(
    instance: MaxMinInstance,
    upper_bounds: Dict[NodeId, float],
    r: int,
) -> Dict[NodeId, float]:
    """Smoothing step: ``s_v = min { t_u : dist_G(u, v) ≤ 4r + 2 }``.

    Distances are measured in edges of the communication graph (agents sit at
    even distances from each other).  The minimum always includes ``t_v``
    itself (distance 0).

    Contract: ``upper_bounds`` may cover only a subset of the agents (as
    produced by :func:`compute_upper_bounds` with ``agents=``); agents
    without a bound simply do not participate in any minimum.  A ball that
    contains no bounded agent at all yields ``math.inf`` — the neutral
    element, mirroring an agent whose ``t_u`` is not locally known.
    """
    import networkx as nx

    graph = instance.communication_graph()
    radius = 4 * r + 2
    smoothed: Dict[NodeId, float] = {}
    for v in instance.agents:
        lengths = nx.single_source_shortest_path_length(graph, agent_node(v), cutoff=radius)
        best = math.inf
        for node, _dist in lengths.items():
            kind, name = node
            if kind is NodeType.AGENT:
                t = upper_bounds.get(name)
                if t is not None and t < best:
                    best = t
        smoothed[v] = best
    return smoothed
