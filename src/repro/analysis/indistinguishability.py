"""Locality lower bounds via view indistinguishability (experiment E2).

A deterministic local algorithm with horizon ``D`` in the port-numbering
model is a function of the agent's radius-``D`` view tree: agents with
isomorphic views — within one instance or across two different instances —
necessarily output the same value.  Given a *collection* of instances, the
best any such algorithm can do is therefore the optimum of a single linear
program over "one value per view class":

.. math::

    \\max t \\;\\text{s.t.}\\; A^{(j)} y \\le 1,\\;
    C^{(j)} y \\ge t\\,\\omega^*_j \\quad\\forall j, \\qquad y \\ge 0,

where ``y`` has one coordinate per view-equivalence class and ``ω*_j`` is
instance ``j``'s true optimum.  The value ``1/t*`` is a *computational lower
bound* on the approximation ratio of every local algorithm with horizon
``D`` (for the specific port numbering used; the adversarial bound of
Theorem 1 can only be larger).  Experiment E2 evaluates this bound on the
instance pairs from :mod:`repro.generators.lower_bound` and compares it with
the paper's threshold ``ΔI (1 − 1/ΔK)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._types import GraphNode, NodeId, agent_node
from ..core.instance import MaxMinInstance
from ..core.lp import solve_maxmin_lp
from ..exceptions import SolverError
from .views import CommunicationNetwork, ViewTree, build_network

__all__ = [
    "build_view",
    "view_signature",
    "agent_view_classes",
    "IndistinguishabilityResult",
    "best_local_ratio_bound",
]


def build_view(network: CommunicationNetwork, node: GraphNode, depth: int) -> ViewTree:
    """The radius-``depth`` view of a node, built directly from the topology.

    Produces exactly the tree the flooding protocol of
    :mod:`repro.oracle.distributed` would deliver after ``depth`` rounds
    (the tests assert this), but without running the runtime — convenient
    for analysis code that needs many views.
    """
    local_input = network.local_input(node)
    if depth <= 0:
        return ViewTree.leaf(local_input)
    children: Dict[int, Tuple[ViewTree, int]] = {}
    for port in range(1, local_input.degree + 1):
        neighbour, remote_port = network.endpoint(node, port)
        children[port] = (build_view(network, neighbour, depth - 1), remote_port)
    return ViewTree.extend(local_input, children)


def view_signature(view: ViewTree, precision: int = 12) -> Tuple:
    """A hashable canonical form of a view tree.

    Two agents receive the same signature iff their views are identical as
    port-labelled trees (kinds, degrees, coefficients rounded to
    ``precision`` digits, and recursively their children).
    """
    coeffs = tuple(
        (port, view.port_kinds[port].value, round(view.port_coefficients.get(port, 0.0), precision))
        for port in sorted(view.port_kinds)
    )
    children = tuple(
        (port, remote, view_signature(child, precision))
        for port, (child, remote) in sorted(view.children.items())
    )
    return (view.kind.value, view.degree, coeffs, children)


def agent_view_classes(
    instances: Sequence[MaxMinInstance],
    depth: int,
    precision: int = 12,
) -> Dict[Tuple[int, NodeId], int]:
    """Partition all agents of all instances into view-equivalence classes.

    Returns a mapping ``(instance_index, agent_id) -> class_index``.
    """
    signature_to_class: Dict[Tuple, int] = {}
    assignment: Dict[Tuple[int, NodeId], int] = {}
    for idx, instance in enumerate(instances):
        network = build_network(instance)
        for v in instance.agents:
            view = build_view(network, agent_node(v), depth)
            signature = view_signature(view, precision)
            if signature not in signature_to_class:
                signature_to_class[signature] = len(signature_to_class)
            assignment[(idx, v)] = signature_to_class[signature]
    return assignment


class IndistinguishabilityResult:
    """Result of the joint view-class LP.

    Attributes
    ----------
    t_star:
        Best achievable ``min_j utility_j / optimum_j`` for any assignment
        that is constant on view classes.
    ratio_lower_bound:
        ``1 / t_star`` — no local algorithm with this horizon can have a
        better worst-case ratio on the given instances.
    num_classes:
        Number of view-equivalence classes.
    optima:
        The exact optima of the instances.
    horizon:
        The view radius ``D`` used.
    """

    __slots__ = ("t_star", "ratio_lower_bound", "num_classes", "optima", "horizon")

    def __init__(self, t_star: float, num_classes: int, optima: List[float], horizon: int) -> None:
        self.t_star = t_star
        self.num_classes = num_classes
        self.optima = optima
        self.horizon = horizon
        self.ratio_lower_bound = math.inf if t_star <= 0 else 1.0 / t_star

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndistinguishabilityResult(horizon={self.horizon}, classes={self.num_classes}, "
            f"ratio_lower_bound={self.ratio_lower_bound:.4f})"
        )


def best_local_ratio_bound(
    instances: Sequence[MaxMinInstance],
    horizon: int,
    *,
    precision: int = 12,
    method: str = "highs",
) -> IndistinguishabilityResult:
    """Solve the joint view-class LP described in the module docstring."""
    from scipy import sparse
    from scipy.optimize import linprog

    instances = list(instances)
    if not instances:
        raise SolverError("need at least one instance")

    classes = agent_view_classes(instances, horizon, precision)
    num_classes = 1 + max(classes.values()) if classes else 0
    optima = [solve_maxmin_lp(instance).optimum for instance in instances]

    # Variables: y_0 … y_{num_classes-1}, t.
    num_vars = num_classes + 1
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    b_ub: List[float] = []
    row_index = 0

    for idx, instance in enumerate(instances):
        for i in instance.constraints:
            for v in instance.agents_of_constraint(i):
                rows.append(row_index)
                cols.append(classes[(idx, v)])
                data.append(instance.a(i, v))
            b_ub.append(1.0)
            row_index += 1
        for k in instance.objectives:
            # t * opt_idx − Σ c_kv y_class(v) ≤ 0
            for v in instance.agents_of_objective(k):
                rows.append(row_index)
                cols.append(classes[(idx, v)])
                data.append(-instance.c(k, v))
            rows.append(row_index)
            cols.append(num_classes)
            data.append(optima[idx])
            b_ub.append(0.0)
            row_index += 1

    a_ub = sparse.csr_matrix(
        (np.asarray(data), (np.asarray(rows), np.asarray(cols))), shape=(row_index, num_vars)
    )
    cost = np.zeros(num_vars)
    cost[num_classes] = -1.0
    result = linprog(cost, A_ub=a_ub, b_ub=np.asarray(b_ub), bounds=[(0.0, None)] * num_vars, method=method)
    if not result.success:
        raise SolverError(f"indistinguishability LP failed: {result.message}")

    t_star = float(result.x[num_classes])
    return IndistinguishabilityResult(t_star, num_classes, optima, horizon)
