"""The :class:`MaxMinInstance` data model.

A max-min linear program (max-min LP) in the sense of Floréen, Kaasinen,
Kaski and Suomela (SPAA 2009) is

.. math::

    \\text{maximise } \\omega(x) = \\min_{k \\in K} \\sum_{v \\in V_k} c_{kv} x_v
    \\quad\\text{subject to}\\quad
    \\sum_{v \\in V_i} a_{iv} x_v \\le 1 \\;\\forall i \\in I, \\qquad x \\ge 0,

with strictly positive sparse coefficients.  The instance is represented by
its bipartite communication graph: agents ``V`` (variables), constraints
``I`` (rows of ``A``) and objectives ``K`` (rows of ``C``), with an edge
``{v, i}`` whenever ``a_iv > 0`` and an edge ``{v, k}`` whenever
``c_kv > 0``.

:class:`MaxMinInstance` is an immutable value object whose representation
is its compiled CSR arrays (:class:`~repro.core.compiled.CompiledInstance`):
every constructor checks per-agent edge arrays and builds them once.  The
coefficient maps and adjacency dicts behind the per-node accessors
(:meth:`~MaxMinInstance.a`, :meth:`~MaxMinInstance.agents_of_constraint`,
…) are lazy views, built from the arrays on first use, once, under a lock;
from then on those accessors are O(1) per call (degrees are bounded by the
constants ``ΔI`` and ``ΔK``, so "per-node work" really is constant — this
matters for the locality claims measured in the benchmarks).  The solve
paths read the arrays and never build the views.
"""

from __future__ import annotations

import math
import os
import threading
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .._types import (
    CoefficientMap,
    GraphNode,
    NodeId,
    NodeType,
    agent_node,
    constraint_node,
    objective_node,
)
from ..exceptions import InvalidInstanceError
from .compiled import CompiledInstance, _index, _segment_gather

if TYPE_CHECKING:  # pragma: no cover - networkx loads only where a graph is built
    import networkx as nx

__all__ = ["MaxMinInstance", "DegreeStatistics"]


_VIEWS_LOCK = threading.Lock()


def _reinit_lock_after_fork() -> None:
    # A fork taken while another thread builds views must not leave the
    # child's only copy of the lock held forever.
    global _VIEWS_LOCK
    _VIEWS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_lock_after_fork)


def _rows_from_map(
    kind: str,
    symbol: str,
    coeffs: Mapping[Tuple[NodeId, NodeId], float],
    member_index: Dict[NodeId, int],
    agent_index: Dict[NodeId, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-agent CSR rows of a ``(member, agent) -> coefficient`` map.

    Maps every id to its position and orders the edges with one lexsort
    (agent, then member position); :class:`CompiledInstance` checks the
    result.  Raises :class:`InvalidInstanceError` for an undeclared id.
    """
    try:
        members = np.asarray([member_index[m] for m, _ in coeffs], dtype=np.int64)
        owners = np.asarray([agent_index[v] for _, v in coeffs], dtype=np.int64)
    except KeyError:
        m, v = next((m, v) for m, v in coeffs if m not in member_index or v not in agent_index)
        unknown = f"{kind} {m!r}" if m not in member_index else f"agent {v!r}"
        raise InvalidInstanceError(
            f"coefficient {symbol}[{m!r}, {v!r}] refers to unknown {unknown}"
        ) from None
    values = np.fromiter(coeffs.values(), dtype=np.float64, count=len(members))
    order = np.lexsort((members, owners))
    indptr = np.zeros(len(agent_index) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=len(agent_index)), out=indptr[1:])
    return indptr, members[order], values[order]


def _mask(index: Dict[NodeId, int], ids: Iterable[NodeId]) -> np.ndarray:
    """Boolean position mask of the declared ids among ``ids``."""
    mask = np.zeros(len(index), dtype=bool)
    mask[[index[x] for x in ids if x in index]] = True
    return mask


def _is_connected(comp: CompiledInstance) -> bool:
    """Whether agents, constraints and objectives form one component: each
    round every root takes the smallest root across its edges
    (``np.minimum.at``), then pointer jumping flattens the forest."""
    n, n_con = comp.num_agents, comp.num_constraints
    agents = np.arange(n, dtype=np.int64)
    # Node ids: agents, then constraints, then objectives; one (u, w) per edge.
    degrees = np.concatenate([np.diff(comp.con_indptr), np.diff(comp.obj_indptr)])
    u = np.repeat(np.concatenate([agents, agents]), degrees)
    w = np.concatenate([n + comp.con_indices, n + n_con + comp.obj_indices])
    label = np.arange(n + n_con + comp.num_objectives, dtype=np.int64)
    while True:
        lu, lw = label[u], label[w]
        if np.array_equal(lu, lw):
            # Labels are constant on components and name one of their nodes.
            return bool((label == label[0]).all())
        low = np.minimum(lu, lw)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lw, low)
        while not np.array_equal(label, label[label]):
            label = label[label]


def _compact(indptr, indices, coeff, keep_rows, keep_member):
    """The rows ``keep_rows`` (positions) minus every edge into a dropped member.

    ``keep_member`` is a boolean mask over member positions; kept members are
    renumbered in order.  Returns the compacted ``(indptr, indices, coeff)``.
    """
    member_map = np.full(len(keep_member), -1, dtype=np.int64)
    member_map[keep_member] = np.arange(int(keep_member.sum()), dtype=np.int64)
    counts = np.diff(indptr)[keep_rows]
    edges = _segment_gather(indptr[keep_rows], counts)
    owner = np.repeat(np.arange(len(keep_rows), dtype=np.int64), counts)
    keep_e = keep_member[indices[edges]]
    new_indptr = np.zeros(len(keep_rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep_e], minlength=len(keep_rows)), out=new_indptr[1:])
    return new_indptr, member_map[indices[edges[keep_e]]], coeff[edges[keep_e]]


def _side(agents, members, indptr, indices, t_indptr, t_indices, t_coeff):
    """The dict views of one edge family: ``(coeff_map, rows_of_agent, rows_of_member)``.

    ``coeff_map`` is keyed ``(member_id, agent_id)`` in canonical order
    (member-major, agents in canonical order within a member); every row
    lists its nodes in canonical order.
    """
    member_ids = [members[p] for p in indices.tolist()]
    bounds = indptr.tolist()
    rows_of_agent = {
        v: tuple(member_ids[bounds[p] : bounds[p + 1]]) for p, v in enumerate(agents)
    }
    agent_ids = [agents[p] for p in t_indices.tolist()]
    t_bounds = t_indptr.tolist()
    rows_of_member = {
        m: tuple(agent_ids[t_bounds[q] : t_bounds[q + 1]]) for q, m in enumerate(members)
    }
    keys = [(m, v) for m, row in rows_of_member.items() for v in row]
    return dict(zip(keys, t_coeff.tolist())), rows_of_agent, rows_of_member


class _Views:
    """The dict views of one instance, built from its compiled arrays."""

    __slots__ = (
        "a",
        "c",
        "constraints_of_agent",
        "agents_of_constraint",
        "objectives_of_agent",
        "agents_of_objective",
    )

    def __init__(self, comp: CompiledInstance) -> None:
        self.a, self.constraints_of_agent, self.agents_of_constraint = _side(
            comp.agents, comp.constraints, comp.con_indptr, comp.con_indices,
            comp.cagents_indptr, comp.cagents_indices, comp.cagents_coeff,
        )
        self.c, self.objectives_of_agent, self.agents_of_objective = _side(
            comp.agents, comp.objectives, comp.obj_indptr, comp.obj_indices,
            comp.oagents_indptr, comp.oagents_indices, comp.oagents_coeff,
        )


class DegreeStatistics:
    """Summary of the degree structure of an instance.

    Attributes
    ----------
    delta_I:
        Maximum constraint degree ``max_i |V_i|`` (0 if there are no
        constraints).
    delta_K:
        Maximum objective degree ``max_k |V_k|`` (0 if there are no
        objectives).
    max_agent_constraint_degree:
        ``max_v |I_v|``.
    max_agent_objective_degree:
        ``max_v |K_v|``.
    """

    __slots__ = (
        "delta_I",
        "delta_K",
        "max_agent_constraint_degree",
        "max_agent_objective_degree",
        "mean_constraint_degree",
        "mean_objective_degree",
    )

    def __init__(
        self,
        delta_I: int,
        delta_K: int,
        max_agent_constraint_degree: int,
        max_agent_objective_degree: int,
        mean_constraint_degree: float,
        mean_objective_degree: float,
    ) -> None:
        self.delta_I = delta_I
        self.delta_K = delta_K
        self.max_agent_constraint_degree = max_agent_constraint_degree
        self.max_agent_objective_degree = max_agent_objective_degree
        self.mean_constraint_degree = mean_constraint_degree
        self.mean_objective_degree = mean_objective_degree

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary (for reporting)."""
        return {
            "delta_I": self.delta_I,
            "delta_K": self.delta_K,
            "max_agent_constraint_degree": self.max_agent_constraint_degree,
            "max_agent_objective_degree": self.max_agent_objective_degree,
            "mean_constraint_degree": self.mean_constraint_degree,
            "mean_objective_degree": self.mean_objective_degree,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DegreeStatistics(delta_I={self.delta_I}, delta_K={self.delta_K}, "
            f"max|I_v|={self.max_agent_constraint_degree}, "
            f"max|K_v|={self.max_agent_objective_degree})"
        )


class MaxMinInstance:
    """An immutable max-min LP instance.

    Parameters
    ----------
    agents:
        Iterable of agent identifiers (the variables ``x_v``).
    constraints:
        Iterable of constraint identifiers (rows of ``A``).
    objectives:
        Iterable of objective identifiers (rows of ``C``).
    a:
        Mapping ``(constraint_id, agent_id) -> a_iv`` with ``a_iv > 0``.
        Pairs not present are treated as zero (no edge).
    c:
        Mapping ``(objective_id, agent_id) -> c_kv`` with ``c_kv > 0``.
    name:
        Optional human-readable name used in reports.

    The maps are lowered to per-agent CSR rows (ids to positions, one
    lexsort) and built through the same checked path as
    :meth:`from_arrays`.

    Raises
    ------
    InvalidInstanceError
        If a coefficient is not positive and finite or refers to an
        undeclared node, or if identifiers within one node class are
        duplicated.
    """

    __slots__ = (
        "_agents",
        "_constraints",
        "_objectives",
        "_compiled",
        "_views",
        "_graph_cache",
        "_connected",
        "_transform_cache",
        "_preprocess_cache",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        agents: Iterable[NodeId],
        constraints: Iterable[NodeId],
        objectives: Iterable[NodeId],
        a: Mapping[Tuple[NodeId, NodeId], float],
        c: Mapping[Tuple[NodeId, NodeId], float],
        name: str = "max-min-lp",
    ) -> None:
        agents, constraints, objectives = tuple(agents), tuple(constraints), tuple(objectives)
        agent_index = _index(agents, "agent")
        con = _rows_from_map("constraint", "a", a, _index(constraints, "constraint"), agent_index)
        obj = _rows_from_map("objective", "c", c, _index(objectives, "objective"), agent_index)
        self._setup(agents, constraints, objectives, con, obj, name)

    @classmethod
    def from_arrays(
        cls,
        agents: Sequence[NodeId],
        constraints: Sequence[NodeId],
        objectives: Sequence[NodeId],
        con_indptr,
        con_indices,
        con_coeff,
        obj_indptr,
        obj_indices,
        obj_coeff,
        name: str = "max-min-lp",
    ) -> "MaxMinInstance":
        """Build an instance from its per-agent CSR rows.

        ``con_*`` holds the per-agent constraint edges (``con_indices`` are
        positions into ``constraints``), ``obj_*`` the per-agent objective
        edges.  The arrays are checked (unique ids, member positions in
        range, positive finite coefficients, rows strictly increasing — the
        canonical adjacency order, no duplicate edge) and raise the same
        :class:`InvalidInstanceError` a dict declaration would; the result
        is indistinguishable (digest, hash, ``==``, every compiled array and
        every view) from declaring the instance through ``__init__``.
        """
        self = cls.__new__(cls)
        self._setup(
            tuple(agents), tuple(constraints), tuple(objectives),
            (con_indptr, con_indices, con_coeff), (obj_indptr, obj_indices, obj_coeff),
            name,
        )
        return self

    def _with_coefficients(self, con_coeff, obj_coeff, name: str) -> "MaxMinInstance":
        """This instance with new forward coefficient arrays (same edges).

        The edited instance's compiled view shares every topology-derived
        structure with this one (see :class:`CompiledInstance`); the new
        coefficients are checked like every producer's.
        """
        comp = self._compiled
        edited = MaxMinInstance.__new__(MaxMinInstance)
        edited._setup(
            self._agents, self._constraints, self._objectives,
            (comp.con_indptr, comp.con_indices, con_coeff),
            (comp.obj_indptr, comp.obj_indices, obj_coeff),
            name, topology=comp,
        )
        return edited

    def _setup(self, agents, constraints, objectives, con, obj, name, topology=None) -> None:
        """The one construction path: node tuples plus the checked compiled view."""
        from .. import obs

        self._agents: Tuple[NodeId, ...] = agents
        self._constraints: Tuple[NodeId, ...] = constraints
        self._objectives: Tuple[NodeId, ...] = objectives
        self.name = name
        self._views: Optional[_Views] = None
        self._graph_cache: Optional["nx.Graph"] = None
        self._connected: Optional[bool] = None
        # The §4 pipeline result, cached in one slot: the instance is
        # immutable, so a cached TransformResult can never go stale.
        # Populated by :func:`repro.transforms.pipeline.to_special_form`; an
        # R-sweep that revisits this instance runs the pipeline once.  (The
        # result holds a back-reference to this instance — a plain reference
        # cycle, handled by the cycle collector like the compiled view's.)
        self._transform_cache = None
        # The preprocessing outcome, cached in one slot (same rationale): a
        # sweep revisiting this instance cleans it once, and the *same*
        # cleaned instance object is reused — which is what keeps the cleaned
        # instance's own compiled/transform caches warm across R values.
        self._preprocess_cache = None
        obs.count("compile.builds")
        self._compiled = CompiledInstance(self, con, obj, topology)

    def __reduce__(self):
        # Pickled as its arrays: the compiled view's back-reference is weak.
        comp = self._compiled
        return MaxMinInstance.from_arrays, (
            self._agents, self._constraints, self._objectives,
            comp.con_indptr, comp.con_indices, comp.con_coeff,
            comp.obj_indptr, comp.obj_indices, comp.obj_coeff,
            self.name,
        )

    def _view(self) -> _Views:
        """The dict views, built from the arrays on first use (once, under a lock)."""
        views = self._views
        if views is None:
            with _VIEWS_LOCK:
                views = self._views
                if views is None:
                    views = self._views = _Views(self._compiled)
        return views

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def agents(self) -> Tuple[NodeId, ...]:
        """The agents ``V`` in canonical (declaration) order."""
        return self._agents

    @property
    def constraints(self) -> Tuple[NodeId, ...]:
        """The constraints ``I`` in canonical order."""
        return self._constraints

    @property
    def objectives(self) -> Tuple[NodeId, ...]:
        """The objectives ``K`` in canonical order."""
        return self._objectives

    @property
    def num_agents(self) -> int:
        return len(self._agents)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def num_objectives(self) -> int:
        return len(self._objectives)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes of the communication graph."""
        return self.num_agents + self.num_constraints + self.num_objectives

    @property
    def num_edges(self) -> int:
        """Total number of edges of the communication graph."""
        return len(self._compiled.con_indices) + len(self._compiled.obj_indices)

    @property
    def agent_set(self) -> AbstractSet[NodeId]:
        """The agents as a set-like view (for C-speed membership batch checks)."""
        return self._compiled.agent_index.keys()

    def has_agent(self, v: NodeId) -> bool:
        return v in self._compiled.agent_index

    def has_constraint(self, i: NodeId) -> bool:
        return i in self._compiled.constraint_index

    def has_objective(self, k: NodeId) -> bool:
        return k in self._compiled.objective_index

    # ------------------------------------------------------------------
    # Coefficients and adjacency (the lazy dict views)
    # ------------------------------------------------------------------
    def a(self, i: NodeId, v: NodeId) -> float:
        """The constraint coefficient ``a_iv`` (0.0 if the edge is absent)."""
        return self._view().a.get((i, v), 0.0)

    def c(self, k: NodeId, v: NodeId) -> float:
        """The objective coefficient ``c_kv`` (0.0 if the edge is absent)."""
        return self._view().c.get((k, v), 0.0)

    @property
    def a_coefficients(self) -> CoefficientMap:
        """A copy of the sparse constraint coefficient map.

        Keys ``(i, v)`` come in canonical order: constraint-major, each
        constraint's agents in canonical order.
        """
        return dict(self._view().a)

    @property
    def c_coefficients(self) -> CoefficientMap:
        """A copy of the sparse objective coefficient map (canonical order)."""
        return dict(self._view().c)

    def agents_of_constraint(self, i: NodeId) -> Tuple[NodeId, ...]:
        """``V_i``: the agents adjacent to constraint ``i``."""
        try:
            return self._view().agents_of_constraint[i]
        except KeyError:
            raise InvalidInstanceError(f"unknown constraint {i!r}") from None

    def agents_of_objective(self, k: NodeId) -> Tuple[NodeId, ...]:
        """``V_k``: the agents adjacent to objective ``k``."""
        try:
            return self._view().agents_of_objective[k]
        except KeyError:
            raise InvalidInstanceError(f"unknown objective {k!r}") from None

    def constraints_of_agent(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``I_v``: the constraints adjacent to agent ``v``."""
        try:
            return self._view().constraints_of_agent[v]
        except KeyError:
            raise InvalidInstanceError(f"unknown agent {v!r}") from None

    def objectives_of_agent(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``K_v``: the objectives adjacent to agent ``v``."""
        try:
            return self._view().objectives_of_agent[v]
        except KeyError:
            raise InvalidInstanceError(f"unknown agent {v!r}") from None

    def other_agent(self, i: NodeId, v: NodeId) -> NodeId:
        """``n(v, i)``: the unique agent other than ``v`` in a degree-2 constraint.

        Only meaningful for special-form instances where ``|V_i| = 2``.
        """
        members = self.agents_of_constraint(i)
        if len(members) != 2:
            raise InvalidInstanceError(
                f"other_agent requires |V_i| = 2 but constraint {i!r} has degree {len(members)}"
            )
        if members[0] == v:
            return members[1]
        if members[1] == v:
            return members[0]
        raise InvalidInstanceError(f"agent {v!r} is not adjacent to constraint {i!r}")

    def unique_objective(self, v: NodeId) -> NodeId:
        """``k(v)``: the unique objective of agent ``v`` (special form only)."""
        ks = self.objectives_of_agent(v)
        if len(ks) != 1:
            raise InvalidInstanceError(
                f"unique_objective requires |K_v| = 1 but agent {v!r} has {len(ks)} objectives"
            )
        return ks[0]

    def objective_siblings(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``N(v) = V_{k(v)} \\ {v}`` (special form only)."""
        k = self.unique_objective(v)
        return tuple(w for w in self.agents_of_objective(k) if w != v)

    def agent_capacity(self, v: NodeId) -> float:
        """``min_{i ∈ I_v} 1 / a_iv`` — the largest value ``x_v`` can take alone.

        Returns ``math.inf`` for agents with no adjacent constraint.
        """
        pos = self._compiled.agent_index.get(v)
        if pos is None:
            raise InvalidInstanceError(f"unknown agent {v!r}")
        return float(self._compiled.capacity[pos])

    def trivial_upper_bound(self) -> float:
        """A finite upper bound on the optimum of a non-degenerate instance.

        ``min_k Σ_{v ∈ V_k} c_kv · capacity(v)`` — every objective value is at
        most the sum of its agents' individual capacities.
        """
        best = math.inf
        for k in self._objectives:
            total = 0.0
            for v in self.agents_of_objective(k):
                cap = self.agent_capacity(v)
                if math.isinf(cap):
                    total = math.inf
                    break
                total += self.c(k, v) * cap
            if total < best:
                best = total
        return best

    # ------------------------------------------------------------------
    # Degree structure
    # ------------------------------------------------------------------
    @property
    def delta_I(self) -> int:
        """``ΔI = max_i |V_i|`` (0 when there are no constraints)."""
        degrees = self._compiled.constraint_degrees
        return int(degrees.max()) if len(degrees) else 0

    @property
    def delta_K(self) -> int:
        """``ΔK = max_k |V_k|`` (0 when there are no objectives)."""
        degrees = self._compiled.objective_degrees
        return int(degrees.max()) if len(degrees) else 0

    def degree_statistics(self) -> DegreeStatistics:
        """Compute :class:`DegreeStatistics` for this instance."""
        comp = self._compiled
        con_deg = np.diff(comp.con_indptr)
        obj_deg = np.diff(comp.obj_indptr)
        return DegreeStatistics(
            delta_I=self.delta_I,
            delta_K=self.delta_K,
            max_agent_constraint_degree=int(con_deg.max()) if len(con_deg) else 0,
            max_agent_objective_degree=int(obj_deg.max()) if len(obj_deg) else 0,
            mean_constraint_degree=(
                len(comp.con_indices) / self.num_constraints if self.num_constraints else 0.0
            ),
            mean_objective_degree=(
                len(comp.obj_indices) / self.num_objectives if self.num_objectives else 0.0
            ),
        )

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    def is_degenerate(self) -> bool:
        """True if some node has degree 0 (see paper §4, opening remarks)."""
        return bool(self.degeneracies())

    def degeneracies(self) -> Dict[str, Tuple[NodeId, ...]]:
        """Classify degree-0 nodes.

        Returns a dict with keys ``isolated_constraints``,
        ``isolated_objectives``, ``non_contributing_agents`` (agents with no
        objective) and ``unconstrained_agents`` (agents with no constraint);
        only non-empty categories are present.
        """
        comp = self._compiled
        out: Dict[str, Tuple[NodeId, ...]] = {}
        for category, nodes, degrees in (
            ("isolated_constraints", self._constraints, comp.constraint_degrees),
            ("isolated_objectives", self._objectives, comp.objective_degrees),
            ("non_contributing_agents", self._agents, np.diff(comp.obj_indptr)),
            ("unconstrained_agents", self._agents, np.diff(comp.con_indptr)),
        ):
            found = tuple(nodes[p] for p in np.flatnonzero(degrees == 0).tolist())
            if found:
                out[category] = found
        return out

    def is_special_form(self, tol: float = 1e-12) -> bool:
        """True if the instance satisfies the §5 preconditions.

        The special form requires ``|V_i| = 2``, ``|V_k| ≥ 2``, ``|K_v| = 1``,
        ``|I_v| ≥ 1`` and ``c_kv = 1`` for every node / edge.

        Evaluated as whole-array degree checks over the compiled arrays (this
        runs before *every* §5 solve, so it must not cost a per-node Python
        loop); :meth:`special_form_violations` remains the per-node
        reporting oracle and defines the semantics.
        """
        comp = self._compiled
        if comp.num_constraints and not bool(
            (np.diff(comp.cagents_indptr) == 2).all()
        ):
            return False
        if comp.num_objectives and not bool(
            (np.diff(comp.oagents_indptr) >= 2).all()
        ):
            return False
        if comp.num_agents:
            if not bool((np.diff(comp.obj_indptr) == 1).all()):
                return False
            if not bool((np.diff(comp.con_indptr) >= 1).all()):
                return False
        if len(comp.oagents_coeff) and not bool(
            (np.abs(comp.oagents_coeff - 1.0) <= tol).all()
        ):
            return False
        return True

    def special_form_violations(self, tol: float = 1e-12) -> List[str]:
        """Human-readable list of §5 precondition violations (empty if none)."""
        views = self._view()
        problems: List[str] = []
        for i in self._constraints:
            if len(views.agents_of_constraint[i]) != 2:
                problems.append(
                    f"constraint {i!r} has degree {len(views.agents_of_constraint[i])}, expected 2"
                )
        for k in self._objectives:
            if len(views.agents_of_objective[k]) < 2:
                problems.append(
                    f"objective {k!r} has degree {len(views.agents_of_objective[k])}, expected >= 2"
                )
        for v in self._agents:
            if len(views.objectives_of_agent[v]) != 1:
                problems.append(
                    f"agent {v!r} has {len(views.objectives_of_agent[v])} objectives, expected 1"
                )
            if len(views.constraints_of_agent[v]) < 1:
                problems.append(f"agent {v!r} has no constraints")
        for (k, v), coeff in views.c.items():
            if abs(coeff - 1.0) > tol:
                problems.append(f"objective coefficient c[{k!r}, {v!r}] = {coeff} != 1")
        return problems

    def has_zero_one_coefficients(self, tol: float = 1e-12) -> bool:
        """True if every coefficient equals 1 (the {0,1}-coefficient case)."""
        comp = self._compiled
        return bool((np.abs(comp.con_coeff - 1.0) <= tol).all()) and bool(
            (np.abs(comp.obj_coeff - 1.0) <= tol).all()
        )

    def is_bipartite_maxmin(self) -> bool:
        """True in the paper's "bipartite max-min LP" sense.

        Each agent is adjacent to exactly one constraint and exactly one
        objective (each column of ``A`` and of ``C`` has a single non-zero).
        """
        comp = self._compiled
        return bool((np.diff(comp.con_indptr) == 1).all()) and bool(
            (np.diff(comp.obj_indptr) == 1).all()
        )

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def communication_graph(self) -> "nx.Graph":
        """The communication graph ``G`` as a :class:`networkx.Graph`.

        Nodes are ``(NodeType, id)`` pairs carrying a ``kind`` attribute;
        edges carry the coefficient in attribute ``coeff``.

        The instance is immutable, so the graph is built once and the *same*
        object is returned on every call (dynamics diffing, components and
        GraphML export previously each paid a full reconstruction).
        Treat it as read-only — call ``.copy()`` before mutating.
        """
        if self._graph_cache is not None:
            return self._graph_cache
        import networkx as nx

        views = self._view()
        g = nx.Graph(name=self.name)
        for v in self._agents:
            g.add_node(agent_node(v), kind=NodeType.AGENT)
        for i in self._constraints:
            g.add_node(constraint_node(i), kind=NodeType.CONSTRAINT)
        for k in self._objectives:
            g.add_node(objective_node(k), kind=NodeType.OBJECTIVE)
        for (i, v), coeff in views.a.items():
            g.add_edge(constraint_node(i), agent_node(v), coeff=coeff)
        for (k, v), coeff in views.c.items():
            g.add_edge(objective_node(k), agent_node(v), coeff=coeff)
        self._graph_cache = g
        return g

    def compiled(self) -> CompiledInstance:
        """The :class:`~repro.core.compiled.CompiledInstance` built at construction.

        The instance's representation: int-indexed CSR arrays for the
        vectorized solver kernels, preprocessing and the §4 pipeline.
        """
        return self._compiled

    def neighbours(self, node: GraphNode) -> Tuple[GraphNode, ...]:
        """Neighbours of a ``(NodeType, id)`` node in the communication graph."""
        kind, name = node
        if kind is NodeType.AGENT:
            return tuple(constraint_node(i) for i in self.constraints_of_agent(name)) + tuple(
                objective_node(k) for k in self.objectives_of_agent(name)
            )
        if kind is NodeType.CONSTRAINT:
            return tuple(agent_node(v) for v in self.agents_of_constraint(name))
        if kind is NodeType.OBJECTIVE:
            return tuple(agent_node(v) for v in self.agents_of_objective(name))
        raise InvalidInstanceError(f"unknown node kind {kind!r}")

    def is_connected(self) -> bool:
        """True if the communication graph is connected (or empty).

        Computed from the compiled arrays once (no graph, no networkx).
        """
        if self._connected is None:
            self._connected = self.num_nodes == 0 or _is_connected(self._compiled)
        return self._connected

    def connected_components(self) -> List["MaxMinInstance"]:
        """Split the instance into one sub-instance per connected component.

        Each component is a max-min LP in its own right; the optimum of the
        whole instance is the minimum of the component optima, and solutions
        of components concatenate to a solution of the whole instance.
        """
        if self.num_nodes == 0:
            return []
        import networkx as nx

        g = self.communication_graph()
        components = []
        for idx, nodes in enumerate(nx.connected_components(g)):
            agents = [n for t, n in nodes if t is NodeType.AGENT]
            constraints = [n for t, n in nodes if t is NodeType.CONSTRAINT]
            objectives = [n for t, n in nodes if t is NodeType.OBJECTIVE]
            components.append(self.sub_instance(agents, constraints, objectives, name=f"{self.name}#cc{idx}"))
        return components

    def sub_instance(
        self,
        agents: Iterable[NodeId],
        constraints: Iterable[NodeId],
        objectives: Iterable[NodeId],
        name: Optional[str] = None,
    ) -> "MaxMinInstance":
        """Restrict the instance to the given node subsets.

        Coefficients are kept only when both endpoints survive.  The canonical
        order of the parent instance is preserved; ids the instance does not
        declare are ignored.  The surviving agent rows are compacted as
        arrays (edges into dropped nodes removed, member positions
        renumbered) and built through :meth:`from_arrays`.
        """
        comp = self._compiled
        keep_agent = _mask(comp.agent_index, agents)
        keep_con = _mask(comp.constraint_index, constraints)
        keep_obj = _mask(comp.objective_index, objectives)
        rows = np.flatnonzero(keep_agent)
        return MaxMinInstance.from_arrays(
            [self._agents[p] for p in rows.tolist()],
            [self._constraints[p] for p in np.flatnonzero(keep_con).tolist()],
            [self._objectives[p] for p in np.flatnonzero(keep_obj).tolist()],
            *_compact(comp.con_indptr, comp.con_indices, comp.con_coeff, rows, keep_con),
            *_compact(comp.obj_indptr, comp.obj_indices, comp.obj_coeff, rows, keep_obj),
            name=name or f"{self.name}#sub",
        )

    # ------------------------------------------------------------------
    # Equality / hashing / representation
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "MaxMinInstance", tol: float = 0.0) -> bool:
        """True if both instances have identical nodes, edges and coefficients.

        With ``tol > 0`` coefficients may differ by at most ``tol``.
        """
        mine, theirs = self._view(), other._view()
        if (
            set(self._agents) != set(other._agents)
            or set(self._constraints) != set(other._constraints)
            or set(self._objectives) != set(other._objectives)
            or set(mine.a) != set(theirs.a)
            or set(mine.c) != set(theirs.c)
        ):
            return False
        for key, val in mine.a.items():
            if abs(val - theirs.a[key]) > tol:
                return False
        for key, val in mine.c.items():
            if abs(val - theirs.c[key]) > tol:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, MaxMinInstance):
            return NotImplemented
        return self.structurally_equal(other, tol=0.0)

    def __hash__(self) -> int:
        views = self._view()
        return hash(
            (
                self._agents,
                self._constraints,
                self._objectives,
                tuple(sorted(views.a.items(), key=repr)),
                tuple(sorted(views.c.items(), key=repr)),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaxMinInstance(name={self.name!r}, |V|={self.num_agents}, "
            f"|I|={self.num_constraints}, |K|={self.num_objectives}, "
            f"deltaI={self.delta_I}, deltaK={self.delta_K})"
        )
