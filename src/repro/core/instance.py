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

:class:`MaxMinInstance` is an immutable value object: all adjacency
structures are precomputed at construction time and the public accessors are
O(1) per call (degrees are bounded by the constants ``ΔI`` and ``ΔK``, so
"per-node work" really is constant — this matters for the locality claims
measured in the benchmarks).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

if TYPE_CHECKING:  # pragma: no cover - networkx loads only where a graph is built
    import networkx as nx

__all__ = ["MaxMinInstance", "DegreeStatistics"]


def _adjacency_from_csr(owners, members, indptr, indices, coeff):
    """Adjacency dicts of one CSR side (trusted, see ``from_arrays``).

    ``owners`` are the row nodes (agents), ``members`` the column nodes
    (constraints or objectives); rows must list members in canonical order.
    Returns ``(coeff_map, rows_of_owner, rows_of_member)`` where
    ``coeff_map`` is keyed ``(member_id, owner_id)`` — the ``(i, v)`` /
    ``(k, v)`` convention of the instance's ``_a`` / ``_c`` dicts — and the
    reverse rows come out sorted by owner canonical position (the same order
    ``__init__``'s insertion + sort produces).
    """
    import numpy as np

    idx = indices.tolist()
    indptr_l = indptr.tolist()
    member_ids = [members[p] for p in idx]
    rows_of_owner = {
        owner: tuple(member_ids[indptr_l[row] : indptr_l[row + 1]])
        for row, owner in enumerate(owners)
    }
    owner_rep = np.repeat(np.arange(len(owners), dtype=np.int64), np.diff(indptr))
    owner_ids = [owners[p] for p in owner_rep.tolist()]
    coeff_map = dict(zip(zip(member_ids, owner_ids), coeff.tolist()))
    order = np.lexsort((owner_rep, indices)).tolist()
    counts = (
        np.bincount(indices, minlength=len(members)).tolist()
        if len(idx)
        else [0] * len(members)
    )
    rows_of_member = {}
    pos = 0
    for m, mid in enumerate(members):
        cnt = counts[m]
        rows_of_member[mid] = tuple(owner_ids[p] for p in order[pos : pos + cnt])
        pos += cnt
    return coeff_map, rows_of_owner, rows_of_member


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

    Raises
    ------
    InvalidInstanceError
        If a coefficient is non-positive or refers to an undeclared node, or
        if identifiers within one node class are duplicated.
    """

    __slots__ = (
        "_agents",
        "_constraints",
        "_objectives",
        "_a",
        "_c",
        "_agents_of_constraint",
        "_agents_of_objective",
        "_constraints_of_agent",
        "_objectives_of_agent",
        "_agent_set",
        "_constraint_set",
        "_objective_set",
        "_graph_cache",
        "_compiled_cache",
        "_transform_cache",
        "_preprocess_cache",
        "name",
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
        self._agents: Tuple[NodeId, ...] = tuple(agents)
        self._constraints: Tuple[NodeId, ...] = tuple(constraints)
        self._objectives: Tuple[NodeId, ...] = tuple(objectives)
        self.name = name

        self._graph_cache: Optional["nx.Graph"] = None
        self._compiled_cache = None
        # §4 pipeline results cached per ``verify`` flag, exactly like
        # the compiled view: the instance is immutable, so a cached
        # TransformResult can never go stale.  Populated by
        # :func:`repro.transforms.pipeline.to_special_form`; an R-sweep that
        # revisits this instance runs the pipeline once.  (The result holds a
        # back-reference to this instance — a plain reference cycle, handled
        # by the cycle collector just like ``_compiled_cache``.)
        self._transform_cache: Optional[dict] = None
        # The preprocessing outcome, cached in one slot (same rationale): a
        # sweep revisiting this instance cleans it once, and the *same*
        # cleaned instance object is reused — which is what keeps the cleaned
        # instance's own compiled/transform caches warm across R values.
        self._preprocess_cache = None

        self._agent_set = frozenset(self._agents)
        self._constraint_set = frozenset(self._constraints)
        self._objective_set = frozenset(self._objectives)

        if len(self._agent_set) != len(self._agents):
            raise InvalidInstanceError("duplicate agent identifiers")
        if len(self._constraint_set) != len(self._constraints):
            raise InvalidInstanceError("duplicate constraint identifiers")
        if len(self._objective_set) != len(self._objectives):
            raise InvalidInstanceError("duplicate objective identifiers")

        self._a: CoefficientMap = {}
        self._c: CoefficientMap = {}

        agents_of_constraint: Dict[NodeId, List[NodeId]] = {i: [] for i in self._constraints}
        agents_of_objective: Dict[NodeId, List[NodeId]] = {k: [] for k in self._objectives}
        constraints_of_agent: Dict[NodeId, List[NodeId]] = {v: [] for v in self._agents}
        objectives_of_agent: Dict[NodeId, List[NodeId]] = {v: [] for v in self._agents}

        # Canonical identity maps: coefficient keys may be equal-but-distinct
        # objects (e.g. ``numpy.str_`` leaking out of a generator's sampling).
        # Normalising them to the *declared* node objects keeps every derived
        # structure — reprs, JSON sort order, hashes, content digests —
        # dependent only on node values, never on key object identity.
        canon_agent: Dict[NodeId, NodeId] = {v: v for v in self._agents}
        canon_constraint: Dict[NodeId, NodeId] = {i: i for i in self._constraints}
        canon_objective: Dict[NodeId, NodeId] = {k: k for k in self._objectives}

        for (i, v), coeff in a.items():
            if i not in agents_of_constraint:
                raise InvalidInstanceError(f"coefficient a[{i!r}, {v!r}] refers to unknown constraint {i!r}")
            if v not in constraints_of_agent:
                raise InvalidInstanceError(f"coefficient a[{i!r}, {v!r}] refers to unknown agent {v!r}")
            i = canon_constraint[i]
            v = canon_agent[v]
            coeff = float(coeff)
            if not math.isfinite(coeff) or coeff <= 0.0:
                raise InvalidInstanceError(
                    f"constraint coefficient a[{i!r}, {v!r}] = {coeff} must be positive and finite"
                )
            if (i, v) in self._a:
                raise InvalidInstanceError(f"duplicate constraint coefficient for ({i!r}, {v!r})")
            self._a[(i, v)] = coeff
            agents_of_constraint[i].append(v)
            constraints_of_agent[v].append(i)

        for (k, v), coeff in c.items():
            if k not in agents_of_objective:
                raise InvalidInstanceError(f"coefficient c[{k!r}, {v!r}] refers to unknown objective {k!r}")
            if v not in objectives_of_agent:
                raise InvalidInstanceError(f"coefficient c[{k!r}, {v!r}] refers to unknown agent {v!r}")
            k = canon_objective[k]
            v = canon_agent[v]
            coeff = float(coeff)
            if not math.isfinite(coeff) or coeff <= 0.0:
                raise InvalidInstanceError(
                    f"objective coefficient c[{k!r}, {v!r}] = {coeff} must be positive and finite"
                )
            if (k, v) in self._c:
                raise InvalidInstanceError(f"duplicate objective coefficient for ({k!r}, {v!r})")
            self._c[(k, v)] = coeff
            agents_of_objective[k].append(v)
            objectives_of_agent[v].append(k)

        # Freeze adjacency lists (sorted by insertion order of node tuples for
        # determinism; the declared node order defines the canonical order).
        agent_order = {v: idx for idx, v in enumerate(self._agents)}
        constraint_order = {i: idx for idx, i in enumerate(self._constraints)}
        objective_order = {k: idx for idx, k in enumerate(self._objectives)}

        self._agents_of_constraint: Dict[NodeId, Tuple[NodeId, ...]] = {
            i: tuple(sorted(vs, key=agent_order.__getitem__)) for i, vs in agents_of_constraint.items()
        }
        self._agents_of_objective: Dict[NodeId, Tuple[NodeId, ...]] = {
            k: tuple(sorted(vs, key=agent_order.__getitem__)) for k, vs in agents_of_objective.items()
        }
        self._constraints_of_agent: Dict[NodeId, Tuple[NodeId, ...]] = {
            v: tuple(sorted(is_, key=constraint_order.__getitem__))
            for v, is_ in constraints_of_agent.items()
        }
        self._objectives_of_agent: Dict[NodeId, Tuple[NodeId, ...]] = {
            v: tuple(sorted(ks, key=objective_order.__getitem__))
            for v, ks in objectives_of_agent.items()
        }

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
        return len(self._a) + len(self._c)

    @property
    def agent_set(self) -> "frozenset[NodeId]":
        """The agents as a frozenset (for C-speed membership batch checks)."""
        return self._agent_set

    def has_agent(self, v: NodeId) -> bool:
        return v in self._agent_set

    def has_constraint(self, i: NodeId) -> bool:
        return i in self._constraint_set

    def has_objective(self, k: NodeId) -> bool:
        return k in self._objective_set

    # ------------------------------------------------------------------
    # Coefficients and adjacency
    # ------------------------------------------------------------------
    def a(self, i: NodeId, v: NodeId) -> float:
        """The constraint coefficient ``a_iv`` (0.0 if the edge is absent)."""
        return self._a.get((i, v), 0.0)

    def c(self, k: NodeId, v: NodeId) -> float:
        """The objective coefficient ``c_kv`` (0.0 if the edge is absent)."""
        return self._c.get((k, v), 0.0)

    @property
    def a_coefficients(self) -> CoefficientMap:
        """A copy of the sparse constraint coefficient map."""
        return dict(self._a)

    @property
    def c_coefficients(self) -> CoefficientMap:
        """A copy of the sparse objective coefficient map."""
        return dict(self._c)

    def agents_of_constraint(self, i: NodeId) -> Tuple[NodeId, ...]:
        """``V_i``: the agents adjacent to constraint ``i``."""
        try:
            return self._agents_of_constraint[i]
        except KeyError:
            raise InvalidInstanceError(f"unknown constraint {i!r}") from None

    def agents_of_objective(self, k: NodeId) -> Tuple[NodeId, ...]:
        """``V_k``: the agents adjacent to objective ``k``."""
        try:
            return self._agents_of_objective[k]
        except KeyError:
            raise InvalidInstanceError(f"unknown objective {k!r}") from None

    def constraints_of_agent(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``I_v``: the constraints adjacent to agent ``v``."""
        try:
            return self._constraints_of_agent[v]
        except KeyError:
            raise InvalidInstanceError(f"unknown agent {v!r}") from None

    def objectives_of_agent(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``K_v``: the objectives adjacent to agent ``v``."""
        try:
            return self._objectives_of_agent[v]
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
        best = math.inf
        for i in self.constraints_of_agent(v):
            cap = 1.0 / self._a[(i, v)]
            if cap < best:
                best = cap
        return best

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
                total += self._c[(k, v)] * cap
            if total < best:
                best = total
        return best

    # ------------------------------------------------------------------
    # Degree structure
    # ------------------------------------------------------------------
    @property
    def delta_I(self) -> int:
        """``ΔI = max_i |V_i|`` (0 when there are no constraints)."""
        if not self._constraints:
            return 0
        return max(len(vs) for vs in self._agents_of_constraint.values())

    @property
    def delta_K(self) -> int:
        """``ΔK = max_k |V_k|`` (0 when there are no objectives)."""
        if not self._objectives:
            return 0
        return max(len(vs) for vs in self._agents_of_objective.values())

    def degree_statistics(self) -> DegreeStatistics:
        """Compute :class:`DegreeStatistics` for this instance."""
        max_iv = max((len(x) for x in self._constraints_of_agent.values()), default=0)
        max_kv = max((len(x) for x in self._objectives_of_agent.values()), default=0)
        mean_i = (
            sum(len(x) for x in self._agents_of_constraint.values()) / self.num_constraints
            if self.num_constraints
            else 0.0
        )
        mean_k = (
            sum(len(x) for x in self._agents_of_objective.values()) / self.num_objectives
            if self.num_objectives
            else 0.0
        )
        return DegreeStatistics(
            delta_I=self.delta_I,
            delta_K=self.delta_K,
            max_agent_constraint_degree=max_iv,
            max_agent_objective_degree=max_kv,
            mean_constraint_degree=mean_i,
            mean_objective_degree=mean_k,
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
        out: Dict[str, Tuple[NodeId, ...]] = {}
        iso_i = tuple(i for i in self._constraints if not self._agents_of_constraint[i])
        iso_k = tuple(k for k in self._objectives if not self._agents_of_objective[k])
        no_obj = tuple(v for v in self._agents if not self._objectives_of_agent[v])
        no_con = tuple(v for v in self._agents if not self._constraints_of_agent[v])
        if iso_i:
            out["isolated_constraints"] = iso_i
        if iso_k:
            out["isolated_objectives"] = iso_k
        if no_obj:
            out["non_contributing_agents"] = no_obj
        if no_con:
            out["unconstrained_agents"] = no_con
        return out

    def is_special_form(self, tol: float = 1e-12) -> bool:
        """True if the instance satisfies the §5 preconditions.

        The special form requires ``|V_i| = 2``, ``|V_k| ≥ 2``, ``|K_v| = 1``,
        ``|I_v| ≥ 1`` and ``c_kv = 1`` for every node / edge.

        Evaluated as whole-array degree checks over the cached compiled view
        (this runs before *every* §5 solve, so it must not cost a per-node
        Python loop); :meth:`special_form_violations` remains the per-node
        reporting oracle and defines the semantics.
        """
        import numpy as np

        comp = self.compiled()
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
        problems: List[str] = []
        for i in self._constraints:
            if len(self._agents_of_constraint[i]) != 2:
                problems.append(
                    f"constraint {i!r} has degree {len(self._agents_of_constraint[i])}, expected 2"
                )
        for k in self._objectives:
            if len(self._agents_of_objective[k]) < 2:
                problems.append(
                    f"objective {k!r} has degree {len(self._agents_of_objective[k])}, expected >= 2"
                )
        for v in self._agents:
            if len(self._objectives_of_agent[v]) != 1:
                problems.append(
                    f"agent {v!r} has {len(self._objectives_of_agent[v])} objectives, expected 1"
                )
            if len(self._constraints_of_agent[v]) < 1:
                problems.append(f"agent {v!r} has no constraints")
        for (k, v), coeff in self._c.items():
            if abs(coeff - 1.0) > tol:
                problems.append(f"objective coefficient c[{k!r}, {v!r}] = {coeff} != 1")
        return problems

    def has_zero_one_coefficients(self, tol: float = 1e-12) -> bool:
        """True if every coefficient equals 1 (the {0,1}-coefficient case)."""
        return all(abs(x - 1.0) <= tol for x in self._a.values()) and all(
            abs(x - 1.0) <= tol for x in self._c.values()
        )

    def is_bipartite_maxmin(self) -> bool:
        """True in the paper's "bipartite max-min LP" sense.

        Each agent is adjacent to exactly one constraint and exactly one
        objective (each column of ``A`` and of ``C`` has a single non-zero).
        """
        return all(
            len(self._constraints_of_agent[v]) == 1 and len(self._objectives_of_agent[v]) == 1
            for v in self._agents
        )

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def communication_graph(self) -> "nx.Graph":
        """The communication graph ``G`` as a :class:`networkx.Graph`.

        Nodes are ``(NodeType, id)`` pairs carrying a ``kind`` attribute;
        edges carry the coefficient in attribute ``coeff``.

        The instance is immutable, so the graph is built once and the *same*
        object is returned on every call (``is_connected``, dynamics diffing
        and GraphML export previously each paid a full reconstruction).
        Treat it as read-only — call ``.copy()`` before mutating.
        """
        if self._graph_cache is not None:
            return self._graph_cache
        import networkx as nx

        g = nx.Graph(name=self.name)
        for v in self._agents:
            g.add_node(agent_node(v), kind=NodeType.AGENT)
        for i in self._constraints:
            g.add_node(constraint_node(i), kind=NodeType.CONSTRAINT)
        for k in self._objectives:
            g.add_node(objective_node(k), kind=NodeType.OBJECTIVE)
        for (i, v), coeff in self._a.items():
            g.add_edge(constraint_node(i), agent_node(v), coeff=coeff)
        for (k, v), coeff in self._c.items():
            g.add_edge(objective_node(k), agent_node(v), coeff=coeff)
        self._graph_cache = g
        return g

    def compiled(self) -> "CompiledInstance":
        """The cached :class:`~repro.core.compiled.CompiledInstance` view.

        Lowers the instance to int-indexed CSR arrays for the vectorized
        solver kernels; built on first call and reused afterwards (the
        instance is immutable, so the view can never go stale).
        """
        if self._compiled_cache is None:
            from .. import obs
            from .compiled import CompiledInstance

            obs.count("compile.builds")
            self._compiled_cache = CompiledInstance(self)
        return self._compiled_cache

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
        """True if the communication graph is connected (or empty)."""
        if self.num_nodes == 0:
            return True
        import networkx as nx

        return nx.is_connected(self.communication_graph())

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
        agents: Sequence[NodeId],
        constraints: Sequence[NodeId],
        objectives: Sequence[NodeId],
        name: Optional[str] = None,
    ) -> "MaxMinInstance":
        """Restrict the instance to the given node subsets.

        Coefficients are kept only when both endpoints survive.  The canonical
        order of the parent instance is preserved.
        """
        agent_sel = set(agents)
        constraint_sel = set(constraints)
        objective_sel = set(objectives)
        a = {
            (i, v): coeff
            for (i, v), coeff in self._a.items()
            if i in constraint_sel and v in agent_sel
        }
        c = {
            (k, v): coeff
            for (k, v), coeff in self._c.items()
            if k in objective_sel and v in agent_sel
        }
        return MaxMinInstance(
            agents=[v for v in self._agents if v in agent_sel],
            constraints=[i for i in self._constraints if i in constraint_sel],
            objectives=[k for k in self._objectives if k in objective_sel],
            a=a,
            c=c,
            name=name or f"{self.name}#sub",
        )

    # ------------------------------------------------------------------
    # Equality / hashing / representation
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "MaxMinInstance", tol: float = 0.0) -> bool:
        """True if both instances have identical nodes, edges and coefficients.

        With ``tol > 0`` coefficients may differ by at most ``tol``.
        """
        if (
            set(self._agents) != set(other._agents)
            or set(self._constraints) != set(other._constraints)
            or set(self._objectives) != set(other._objectives)
            or set(self._a) != set(other._a)
            or set(self._c) != set(other._c)
        ):
            return False
        for key, val in self._a.items():
            if abs(val - other._a[key]) > tol:
                return False
        for key, val in self._c.items():
            if abs(val - other._c[key]) > tol:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxMinInstance):
            return NotImplemented
        return self.structurally_equal(other, tol=0.0)

    def __hash__(self) -> int:
        return hash(
            (
                self._agents,
                self._constraints,
                self._objectives,
                tuple(sorted(self._a.items(), key=repr)),
                tuple(sorted(self._c.items(), key=repr)),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaxMinInstance(name={self.name!r}, |V|={self.num_agents}, "
            f"|I|={self.num_constraints}, |K|={self.num_objectives}, "
            f"deltaI={self.delta_I}, deltaK={self.delta_K})"
        )

    # ------------------------------------------------------------------
    # Serialization helpers (thin; full logic lives in repro.io)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible dictionary (node ids are converted to strings
        only by :mod:`repro.io.serialization`; here they are passed through).
        """
        return {
            "name": self.name,
            "agents": list(self._agents),
            "constraints": list(self._constraints),
            "objectives": list(self._objectives),
            "a": [[i, v, coeff] for (i, v), coeff in sorted(self._a.items(), key=repr)],
            "c": [[k, v, coeff] for (k, v), coeff in sorted(self._c.items(), key=repr)],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MaxMinInstance":
        """Inverse of :meth:`to_dict`."""
        a = {(i, v): float(coeff) for i, v, coeff in data["a"]}  # type: ignore[index]
        c = {(k, v): float(coeff) for k, v, coeff in data["c"]}  # type: ignore[index]
        return cls(
            agents=list(data["agents"]),  # type: ignore[arg-type]
            constraints=list(data["constraints"]),  # type: ignore[arg-type]
            objectives=list(data["objectives"]),  # type: ignore[arg-type]
            a=a,
            c=c,
            name=str(data.get("name", "max-min-lp")),
        )

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
        compile: bool = True,
    ) -> "MaxMinInstance":
        """Trusted constructor from pre-validated CSR arrays.

        ``con_*`` holds the per-agent constraint edges (``con_indices`` are
        positions into ``constraints``, rows in canonical adjacency order),
        ``obj_*`` the per-agent objective edges.  The caller vouches that the
        arrays describe a valid instance — node identifiers unique,
        coefficients positive and finite, no duplicate edges, rows sorted by
        member canonical position — so the O(E) re-validation and adjacency
        sorting of ``__init__`` is skipped (it dominates ``preprocess()`` and
        delta application at n ≈ 1e4).  With ``compile=True`` the matching
        :class:`~repro.core.compiled.CompiledInstance` is attached to the
        compiled-view cache directly from the same arrays, so the Python-loop
        lowering is skipped as well.  The result is indistinguishable (equal
        dicts, digest, hash, compiled arrays) from declaring the instance via
        ``__init__``.
        """
        self = cls.__new__(cls)
        self._agents = tuple(agents)
        self._constraints = tuple(constraints)
        self._objectives = tuple(objectives)
        self.name = name
        self._graph_cache = None
        self._compiled_cache = None
        self._transform_cache = None
        self._preprocess_cache = None
        self._agent_set = frozenset(self._agents)
        self._constraint_set = frozenset(self._constraints)
        self._objective_set = frozenset(self._objectives)
        self._a, self._constraints_of_agent, self._agents_of_constraint = _adjacency_from_csr(
            self._agents, self._constraints, con_indptr, con_indices, con_coeff
        )
        self._c, self._objectives_of_agent, self._agents_of_objective = _adjacency_from_csr(
            self._agents, self._objectives, obj_indptr, obj_indices, obj_coeff
        )
        if compile:
            from .. import obs
            from .compiled import CompiledInstance

            obs.count("compile.from_arrays")
            self._compiled_cache = CompiledInstance.from_arrays(
                self, con_indptr, con_indices, con_coeff, obj_indptr, obj_indices, obj_coeff
            )
        return self
