"""Locality as a dynamic-graph property — measurement and a streaming workload.

A local algorithm with horizon ``D`` is automatically a dynamic graph
algorithm: when the input changes at one node, only the outputs within
distance ``D`` of the change can be affected (paper §1.3).  This module has
two layers:

* the *oracle* layer (:func:`changed_sites`, :func:`measure_change_impact`)
  finds where two instances differ, re-runs a solver on both, and reports
  how far from the change any output actually moved — the tests assert no
  output changes outside the horizon;
* the *streaming* layer (:class:`DynamicNetwork`) turns the locality bound
  into an incremental solver: it holds an
  :class:`~repro.algo.local_solver.IncrementalSolveState`, applies churn
  tick by tick via :class:`~repro.core.delta.CompiledDelta`, re-solves
  only the dirty r-ball, and (in ``verify`` mode) checks every tick against
  the from-scratch solve and the locality oracle.  The ``maxmin-lp
  dynamics`` CLI command and perfbench's churn-stream workload drive it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from .. import obs
from .._types import GraphNode, NodeId, agent_node
from ..algo.kernels import DEFAULT_BISECTION_TOL
from ..core.compiled import _row_members
from ..core.delta import CompiledDelta, DeltaResult
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..exceptions import SimulationError

__all__ = [
    "ChangeImpact",
    "DynamicNetwork",
    "TickResult",
    "changed_agent_positions",
    "changed_sites",
    "local_horizon_radius",
    "measure_change_impact",
    "random_churn_delta",
]


def local_horizon_radius(R: int) -> int:
    """Graph-distance radius within which the output of the §5 algorithm may depend on the input.

    The distributed protocol runs ``12r + 7`` rounds, but information only
    has to travel along the three phases: view gathering (``4r + 2``),
    smoothing (``4r + 2``) and the ``g`` exchanges (``4r + 2`` edge hops).
    An input change at distance larger than the sum cannot influence an
    agent's output.
    """
    r = R - 2
    return 3 * (4 * r + 2)


def changed_agent_positions(before: MaxMinInstance, after: MaxMinInstance) -> np.ndarray:
    """Positions (in ``after``) of agents incident to any difference.

    The vectorized counterpart of :func:`changed_sites`: when the node
    tuples agree the comparison runs entirely on the compiled CSR arrays —
    equal-topology instances diff in three array comparisons, membership
    changes fall back to a sorted edge-key merge.  Instances with different
    node tuples take the dict-based path and map the sites into ``after``'s
    agent order (vanished agents have no position there; their surviving
    neighbours are flagged through the edges they lost).
    """
    if before is after:
        return np.empty(0, dtype=np.int64)
    bc = before.compiled()
    ac = after.compiled()
    if (
        before.agents == after.agents
        and before.constraints == after.constraints
        and before.objectives == after.objectives
    ):
        n = ac.num_agents
        dirty = np.zeros(n, dtype=bool)
        sides = (
            (bc.con_indptr, bc.con_indices, bc.con_coeff,
             ac.con_indptr, ac.con_indices, ac.con_coeff),
            (bc.obj_indptr, bc.obj_indices, bc.obj_coeff,
             ac.obj_indptr, ac.obj_indices, ac.obj_coeff),
        )
        for b_ip, b_ix, b_co, a_ip, a_ix, a_co in sides:
            if np.array_equal(b_ip, a_ip) and np.array_equal(b_ix, a_ix):
                diff = b_co != a_co
                if diff.any():
                    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(a_ip))
                    dirty[owner[diff]] = True
                continue
            # Membership changed: compare (agent, relay) edge keys.  Forward
            # CSR rows are sorted by member, so owner-major keys are sorted.
            span = max(int(b_ix.max(initial=-1)), int(a_ix.max(initial=-1))) + 1
            b_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(b_ip))
            a_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(a_ip))
            b_key = b_owner * span + b_ix
            a_key = a_owner * span + a_ix
            b_common = np.isin(b_key, a_key)
            a_common = np.isin(a_key, b_key)
            dirty[b_owner[~b_common]] = True
            dirty[a_owner[~a_common]] = True
            pos = np.searchsorted(a_key, b_key[b_common])
            edited = b_co[b_common] != a_co[pos]
            dirty[b_owner[b_common][edited]] = True
        return np.flatnonzero(dirty)

    sites = _changed_sites_dicts(before, after)
    index = ac.agent_index
    positions = sorted(
        index[node_id]
        for kind, node_id in sites
        if node_id in index and after.has_agent(node_id)
    )
    return np.asarray(positions, dtype=np.int64)


def changed_sites(before: MaxMinInstance, after: MaxMinInstance) -> Set[GraphNode]:
    """Graph nodes incident to any structural or coefficient difference."""
    if (
        before.agents == after.agents
        and before.constraints == after.constraints
        and before.objectives == after.objectives
    ):
        positions = changed_agent_positions(before, after)
        return {agent_node(after.agents[int(p)]) for p in positions}
    return _changed_sites_dicts(before, after)


def _changed_sites_dicts(before: MaxMinInstance, after: MaxMinInstance) -> Set[GraphNode]:
    """Dict-based reference diff (handles differing node sets)."""
    sites: Set[GraphNode] = set()

    before_a = before.a_coefficients
    after_a = after.a_coefficients
    for key in set(before_a) | set(after_a):
        if before_a.get(key) != after_a.get(key):
            i, v = key
            sites.add(agent_node(v))
    before_c = before.c_coefficients
    after_c = after.c_coefficients
    for key in set(before_c) | set(after_c):
        if before_c.get(key) != after_c.get(key):
            k, v = key
            sites.add(agent_node(v))

    for v in set(before.agents) ^ set(after.agents):
        sites.add(agent_node(v))
    return sites


class ChangeImpact:
    """How far the effect of a local input change travelled.

    Attributes
    ----------
    changed_agents:
        Agents whose output differs (beyond ``tol``) between the two runs.
    max_distance:
        Largest graph distance from any changed agent to the nearest change
        site (0 when no output changed).
    horizon:
        The radius the algorithm is allowed to look at; locality demands
        ``max_distance ≤ horizon``.
    """

    __slots__ = ("changed_agents", "max_distance", "horizon", "distances")

    def __init__(
        self,
        changed_agents: Tuple[NodeId, ...],
        max_distance: int,
        horizon: int,
        distances: Dict[NodeId, int],
    ) -> None:
        self.changed_agents = changed_agents
        self.max_distance = max_distance
        self.horizon = horizon
        self.distances = distances

    @property
    def is_local(self) -> bool:
        """True when every affected agent lies within the declared horizon."""
        return self.max_distance <= self.horizon

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChangeImpact(changed={len(self.changed_agents)}, "
            f"max_distance={self.max_distance}, horizon={self.horizon}, local={self.is_local})"
        )


def measure_change_impact(
    before: MaxMinInstance,
    after: MaxMinInstance,
    solver: Callable[[MaxMinInstance], Solution],
    horizon: int,
    tol: float = 1e-9,
) -> ChangeImpact:
    """Run ``solver`` on both instances and measure how far outputs moved.

    ``solver`` must be a deterministic function returning a
    :class:`Solution`; agents present in only one instance are ignored.

    The change sites are the agents :func:`changed_sites` returns: the agent
    endpoint of each edited edge, and each added or removed agent.  Each
    changed agent's distance is the smaller of its graph distances to the
    nearest site in the graph before the change and in the graph after it.
    §1.3 bounds how far a change travels in either graph, and neither graph
    alone shows every change: a removed agent or edge exists only before
    the change and an added one only after it, and a site marks only the
    agent end of an edited edge.  An agent that the removal of a node cut
    off from every site, for instance, is far from all of them in the after
    graph though it neighboured the removed node.  An agent that no site
    reaches in either graph reads the larger node count of the two graphs,
    more than any distance within one.
    """
    sites = changed_sites(before, after)
    if not sites:
        raise SimulationError("the two instances are identical; nothing to measure")

    solution_before = solver(before)
    solution_after = solver(after)

    common_agents = [v for v in before.agents if after.has_agent(v)]
    changed: List[NodeId] = [
        v
        for v in common_agents
        if abs(solution_before[v] - solution_after[v]) > tol
    ]

    distances: Dict[NodeId, int] = {}
    max_distance = 0
    if changed:
        site_ids = [node_id for _, node_id in sites]
        unreached = max(before.num_nodes, after.num_nodes)
        graphs = []
        for inst in (before, after):
            comp = inst.compiled()
            sources = [comp.agent_index[v] for v in site_ids if v in comp.agent_index]
            graphs.append((comp.agent_index, _agent_distances(comp, sources)))
        for v in changed:
            reached = [int(dist[index[v]]) for index, dist in graphs if dist[index[v]] >= 0]
            distances[v] = min(reached, default=unreached)
            max_distance = max(max_distance, distances[v])

    return ChangeImpact(tuple(changed), max_distance, horizon, distances)


def _agent_distances(comp, sources: List[int]) -> np.ndarray:
    """Graph distance from the nearest of the ``sources`` agents, per agent (−1: unreached).

    A multi-source breadth-first search over the compiled CSR rows of the
    communication graph, two edges a round: from the frontier agents to
    their constraints and objectives, and from those to their agents.
    """
    dist = np.full(comp.num_agents, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    seen_con = np.zeros(comp.num_constraints, dtype=bool)
    seen_obj = np.zeros(comp.num_objectives, dtype=bool)
    hops = 0
    while len(frontier):
        hops += 2
        cons = _row_members(comp.con_indptr, comp.con_indices, frontier)
        cons = np.unique(cons[~seen_con[cons]])
        seen_con[cons] = True
        objs = _row_members(comp.obj_indptr, comp.obj_indices, frontier)
        objs = np.unique(objs[~seen_obj[objs]])
        seen_obj[objs] = True
        reached = np.concatenate([
            _row_members(comp.cagents_indptr, comp.cagents_indices, cons),
            _row_members(comp.oagents_indptr, comp.oagents_indices, objs),
        ])
        frontier = np.unique(reached[dist[reached] < 0])
        dist[frontier] = hops
    return dist


class TickResult:
    """What one :meth:`DynamicNetwork.apply` tick did.

    Attributes
    ----------
    tick:
        1-based tick number.
    num_agents:
        Agents in the instance *after* the tick.
    dirty_agents:
        Agent positions (new indexing) whose adjacency or coefficients the
        delta touched — the seeds of the confined re-solve.
    recomputed_agents:
        Agent positions whose kernel state was actually recomputed (the
        ``6r+3``-hop ball around the seeds); everything else was reused.
    structural:
        Whether the delta changed the topology (not just coefficients).
    impact:
        The :class:`ChangeImpact` oracle measurement (``verify`` mode only).
    max_error:
        Max abs deviation of the incremental ``x`` from a from-scratch solve
        (``verify`` mode only; the invariant is bitwise, so this is 0.0).
    """

    __slots__ = (
        "tick",
        "num_agents",
        "dirty_agents",
        "recomputed_agents",
        "structural",
        "impact",
        "max_error",
    )

    def __init__(
        self,
        tick: int,
        num_agents: int,
        dirty_agents: np.ndarray,
        recomputed_agents: np.ndarray,
        structural: bool,
        impact: Optional[ChangeImpact] = None,
        max_error: Optional[float] = None,
    ) -> None:
        self.tick = tick
        self.num_agents = num_agents
        self.dirty_agents = dirty_agents
        self.recomputed_agents = recomputed_agents
        self.structural = structural
        self.impact = impact
        self.max_error = max_error

    @property
    def reused_agents(self) -> int:
        """Agents whose retained kernel state survived the tick untouched."""
        return self.num_agents - len(self.recomputed_agents)

    @property
    def is_local(self) -> bool:
        """True unless the verify oracle saw an output move beyond the horizon."""
        return self.impact is None or self.impact.is_local

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TickResult(tick={self.tick}, dirty={len(self.dirty_agents)}, "
            f"recomputed={len(self.recomputed_agents)}, reused={self.reused_agents}, "
            f"structural={self.structural})"
        )


class DynamicNetwork:
    """A special-form instance under churn, re-solved incrementally per tick.

    The streaming counterpart of the static solve pipeline: construction
    pays one full vectorized solve, after which every tick applies a
    :class:`~repro.core.delta.CompiledDelta`, re-runs the kernels only on
    the dirty ``6r+3``-hop ball
    (:class:`~repro.algo.local_solver.IncrementalSolveState`) — the
    paper's §1.3 dynamic graph property made operational.  The kernel work
    is O(changed · r-ball) and no Python loop runs over untouched nodes; a
    structural delta splices its arrays from the base, so what grows with
    n is memory movement.  Measured at R = 3 on random special form
    (2 vCPUs, medians): a coefficient tick costs 2.1–2.4 ms at n = 10⁴ and
    4.7–5.1 ms at 10⁵, a structural tick 4.6–4.9 ms and 21.7–22.9 ms.

    With ``verify=True`` every tick is checked two ways: the incremental
    state must match a from-scratch solve of the edited instance, and
    :func:`measure_change_impact` must confirm no output moved farther than
    ``horizon`` (default :func:`local_horizon_radius`).  Both violations
    raise :class:`SimulationError`.
    """

    def __init__(
        self,
        instance: MaxMinInstance,
        R: int = 3,
        *,
        tu_tol: float = DEFAULT_BISECTION_TOL,
        verify: bool = False,
        horizon: Optional[int] = None,
    ) -> None:
        from ..algo.local_solver import IncrementalSolveState, SpecialFormLocalSolver

        self.solver = SpecialFormLocalSolver(R, tu_tol=tu_tol)
        self.state = IncrementalSolveState(self.solver, instance)
        self.verify = verify
        self.horizon = local_horizon_radius(R) if horizon is None else int(horizon)
        self.ticks = 0

    @property
    def instance(self) -> MaxMinInstance:
        """The current (post-churn) instance."""
        return self.state.instance

    @property
    def solution(self) -> Solution:
        """The current solution (a copy; the retained arrays keep evolving)."""
        return self.state.result().solution

    def result(self):
        """The full :class:`SpecialFormSolveResult` for the current instance."""
        return self.state.result()

    def begin_delta(self) -> CompiledDelta:
        """A fresh :class:`CompiledDelta` against the current instance."""
        return self.state.comp.delta()

    def apply(self, delta: Union[CompiledDelta, DeltaResult]) -> TickResult:
        """Apply one churn delta and incrementally re-solve.

        Accepts either an unapplied :class:`CompiledDelta` (from
        :meth:`begin_delta`) or an already-applied :class:`DeltaResult`
        against the current instance.
        """
        before = self.state.instance
        result = delta.apply() if isinstance(delta, CompiledDelta) else delta
        recomputed = self.state.apply_delta(result)
        num_agents = self.state.comp.num_agents
        self.ticks += 1
        obs.count("dynamics.ticks")
        obs.count("dynamics.dirty_agents", len(result.dirty_agents))
        obs.count("dynamics.reused_agents", num_agents - len(recomputed))

        impact: Optional[ChangeImpact] = None
        max_error: Optional[float] = None
        if self.verify and not result.identity:
            from ..algo.local_solver import IncrementalSolveState

            fresh = IncrementalSolveState(self.solver, self.state.instance)
            max_error = (
                float(np.max(np.abs(fresh.x - self.state.x))) if num_agents else 0.0
            )
            if max_error > 1e-9:
                raise SimulationError(
                    f"incremental re-solve deviates from scratch solve by {max_error:.3e} "
                    f"at tick {self.ticks}"
                )
            impact = measure_change_impact(
                before,
                self.state.instance,
                lambda inst: self.solver.solve(inst).solution,
                self.horizon,
            )
            if not impact.is_local:
                raise SimulationError(
                    f"output moved {impact.max_distance} > horizon {impact.horizon} "
                    f"at tick {self.ticks}"
                )

        return TickResult(
            self.ticks,
            num_agents,
            result.dirty_agents,
            recomputed,
            result.structural,
            impact,
            max_error,
        )

    def random_tick(
        self,
        rng: np.random.Generator,
        *,
        edits: int = 1,
        structural_prob: float = 0.3,
    ) -> TickResult:
        """Apply one random special-form-preserving churn delta."""
        delta = random_churn_delta(
            self.instance, rng, edits=edits, structural_prob=structural_prob
        )
        return self.apply(delta)


def _fresh_ids(prefix: str, taken) -> Iterator[str]:
    """Yield ``~dyn…`` node ids that do not collide with ``taken``."""
    seq = 0
    while True:
        candidate = f"~dyn{prefix}{seq}"
        seq += 1
        if candidate not in taken:
            yield candidate


def random_churn_delta(
    instance: MaxMinInstance,
    rng: np.random.Generator,
    *,
    edits: int = 1,
    structural_prob: float = 0.3,
) -> CompiledDelta:
    """A random churn delta that keeps ``instance`` in §2 special form.

    Each of the ``edits`` operations is, with probability
    ``structural_prob``, a structural change (add a pairing constraint, drop
    a removable constraint, add an agent into an existing objective, or
    remove an agent together with its constraints) and otherwise a
    coefficient jitter (×[0.5, 2)).  All special-form invariants are
    preserved by construction: constraints keep exactly two members, every
    agent keeps ≥ 1 constraint and exactly one objective, objectives keep
    ≥ 2 members, objective coefficients stay 1.  Operations whose
    preconditions no instance node satisfies degrade to a jitter, so the
    returned delta always carries exactly ``edits`` operations (a structural
    operation may span several individual edge edits).  ``edits`` below 1
    raises ``ValueError``.
    """
    if edits < 1:
        raise ValueError(f"edits must be >= 1, got {edits}")
    delta = instance.compiled().delta()

    # Local bookkeeping so several operations can stack inside one delta.
    a_co: Dict[Tuple[NodeId, NodeId], float] = dict(instance.a_coefficients)
    cons_of: Dict[NodeId, Set[NodeId]] = {
        v: set(instance.constraints_of_agent(v)) for v in instance.agents
    }
    members: Dict[NodeId, Tuple[NodeId, ...]] = {
        i: tuple(instance.agents_of_constraint(i)) for i in instance.constraints
    }
    obj_members: Dict[NodeId, Set[NodeId]] = {
        k: set(instance.agents_of_objective(k)) for k in instance.objectives
    }
    obj_of: Dict[NodeId, NodeId] = {
        v: instance.objectives_of_agent(v)[0] for v in instance.agents
    }
    live_agents: List[NodeId] = list(instance.agents)
    base_cons: List[NodeId] = list(instance.constraints)
    removable = set(base_cons)

    agent_ids = _fresh_ids("A", set(instance.agents))
    con_ids = _fresh_ids("C", set(instance.constraints))

    def pick(pool: List[NodeId]) -> NodeId:
        return pool[int(rng.integers(len(pool)))]

    def jitter() -> None:
        live_base = [i for i in base_cons if i in members]
        i = pick(live_base)
        v = members[i][int(rng.integers(len(members[i])))]
        new_coeff = a_co[(i, v)] * float(rng.uniform(0.5, 2.0))
        delta.set_constraint_coefficient(i, v, new_coeff)
        a_co[(i, v)] = new_coeff

    def add_constraint() -> bool:
        if len(live_agents) < 2:
            return False
        u = pick(live_agents)
        w = pick(live_agents)
        if u == w:
            w = live_agents[(live_agents.index(u) + 1) % len(live_agents)]
        i = next(con_ids)
        delta.set_constraint_coefficient(i, u, 1.0)
        delta.set_constraint_coefficient(i, w, 1.0)
        members[i] = (u, w)
        cons_of[u].add(i)
        cons_of[w].add(i)
        a_co[(i, u)] = 1.0
        a_co[(i, w)] = 1.0
        return True

    def drop_constraint() -> bool:
        candidates = [
            i
            for i in removable
            if all(len(cons_of[v]) >= 2 for v in members[i])
        ]
        if not candidates:
            return False
        i = sorted(candidates)[int(rng.integers(len(candidates)))]
        delta.remove_constraint(i)
        for v in members[i]:
            cons_of[v].discard(i)
            a_co.pop((i, v), None)
        removable.discard(i)
        del members[i]
        return True

    def add_agent() -> bool:
        k = pick(sorted(obj_members))
        w = pick(live_agents)
        v = next(agent_ids)
        delta.add_agent(v)
        delta.set_objective_coefficient(k, v, 1.0)
        i = next(con_ids)
        delta.set_constraint_coefficient(i, v, 1.0)
        delta.set_constraint_coefficient(i, w, 1.0)
        obj_members[k].add(v)
        obj_of[v] = k
        cons_of[v] = {i}
        cons_of[w].add(i)
        members[i] = (v, w)
        a_co[(i, v)] = 1.0
        a_co[(i, w)] = 1.0
        live_agents.append(v)
        return True

    def drop_agent() -> bool:
        base_live = [v for v in instance.agents if v in cons_of]
        rng.shuffle(base_live)
        for v in base_live:
            if len(obj_members[obj_of[v]]) < 3:
                continue
            # Every constraint of v must be removable (base, not delta-added)
            # and every partner must keep ≥ 1 constraint afterwards.
            if not all(i in removable for i in cons_of[v]):
                continue
            loss: Dict[NodeId, int] = {}
            for i in cons_of[v]:
                for w in members[i]:
                    if w != v:
                        loss[w] = loss.get(w, 0) + 1
            if any(len(cons_of[w]) - n <= 0 for w, n in loss.items()):
                continue
            for i in sorted(cons_of[v]):
                delta.remove_constraint(i)
                for w in members[i]:
                    if w != v:
                        cons_of[w].discard(i)
                    a_co.pop((i, w), None)
                removable.discard(i)
                del members[i]
            delta.remove_agent(v)
            obj_members[obj_of[v]].discard(v)
            del obj_of[v]
            del cons_of[v]
            live_agents.remove(v)
            return True
        return False

    structural_ops = [add_constraint, drop_constraint, add_agent, drop_agent]
    for _ in range(int(edits)):
        done = False
        if rng.random() < structural_prob:
            done = structural_ops[int(rng.integers(len(structural_ops)))]()
        if not done:
            jitter()
    return delta
