"""Degenerate-case preprocessing (paper §4, opening remarks).

The transformations and the local algorithm assume a *non-degenerate*
instance: every constraint and objective touches at least one agent, and
every agent touches at least one constraint and at least one objective.
The paper dispenses with the degenerate cases in one sentence:

    "isolated constraints can be deleted, isolated objectives force the
    optimum to zero, non-contributing agents can be set to zero, and
    unconstrained agents can be set to +∞"

This module turns that sentence into code.  :func:`preprocess` returns a
cleaned instance together with a :class:`PreprocessResult` that remembers
what was removed and can lift a solution of the cleaned instance back to the
original one.

Notes on the individual cases
-----------------------------
* *Isolated constraints* (no agents): trivially satisfied; removed.
* *Isolated objectives* (no agents): their value is always 0, so the optimum
  of the whole instance is 0.  The result is flagged ``optimum_is_zero`` and
  the cleaned instance keeps only the structure needed to emit an all-zero
  solution.
* *Non-contributing agents* (no objectives): setting them to 0 never hurts;
  they are removed and remembered in ``forced_zero_agents``.
* *Unconstrained agents* (no constraints): they can be made arbitrarily
  large, hence any objective containing one can reach any target value and
  never binds.  Such objectives are removed; when lifting, the unconstrained
  agents are assigned a value large enough to push the removed objectives to
  the utility of the lifted solution (or any requested target).
* Removal can cascade (an agent whose only objective was removed becomes
  non-contributing), so the cleanup iterates to a fixed point.

Implementation
--------------
:func:`preprocess` runs the fixed point as iterative degree-peeling over the
compiled CSR arrays (:meth:`MaxMinInstance.compiled`): per-node
*live-degree* counters, one :func:`numpy.flatnonzero` scan per phase and
frontier updates via ``np.bincount`` over the gathered adjacency rows of
just-removed nodes.  The per-node oracle :func:`repro.oracle.preprocess`
produces identical removed sets, flags and lift behaviour (pinned by
``tests/test_record_path.py``).  When nothing is removed, the original
instance object itself is returned as the cleaned instance, so downstream
per-instance caches (``compiled()``, the §4 transform cache) stay warm
across repeated solves.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .._types import NodeId
from ..exceptions import DegenerateInstanceError
from .compiled import _row_members
from .instance import MaxMinInstance
from .solution import Solution

__all__ = ["PreprocessResult", "preprocess"]


class PreprocessResult:
    """Outcome of :func:`preprocess`.

    Attributes
    ----------
    original:
        The instance that was preprocessed.
    instance:
        The cleaned (non-degenerate) instance.  May have zero agents when the
        optimum is zero or unbounded.
    forced_zero_agents:
        Agents removed because they contribute to no (surviving) objective;
        they are set to 0 when lifting.
    unconstrained_agents:
        Agents removed because they have no constraints; they are set to a
        sufficiently large finite value when lifting.
    removed_constraints / removed_objectives:
        Constraint / objective ids dropped during cleaning.
    optimum_is_zero:
        True when an isolated objective forces the optimum to 0.
    optimum_is_unbounded:
        True when *every* objective can be made arbitrarily large (so the
        max-min value is unbounded above).
    """

    __slots__ = (
        "original",
        "instance",
        "forced_zero_agents",
        "unconstrained_agents",
        "removed_constraints",
        "removed_objectives",
        "optimum_is_zero",
        "optimum_is_unbounded",
    )

    def __init__(
        self,
        original: MaxMinInstance,
        instance: MaxMinInstance,
        forced_zero_agents: Tuple[NodeId, ...],
        unconstrained_agents: Tuple[NodeId, ...],
        removed_constraints: Tuple[NodeId, ...],
        removed_objectives: Tuple[NodeId, ...],
        optimum_is_zero: bool,
        optimum_is_unbounded: bool,
    ) -> None:
        self.original = original
        self.instance = instance
        self.forced_zero_agents = forced_zero_agents
        self.unconstrained_agents = unconstrained_agents
        self.removed_constraints = removed_constraints
        self.removed_objectives = removed_objectives
        self.optimum_is_zero = optimum_is_zero
        self.optimum_is_unbounded = optimum_is_unbounded

    @property
    def changed(self) -> bool:
        """True if preprocessing modified the instance at all."""
        return (
            bool(self.forced_zero_agents)
            or bool(self.unconstrained_agents)
            or bool(self.removed_constraints)
            or bool(self.removed_objectives)
        )

    def lift(
        self,
        solution: Solution,
        target_utility: Optional[float] = None,
        label: Optional[str] = None,
    ) -> Solution:
        """Lift a solution of the cleaned instance back to the original one.

        Forced-zero agents get 0; unconstrained agents get a value large
        enough that every removed objective reaches ``target_utility``
        (default: the utility of ``solution`` itself, or 0 when that is not
        finite).  The lifted solution is feasible whenever ``solution`` is,
        and its utility is ``min(utility(solution), target_utility)`` which
        equals ``utility(solution)`` for the default target.
        """
        if solution.instance != self.instance:
            raise DegenerateInstanceError("lift() expects a solution of the cleaned instance")

        # The cleaned instance keeps the original's canonical agent order,
        # minus the removed agents; forced-zero agents stay 0.
        original = self.original
        index = original.compiled().agent_index
        kept = np.ones(original.num_agents, dtype=bool)
        kept[[index[v] for v in self.forced_zero_agents + self.unconstrained_agents]] = False
        x = np.zeros(original.num_agents, dtype=np.float64)
        x[kept] = solution.aligned_to(self.instance)

        if target_utility is None:
            util = solution.utility()
            target_utility = util if math.isfinite(util) else 0.0

        # Every removed objective contains at least one unconstrained agent
        # (that is why it was removed); give that agent enough value.
        unconstrained = set(self.unconstrained_agents)
        for k in self.removed_objectives:
            members = original.agents_of_objective(k)
            carriers = [v for v in members if v in unconstrained]
            if not carriers:
                # Objective removed because it became isolated after its
                # agents were removed; it forces optimum zero, nothing to do.
                continue
            current = sum(original.c(k, v) * float(x[index[v]]) for v in members)
            deficit = target_utility - current
            if deficit > 0.0:
                carrier = index[carriers[0]]
                value = float(x[carrier])
                x[carrier] = max(value, value + deficit / original.c(k, carriers[0]))

        return Solution.from_agent_array(original, x, label=label or f"{solution.label}+lifted")

    def zero_solution(self, label: str = "zero") -> Solution:
        """The all-zero solution of the original instance."""
        return Solution(self.original, {}, label=label)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreprocessResult(changed={self.changed}, zero={self.optimum_is_zero}, "
            f"unbounded={self.optimum_is_unbounded}, "
            f"removed_constraints={len(self.removed_constraints)}, "
            f"removed_objectives={len(self.removed_objectives)})"
        )


class _FixedPoint:
    """Outcome of a degenerate-structure fixed point (CSR or per-node oracle).

    ``agents`` / ``constraints`` / ``objectives`` are the *surviving* nodes
    in canonical (declaration) order — ready to feed
    :meth:`MaxMinInstance.sub_instance` directly.
    """

    __slots__ = (
        "agents",
        "constraints",
        "objectives",
        "forced_zero",
        "unconstrained",
        "removed_constraints",
        "removed_objectives",
        "optimum_is_zero",
    )

    def __init__(
        self,
        agents: Sequence[NodeId],
        constraints: Sequence[NodeId],
        objectives: Sequence[NodeId],
        forced_zero: List[NodeId],
        unconstrained: List[NodeId],
        removed_constraints: List[NodeId],
        removed_objectives: List[NodeId],
        optimum_is_zero: bool,
    ) -> None:
        self.agents = agents
        self.constraints = constraints
        self.objectives = objectives
        self.forced_zero = forced_zero
        self.unconstrained = unconstrained
        self.removed_constraints = removed_constraints
        self.removed_objectives = removed_objectives
        self.optimum_is_zero = optimum_is_zero


def _vectorized_fixed_point(instance: MaxMinInstance) -> _FixedPoint:
    """Iterative degree-peeling over the compiled CSR arrays.

    Mirrors the per-node oracle phase for phase: per-node *live degree*
    counters start at the compiled degrees; each phase selects the depleted
    nodes with one ``flatnonzero`` scan and pushes the removals to the
    neighbouring counters with ``np.bincount`` over the gathered adjacency
    rows of just-removed nodes (a csgraph-style frontier update).  Node
    positions translate back to identifiers only once, at the end.
    """
    comp = instance.compiled()
    n, m_con, m_obj = comp.num_agents, comp.num_constraints, comp.num_objectives

    alive_agent = np.ones(n, dtype=bool)
    alive_con = np.ones(m_con, dtype=bool)
    alive_obj = np.ones(m_obj, dtype=bool)

    # Live-degree counters: number of *alive* neighbours per node.
    live_con_members = comp.constraint_degrees.copy()
    live_obj_members = comp.objective_degrees.copy()
    live_agent_cons = np.diff(comp.con_indptr).copy()
    live_agent_objs = np.diff(comp.obj_indptr).copy()

    forced_zero_mask = np.zeros(n, dtype=bool)
    unconstrained_mask = np.zeros(n, dtype=bool)
    forced_zero_rounds: List[np.ndarray] = []
    unconstrained_rounds: List[np.ndarray] = []
    removed_con_rounds: List[np.ndarray] = []
    removed_obj_rounds: List[np.ndarray] = []

    # Isolated objectives in the *original* instance force the optimum to 0.
    optimum_is_zero = bool(m_obj) and bool((comp.objective_degrees == 0).any())

    peel_rounds = 0
    changed = True
    while changed:
        changed = False
        peel_rounds += 1

        # Phase 1 — constraints with no surviving agents.
        dead_cons = np.flatnonzero(alive_con & (live_con_members == 0))
        if len(dead_cons):
            alive_con[dead_cons] = False
            removed_con_rounds.append(dead_cons)
            changed = True

        # Phase 2 — unconstrained agents; their objectives never bind.
        unc = np.flatnonzero(alive_agent & (live_agent_cons == 0))
        if len(unc):
            alive_agent[unc] = False
            unconstrained_mask[unc] = True
            unconstrained_rounds.append(unc)
            touched_cons = _row_members(comp.con_indptr, comp.con_indices, unc)
            if len(touched_cons):
                live_con_members -= np.bincount(touched_cons, minlength=m_con)
            touched_objs = _row_members(comp.obj_indptr, comp.obj_indices, unc)
            dead_objs = np.unique(touched_objs[alive_obj[touched_objs]]) if len(touched_objs) else touched_objs
            if len(dead_objs):
                alive_obj[dead_objs] = False
                removed_obj_rounds.append(dead_objs)
                members = _row_members(comp.oagents_indptr, comp.oagents_indices, dead_objs)
                if len(members):
                    live_agent_objs -= np.bincount(members, minlength=n)
            if len(touched_objs):
                live_obj_members -= np.bincount(touched_objs, minlength=m_obj)
            changed = True

        # Phase 3 — objectives that lost all their agents.
        dead_objs = np.flatnonzero(alive_obj & (live_obj_members == 0))
        if len(dead_objs):
            alive_obj[dead_objs] = False
            removed_obj_rounds.append(dead_objs)
            originally_empty = comp.objective_degrees[dead_objs] == 0
            nonempty = dead_objs[~originally_empty]
            if len(nonempty):
                # All agents forced to zero (and none unconstrained) pins the
                # objective — and hence the optimum — at 0.
                counts = comp.objective_degrees[nonempty]
                members = _row_members(comp.oagents_indptr, comp.oagents_indices, nonempty)
                owner = np.repeat(np.arange(len(nonempty), dtype=np.int64), counts)
                any_fz = np.bincount(owner, weights=forced_zero_mask[members].astype(np.float64), minlength=len(nonempty)) > 0
                any_unc = np.bincount(owner, weights=unconstrained_mask[members].astype(np.float64), minlength=len(nonempty)) > 0
                if bool((any_fz & ~any_unc).any()):
                    optimum_is_zero = True
                live_agent_objs -= np.bincount(members, minlength=n)
            if bool(originally_empty.any()):
                optimum_is_zero = True
            changed = True

        # Phase 4 — non-contributing agents: no surviving objective.
        fz = np.flatnonzero(alive_agent & (live_agent_objs == 0))
        if len(fz):
            alive_agent[fz] = False
            forced_zero_mask[fz] = True
            forced_zero_rounds.append(fz)
            touched_cons = _row_members(comp.con_indptr, comp.con_indices, fz)
            if len(touched_cons):
                live_con_members -= np.bincount(touched_cons, minlength=m_con)
            touched_objs = _row_members(comp.obj_indptr, comp.obj_indices, fz)
            if len(touched_objs):
                live_obj_members -= np.bincount(touched_objs, minlength=m_obj)
            changed = True

    obs.count("preprocess.peel_rounds", peel_rounds)

    def _ids(rounds: List[np.ndarray], names) -> List[NodeId]:
        return [names[p] for chunk in rounds for p in chunk.tolist()]

    agent_ids = instance.agents
    constraint_ids = instance.constraints
    objective_ids = instance.objectives
    if not (forced_zero_rounds or unconstrained_rounds or removed_con_rounds or removed_obj_rounds):
        # Nothing removed: the survivors are everyone, no position decoding.
        return _FixedPoint(
            agent_ids, constraint_ids, objective_ids, [], [], [], [], optimum_is_zero
        )
    return _FixedPoint(
        [agent_ids[p] for p in np.flatnonzero(alive_agent).tolist()],
        [constraint_ids[p] for p in np.flatnonzero(alive_con).tolist()],
        [objective_ids[p] for p in np.flatnonzero(alive_obj).tolist()],
        _ids(forced_zero_rounds, agent_ids),
        _ids(unconstrained_rounds, agent_ids),
        _ids(removed_con_rounds, constraint_ids),
        _ids(removed_obj_rounds, objective_ids),
        optimum_is_zero,
    )


def preprocess(instance: MaxMinInstance) -> PreprocessResult:
    """Remove degenerate structure from an instance (see module docstring).

    The result is cached on the (immutable) instance, like
    :meth:`MaxMinInstance.compiled`: repeated solves of one instance clean it
    once and share the same cleaned-instance object, keeping its compiled
    view and §4 transform cache warm across an R-sweep.  Treat the result as
    read-only.
    """
    cached = instance._preprocess_cache
    if cached is not None:
        obs.count("preprocess.cache_hits")
        return cached
    obs.count("preprocess.runs")
    with obs.span("solve.preprocess", agents=instance.num_agents):
        fp = _vectorized_fixed_point(instance)
    result = _result_from_fixed_point(instance, fp)
    instance._preprocess_cache = result
    return result


def _result_from_fixed_point(instance: MaxMinInstance, fp: _FixedPoint) -> PreprocessResult:
    """Flags, the cleaned instance and the :class:`PreprocessResult` of ``fp``."""
    optimum_is_zero = fp.optimum_is_zero
    optimum_is_unbounded = not optimum_is_zero and not fp.objectives and bool(instance.objectives)
    if not instance.objectives:
        # No objectives at all: the max-min value is vacuously unbounded.
        optimum_is_unbounded = True

    removed_anything = (
        bool(fp.forced_zero)
        or bool(fp.unconstrained)
        or bool(fp.removed_constraints)
        or bool(fp.removed_objectives)
    )
    if removed_anything:
        obs.count("preprocess.removed_agents", len(fp.forced_zero) + len(fp.unconstrained))
        obs.count("preprocess.removed_constraints", len(fp.removed_constraints))
        obs.count("preprocess.removed_objectives", len(fp.removed_objectives))
        cleaned = instance.sub_instance(
            fp.agents, fp.constraints, fp.objectives, name=f"{instance.name}#clean"
        )
    else:
        # Nothing removed: hand back the original object so per-instance
        # caches (compiled view, §4 transform results) survive preprocessing.
        cleaned = instance

    return PreprocessResult(
        original=instance,
        instance=cleaned,
        forced_zero_agents=tuple(fp.forced_zero),
        unconstrained_agents=tuple(fp.unconstrained),
        removed_constraints=tuple(fp.removed_constraints),
        removed_objectives=tuple(fp.removed_objectives),
        optimum_is_zero=optimum_is_zero,
        optimum_is_unbounded=optimum_is_unbounded,
    )
