"""Edit batches against a compiled instance: :class:`CompiledDelta`.

A delta records node and edge edits against one
:class:`~repro.core.compiled.CompiledInstance`, and :meth:`CompiledDelta.apply`
builds the edited instance from that base in one pass:

* a coefficient-only delta copies the two forward coefficient arrays, and the
  edited view shares every other topology-derived array with its base;
* a structural delta splices.  Survivors keep their relative order and
  additions follow, so the rows a delta does not touch form a few contiguous
  runs, in the old arrays and in the new ones.  :func:`_splice` copies each
  run with one slice assignment, maps copied positions only when a node of
  the referenced family was removed, and writes the touched rows it is
  given.  It serves both forward families, both reverse families with their
  forward-edge maps, and the special-form adjacency.  Node tuples are joined
  from slices, and index maps are shared, extended or renumbered.

Either way the edited rows reach the one checked constructor
(:class:`~repro.core.compiled.CompiledInstance`), and the result is bitwise
and digest identical to declaring the edited instance from scratch.  The
index maps and node tuples an edited instance shares with its base are
read-only.  :meth:`CompiledInstance.delta` imports this module on first use,
so a cold solve never loads it.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from .._types import NodeId
from ..exceptions import InvalidInstanceError
from .compiled import (
    _TOPOLOGY,
    CompiledInstance,
    _adjacency_rows,
    _degree_violation,
    _partner_edges,
    _row_members,
    _segment_gather,
    _SpecialFormView,
)
from .instance import MaxMinInstance

__all__ = ["CompiledDelta", "DeltaResult"]


class DeltaResult:
    """Outcome of :meth:`CompiledDelta.apply`.

    Attributes
    ----------
    instance, compiled:
        The edited :class:`MaxMinInstance` and its compiled view — bitwise
        and digest identical to declaring the edited instance from scratch.
        A coefficient-only edit shares every topology-derived array with the
        base; a structural edit splices its arrays from the base's (see the
        module docs).  Either way the view's special-form arrays are ready
        when the base had built them and the edited degrees allow them.
    dirty_agents:
        Sorted *new* agent positions whose local data changed: agents whose
        own edge rows were edited plus every surviving member of a touched
        constraint / objective (their capacities, partner coefficients or
        sibling sets changed) plus added agents.  These are the seeds the
        incremental solver expands to r-balls, and a superset of the agents
        whose smoothing-adjacency row changed.
    old_to_new_agent:
        Position map over the *old* canonical agent order (−1 for removed
        agents).  Survivors keep their relative order; added agents follow.
    structural:
        False when every edit was a coefficient change on an existing edge
        (topology identical — planes and slot layouts can be reused as-is).
    num_edits:
        Number of edit operations recorded on the delta.
    """

    __slots__ = (
        "instance",
        "compiled",
        "dirty_agents",
        "old_to_new_agent",
        "structural",
        "num_edits",
    )

    def __init__(
        self,
        instance: MaxMinInstance,
        compiled: CompiledInstance,
        dirty_agents: np.ndarray,
        old_to_new_agent: np.ndarray,
        structural: bool,
        num_edits: int,
    ) -> None:
        self.instance = instance
        self.compiled = compiled
        self.dirty_agents = dirty_agents
        self.old_to_new_agent = old_to_new_agent
        self.structural = structural
        self.num_edits = num_edits

    @property
    def identity(self) -> bool:
        """True when the delta was empty (nothing changed)."""
        return self.num_edits == 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaResult(edits={self.num_edits}, dirty={len(self.dirty_agents)}, "
            f"structural={self.structural})"
        )


def _check_coefficient(label: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidInstanceError(f"{label} = {value} must be positive and finite")
    return value


class CompiledDelta:
    """A batch of edits against one :class:`CompiledInstance`.

    Records edge additions / removals, coefficient changes and agent /
    constraint / objective additions and removals; :meth:`apply` then builds
    the edited instance in one pass.  Its cost follows what the delta
    touches: the rebuilt rows are the edited ones, and everything else is
    shared with the base or block-copied from it (see the module docs) —
    no transpose, no whole-family index build for a family that lost no
    node, and no Python loop over untouched rows.  The result is bitwise
    and digest identical to declaring the edited instance from scratch
    (pinned by ``tests/test_incremental.py``).

    Coefficients are validated at edit time (and checked again by the
    constructor), node identifiers are resolved against the base instance
    plus this delta's own additions, and constraints / objectives referenced
    by a ``set_*`` call are created on first use.  Agents must exist or be
    declared via :meth:`add_agent` first; an id that already exists is
    refused, so every node stays unique.  A delta is single-use: apply it
    once.  The delta holds its base instance, so the base stays valid.
    """

    __slots__ = (
        "base",
        "instance",
        "_removed_agents",
        "_removed_constraints",
        "_removed_objectives",
        "_added_agents",
        "_added_agent_pos",
        "_added_constraints",
        "_added_constraint_pos",
        "_added_objectives",
        "_added_objective_pos",
        "_con_edits",
        "_obj_edits",
        "_num_edits",
    )

    def __init__(self, base: CompiledInstance) -> None:
        self.base = base
        self.instance = base.instance
        self._removed_agents: Set[int] = set()
        self._removed_constraints: Set[int] = set()
        self._removed_objectives: Set[int] = set()
        self._added_agents: List[NodeId] = []
        self._added_agent_pos: Dict[NodeId, int] = {}
        self._added_constraints: List[NodeId] = []
        self._added_constraint_pos: Dict[NodeId, int] = {}
        self._added_objectives: List[NodeId] = []
        self._added_objective_pos: Dict[NodeId, int] = {}
        # Final per-edge state keyed by provisional (node, agent) positions:
        # a float sets the coefficient, None removes the edge.
        self._con_edits: Dict[Tuple[int, int], Optional[float]] = {}
        self._obj_edits: Dict[Tuple[int, int], Optional[float]] = {}
        self._num_edits = 0

    # ------------------------------------------------------------------
    @property
    def num_edits(self) -> int:
        return self._num_edits

    @property
    def is_empty(self) -> bool:
        return self._num_edits == 0

    # ------------------------------------------------------------------
    # Identifier resolution (provisional positions: old nodes keep their
    # base position, nodes added by this delta follow after the old count).
    # ------------------------------------------------------------------
    def _agent_pos(self, v: NodeId) -> int:
        pos = self.base.agent_index.get(v)
        if pos is not None:
            if pos in self._removed_agents:
                raise InvalidInstanceError(f"agent {v!r} was removed by this delta")
            return pos
        pos = self._added_agent_pos.get(v)
        if pos is None:
            raise InvalidInstanceError(
                f"unknown agent {v!r} (declare it with add_agent first)"
            )
        return pos

    def _constraint_pos(self, i: NodeId, create: bool = False) -> int:
        pos = self.base.constraint_index.get(i)
        if pos is not None:
            if pos in self._removed_constraints:
                raise InvalidInstanceError(f"constraint {i!r} was removed by this delta")
            return pos
        pos = self._added_constraint_pos.get(i)
        if pos is not None:
            return pos
        if not create:
            raise InvalidInstanceError(f"unknown constraint {i!r}")
        pos = self.base.num_constraints + len(self._added_constraints)
        self._added_constraints.append(i)
        self._added_constraint_pos[i] = pos
        return pos

    def _objective_pos(self, k: NodeId, create: bool = False) -> int:
        pos = self.base.objective_index.get(k)
        if pos is not None:
            if pos in self._removed_objectives:
                raise InvalidInstanceError(f"objective {k!r} was removed by this delta")
            return pos
        pos = self._added_objective_pos.get(k)
        if pos is not None:
            return pos
        if not create:
            raise InvalidInstanceError(f"unknown objective {k!r}")
        pos = self.base.num_objectives + len(self._added_objectives)
        self._added_objectives.append(k)
        self._added_objective_pos[k] = pos
        return pos

    # ------------------------------------------------------------------
    # Edit operations
    # ------------------------------------------------------------------
    def add_agent(self, v: NodeId) -> None:
        """Declare a new agent (connect it with ``set_*_coefficient`` calls)."""
        if v in self.base.agent_index:
            if self.base.agent_index[v] in self._removed_agents:
                raise InvalidInstanceError(
                    f"agent {v!r} cannot be re-added in the delta that removes it"
                )
            raise InvalidInstanceError(f"agent {v!r} already exists")
        if v in self._added_agent_pos:
            raise InvalidInstanceError(f"agent {v!r} already added by this delta")
        self._added_agent_pos[v] = self.base.num_agents + len(self._added_agents)
        self._added_agents.append(v)
        self._num_edits += 1

    def remove_agent(self, v: NodeId) -> None:
        """Remove an agent and (implicitly) all of its edges."""
        if v in self._added_agent_pos:
            raise InvalidInstanceError(f"agent {v!r} was added by this delta; cannot remove it")
        pos = self._agent_pos(v)
        self._removed_agents.add(pos)
        self._con_edits = {key: val for key, val in self._con_edits.items() if key[1] != pos}
        self._obj_edits = {key: val for key, val in self._obj_edits.items() if key[1] != pos}
        self._num_edits += 1

    def remove_constraint(self, i: NodeId) -> None:
        """Remove a constraint and all of its edges."""
        if i in self._added_constraint_pos:
            raise InvalidInstanceError(
                f"constraint {i!r} was added by this delta; cannot remove it"
            )
        pos = self._constraint_pos(i)
        self._removed_constraints.add(pos)
        self._con_edits = {key: val for key, val in self._con_edits.items() if key[0] != pos}
        self._num_edits += 1

    def remove_objective(self, k: NodeId) -> None:
        """Remove an objective and all of its edges."""
        if k in self._added_objective_pos:
            raise InvalidInstanceError(
                f"objective {k!r} was added by this delta; cannot remove it"
            )
        pos = self._objective_pos(k)
        self._removed_objectives.add(pos)
        self._obj_edits = {key: val for key, val in self._obj_edits.items() if key[0] != pos}
        self._num_edits += 1

    def set_constraint_coefficient(self, i: NodeId, v: NodeId, coeff: float) -> None:
        """Set ``a_iv`` (creates the edge, and the constraint, when absent)."""
        coeff = _check_coefficient(f"constraint coefficient a[{i!r}, {v!r}]", coeff)
        self._con_edits[(self._constraint_pos(i, create=True), self._agent_pos(v))] = coeff
        self._num_edits += 1

    def remove_constraint_edge(self, i: NodeId, v: NodeId) -> None:
        """Remove the edge between constraint ``i`` and agent ``v``."""
        key = (self._constraint_pos(i), self._agent_pos(v))
        pending = self._con_edits.get(key, _MISSING)
        if pending is None:
            raise InvalidInstanceError(f"edge a[{i!r}, {v!r}] already removed by this delta")
        if pending is _MISSING and not _in_base(self.base.con_indptr, self.base.con_indices, key):
            raise InvalidInstanceError(f"no edge a[{i!r}, {v!r}] to remove")
        self._con_edits[key] = None
        self._num_edits += 1

    def set_objective_coefficient(self, k: NodeId, v: NodeId, coeff: float) -> None:
        """Set ``c_kv`` (creates the edge, and the objective, when absent)."""
        coeff = _check_coefficient(f"objective coefficient c[{k!r}, {v!r}]", coeff)
        self._obj_edits[(self._objective_pos(k, create=True), self._agent_pos(v))] = coeff
        self._num_edits += 1

    def remove_objective_edge(self, k: NodeId, v: NodeId) -> None:
        """Remove the edge between objective ``k`` and agent ``v``."""
        key = (self._objective_pos(k), self._agent_pos(v))
        pending = self._obj_edits.get(key, _MISSING)
        if pending is None:
            raise InvalidInstanceError(f"edge c[{k!r}, {v!r}] already removed by this delta")
        if pending is _MISSING and not _in_base(self.base.obj_indptr, self.base.obj_indices, key):
            raise InvalidInstanceError(f"no edge c[{k!r}, {v!r}] to remove")
        self._obj_edits[key] = None
        self._num_edits += 1

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, name: Optional[str] = None) -> DeltaResult:
        """Materialise the edited instance + compiled view (see class docs)."""
        base = self.base
        if self._num_edits == 0:
            return DeltaResult(
                self.instance, base, np.zeros(0, dtype=np.int64),
                np.arange(base.num_agents, dtype=np.int64), False, 0,
            )
        obs.count("compiled.delta_applies")
        obs.count("compiled.delta_edits", self._num_edits)

        # --- classify edits against the base ---------------------------
        con = _classify_edits(
            self._con_edits, base.con_indptr, base.con_indices,
            self._removed_agents, self._removed_constraints,
        )
        obj = _classify_edits(
            self._obj_edits, base.obj_indptr, base.obj_indices,
            self._removed_agents, self._removed_objectives,
        )
        structural = bool(
            con.structural_rows or obj.structural_rows
            or self._removed_agents or self._removed_constraints or self._removed_objectives
            or self._added_agents or self._added_constraints or self._added_objectives
        )
        if not structural:
            return self._apply_coefficient_only(con, obj, name)
        return self._apply_structural(con, obj, name)

    def _apply_coefficient_only(
        self, con: "_EditPlan", obj: "_EditPlan", name: Optional[str]
    ) -> DeltaResult:
        """Non-structural fast path: every edit is a coefficient update on an
        existing edge.  Only the two forward coefficient arrays are copied
        and patched, ``O(degree)`` per edit; the edited view takes the base
        as its topology, so it shares every topology-derived structure with
        it (node tuples, index maps, every indptr / indices array, the
        special-form view's partner and adjacency arrays) and derives the
        reverse coefficients, capacities and partner coefficients with
        whole-array gathers.
        """
        base = self.base
        inst = self.instance
        obs.count("compiled.delta_coeff_fast_paths")
        con_coeff = base.con_coeff.copy()
        obj_coeff = base.obj_coeff.copy()
        for coeff, indptr, indices, plan in (
            (con_coeff, base.con_indptr, base.con_indices, con),
            (obj_coeff, base.obj_indptr, base.obj_indices, obj),
        ):
            for row_edits in plan.by_row.values():
                for (owner, av), val in row_edits.items():
                    coeff[_slot(indptr, indices, av, owner)] = val
        new_inst = MaxMinInstance._edited(
            inst.agents, inst.constraints, inst.objectives,
            (base.con_indptr, base.con_indices, con_coeff),
            (base.obj_indptr, base.obj_indices, obj_coeff),
            inst.name if name is None else name, base,
        )
        seeds = set(con.rows_to_rebuild) | set(obj.rows_to_rebuild)
        touched_c = np.asarray(sorted(con.touched_owners), dtype=np.int64)
        touched_k = np.asarray(sorted(obj.touched_owners), dtype=np.int64)
        seeds.update(_row_members(base.cagents_indptr, base.cagents_indices, touched_c).tolist())
        seeds.update(_row_members(base.oagents_indptr, base.oagents_indices, touched_k).tolist())
        dirty = np.asarray(sorted(seeds), dtype=np.int64)
        obs.count("compiled.delta_dirty_agents", len(dirty))
        return DeltaResult(
            new_inst, new_inst.compiled(), dirty,
            np.arange(base.num_agents, dtype=np.int64), False, self._num_edits,
        )

    def _apply_structural(
        self, con: "_EditPlan", obj: "_EditPlan", name: Optional[str]
    ) -> DeltaResult:
        """Splice the edited instance from the base (see the module docs)."""
        base = self.base
        nA, nC, nK = base.num_agents, base.num_constraints, base.num_objectives
        agents = _Nodes(
            base.agents, base.agent_index, self._removed_agents, self._added_agents, "agent"
        )
        cons = _Nodes(
            base.constraints, base.constraint_index,
            self._removed_constraints, self._added_constraints, "constraint",
        )
        objs = _Nodes(
            base.objectives, base.objective_index,
            self._removed_objectives, self._added_objectives, "objective",
        )

        # Constraints / objectives losing a member through agent removal.
        con.structural_owners.update(
            _row_members(base.con_indptr, base.con_indices, agents.removed).tolist()
        )
        obj.structural_owners.update(
            _row_members(base.obj_indptr, base.obj_indices, agents.removed).tolist()
        )
        # Surviving members of removed constraints / objectives see their own
        # forward rows change — and are dirty either way.
        con.structural_owners.update(self._removed_constraints)
        obj.structural_owners.update(self._removed_objectives)
        con.structural_rows.update(
            _row_members(base.cagents_indptr, base.cagents_indices, cons.removed).tolist()
        )
        obj.structural_rows.update(
            _row_members(base.oagents_indptr, base.oagents_indices, objs.removed).tolist()
        )

        # --- dirty seeds -------------------------------------------------
        seeds: Set[int] = set()
        seeds.update(row for row in con.rows_to_rebuild if row < nA)
        seeds.update(row for row in obj.rows_to_rebuild if row < nA)
        touched_c = np.asarray(
            sorted(o for o in (con.touched_owners | con.structural_owners) if o < nC),
            dtype=np.int64,
        )
        touched_k = np.asarray(
            sorted(o for o in (obj.touched_owners | obj.structural_owners) if o < nK),
            dtype=np.int64,
        )
        seeds.update(_row_members(base.cagents_indptr, base.cagents_indices, touched_c).tolist())
        seeds.update(_row_members(base.oagents_indptr, base.oagents_indices, touched_k).tolist())
        seeds -= self._removed_agents
        seed_old = np.asarray(sorted(seeds), dtype=np.int64)
        # Survivors keep their order and additions follow: sorted and unique.
        dirty = np.concatenate(
            [agents.o2n[seed_old], np.arange(agents.n_keep, agents.n_new, dtype=np.int64)]
        )
        obs.count("compiled.delta_dirty_agents", len(dirty))

        # --- splice both forward and both reverse families ---------------
        topology = _Topology()
        topology.agent_index = agents.index
        topology.constraint_index = cons.index
        topology.objective_index = objs.index
        con_rows, con_moved, con_pairs = self._forward(
            base.con_indptr, base.con_indices, base.con_coeff, con, agents, cons
        )
        obj_rows, obj_moved, obj_pairs = self._forward(
            base.obj_indptr, base.obj_indices, base.obj_coeff, obj, agents, objs
        )
        topology.cagents_indptr, topology.cagents_indices, topology._cagents_edge = _reverse(
            base.cagents_indptr, base.cagents_indices, base._cagents_edge,
            con.structural_owners, cons, agents, con_moved, con_pairs,
        )
        topology.oagents_indptr, topology.oagents_indices, topology._oagents_edge = _reverse(
            base.oagents_indptr, base.oagents_indices, base._oagents_edge,
            obj.structural_owners, objs, agents, obj_moved, obj_pairs,
        )
        topology._constraint_degrees = topology._objective_degrees = None
        topology._cagents_owner = topology._oagents_owner = None
        topology._special = _special_topology(
            base._special, topology, con_rows, obj_rows, agents, seed_old, dirty
        )

        inst = self.instance
        new_inst = MaxMinInstance._edited(
            agents.ids, cons.ids, objs.ids, con_rows, obj_rows,
            inst.name if name is None else name, topology,
        )
        return DeltaResult(new_inst, new_inst.compiled(), dirty, agents.o2n, True, self._num_edits)

    def _forward(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        coeff: np.ndarray,
        plan: "_EditPlan",
        agents: "_Nodes",
        members: "_Nodes",
    ):
        """One forward family, spliced: ``(rows, moved, pairs)``.

        ``rows`` is the new ``(indptr, indices, coeff)``; ``moved`` maps each
        old edge of a copied row to its new position (−1 otherwise); ``pairs``
        holds ``(member, agent, edge)`` — new positions — of every edge in a
        rebuilt or added row.  The rebuilt rows are the edited rows and the
        rows that lost a member.
        """
        removed_members = set(members.removed.tolist())
        rebuild = sorted(
            row for row in (plan.rows_to_rebuild | plan.structural_rows)
            if row < agents.n_old and row not in self._removed_agents
        )
        rows: List[Dict[int, float]] = []
        for row in rebuild:
            lo, hi = int(indptr[row]), int(indptr[row + 1])
            entries = {
                m: c
                for m, c in zip(indices[lo:hi].tolist(), coeff[lo:hi].tolist())
                if m not in removed_members
            }
            for (owner, _), val in plan.by_row.get(row, {}).items():
                if val is None:
                    entries.pop(owner, None)
                else:
                    entries[owner] = val
            rows.append(entries)
        for j in range(len(self._added_agents)):
            rows.append({
                owner: val
                for (owner, _), val in plan.by_row.get(agents.n_old + j, {}).items()
                if val is not None
            })
        new_rows = np.concatenate([
            agents.o2n[np.asarray(rebuild, dtype=np.int64)],
            np.arange(agents.n_keep, agents.n_new, dtype=np.int64),
        ])
        # Each row's members in increasing new position (the canonical order).
        items = [sorted((members.new_position(m), c) for m, c in entries.items()) for entries in rows]
        counts = np.asarray([len(row) for row in items], dtype=np.int64)
        member_vals = np.asarray([m for row in items for m, _ in row], dtype=np.int64)
        coeff_vals = np.asarray([c for row in items for _, c in row], dtype=np.float64)

        breaks = np.union1d(agents.removed, np.asarray(rebuild, dtype=np.int64))
        new_indptr, (new_indices, new_coeff), moved = _splice(
            indptr, [(indices, members.remap), (coeff, None)], agents.o2n, breaks,
            new_rows, counts, [member_vals, coeff_vals], agents.n_new, moved=True,
        )
        edges = _segment_gather(new_indptr[new_rows], counts)
        pairs = (member_vals, np.repeat(new_rows, counts), edges)
        return (new_indptr, new_indices, new_coeff), moved, pairs


class _Topology:
    """The :data:`~repro.core.compiled._TOPOLOGY` slots and special-form view
    topology a structural delta splices for its edited rows (the
    ``topology`` hand-off of :class:`CompiledInstance`)."""

    __slots__ = _TOPOLOGY + ("_special",)


class _Nodes:
    """One node family under a delta: survivors keep their order, additions follow.

    ``o2n`` maps old positions to new ones (−1 = removed); ``remap`` is
    ``o2n`` when the family lost a node and None when every old position
    stays put.  ``ids`` and ``index`` are the new node tuple and
    ``id -> position`` map (see :func:`_spliced_ids`).
    """

    __slots__ = ("removed", "n_old", "n_keep", "n_new", "o2n", "remap", "ids", "index")

    def __init__(
        self,
        ids: Tuple,
        index: Dict[NodeId, int],
        removed: Set[int],
        added: List[NodeId],
        kind: str,
    ) -> None:
        self.removed = np.asarray(sorted(removed), dtype=np.int64)
        self.n_old = len(ids)
        self.n_keep = self.n_old - len(removed)
        self.n_new = self.n_keep + len(added)
        self.o2n = np.arange(self.n_old, dtype=np.int64)
        self.remap = None
        if removed:
            # A survivor moves down by the number of removed positions before it.
            self.o2n -= np.searchsorted(self.removed, self.o2n)
            self.o2n[self.removed] = -1
            self.remap = self.o2n
        self.ids, self.index = _spliced_ids(ids, index, self.removed, added, kind)

    def new_position(self, provisional: int) -> int:
        """The new position of a provisional one (old, then this delta's additions)."""
        if provisional < self.n_old:
            return int(self.o2n[provisional])
        return self.n_keep + provisional - self.n_old


def _spliced_ids(
    ids: Tuple, index: Dict[NodeId, int], removed: np.ndarray, added: List[NodeId], kind: str
) -> Tuple[Tuple, Dict[NodeId, int]]:
    """One family's new node tuple and ``id -> position`` map.

    A family the delta did not change shares its base's tuple and map; one
    that only gained nodes extends a copy of them.  A family that lost nodes
    is joined from the slices around them, and its map renumbers every id
    from the first removed position on.  All of it is C-level copying; the
    shared maps are read-only.  The delta refuses an existing id, so the
    ids stay unique — the length check is the O(1) guard.
    """
    if len(removed) == 0:
        if not added:
            return ids, index
        new_ids = ids + tuple(added)
        new_index = index.copy()
        new_index.update(zip(added, range(len(ids), len(new_ids))))
    else:
        cuts = removed.tolist()
        new_ids = tuple(chain.from_iterable(
            [ids[lo + 1 : hi] for lo, hi in zip([-1] + cuts, cuts + [len(ids)])] + [added]
        ))
        new_index = index.copy()
        for pos in cuts:
            del new_index[ids[pos]]
        new_index.update(zip(new_ids[cuts[0]:], range(cuts[0], len(new_ids))))
    if len(new_index) != len(new_ids):
        raise InvalidInstanceError(f"duplicate {kind} identifiers")
    return new_ids, new_index


def _splice(
    indptr: np.ndarray,
    columns: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    o2n: np.ndarray,
    breaks: np.ndarray,
    rows: np.ndarray,
    counts: np.ndarray,
    values: Sequence[np.ndarray],
    n_new: int,
    moved: bool = False,
):
    """One CSR family in its edited row order: copied runs plus written rows.

    ``columns`` pairs each per-entry array with a map (old value → new value,
    e.g. an old → new position map) or None.  The old rows not in ``breaks``
    (sorted: the removed and the rebuilt rows) are copied, each maximal run
    of them with one slice assignment per column, through the column's map
    when it has one.  Survivors keep their relative order, so a run of old
    rows is a run of new rows (``o2n``) and the row pointers of a run are
    the old ones shifted.  The new ``rows`` (sorted: rebuilt and added) get
    ``counts[j]`` entries each, taken in order from each column's ``values``.
    No row length outside ``rows`` is recounted.

    Returns ``(indptr, columns, moved)``: with ``moved`` set, ``moved[e]`` is
    the new position of old entry ``e`` when its row was copied and −1
    otherwise (None without it).
    """
    n_old = len(indptr) - 1
    lo = np.concatenate(([0], breaks + 1))
    hi = np.concatenate((breaks, [n_old]))
    runs = lo < hi
    lo, hi = lo[runs], hi[runs]
    # Every new row lies in one copied run or in ``rows``; lay the pieces
    # out in new-row order.
    e_lo, e_hi = indptr[lo], indptr[hi]
    firsts = np.concatenate((o2n[lo], rows))
    sizes = np.concatenate((e_hi - e_lo, counts))
    order = np.argsort(firsts, kind="stable")
    offsets = np.empty(len(sizes), dtype=np.int64)
    offsets[order] = np.cumsum(sizes[order]) - sizes[order]
    total = int(sizes.sum())
    new_indptr = np.empty(n_new + 1, dtype=np.int64)
    new_indptr[0] = 0
    row_offsets = offsets[len(lo):]
    new_indptr[rows + 1] = row_offsets + counts
    out = [np.empty(total, dtype=col.dtype) for col, _ in columns]
    new_pos = np.full(int(indptr[-1]), -1, dtype=np.int64) if moved else None
    for row_lo, row_hi, first, start, stop, offset in zip(
        lo.tolist(), hi.tolist(), o2n[lo].tolist(), e_lo.tolist(), e_hi.tolist(),
        offsets[: len(lo)].tolist(),
    ):
        end = offset + stop - start
        new_indptr[first + 1 : first + 1 + row_hi - row_lo] = (
            indptr[row_lo + 1 : row_hi + 1] + (offset - start)
        )
        for dst, (col, remap) in zip(out, columns):
            src = col[start:stop]
            dst[offset:end] = src if remap is None else remap[src]
        if moved:
            new_pos[start:stop] = np.arange(offset, end, dtype=np.int64)
    if len(rows):
        flat = _segment_gather(row_offsets, counts)
        for dst, vals in zip(out, values):
            dst[flat] = vals
    return new_indptr, out, new_pos


def _edge_slots(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """Position of ``members[j]`` in CSR row ``rows[j]`` (each present exactly once)."""
    lo = indptr[rows]
    deg = indptr[rows + 1] - lo
    flat = _segment_gather(lo, deg)
    return flat[indices[flat] == np.repeat(members, deg)]


def _reverse(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge: np.ndarray,
    structural_owners: Set[int],
    owners: _Nodes,
    agents: _Nodes,
    moved: np.ndarray,
    pairs: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One reverse family, spliced: ``(indptr, agents, forward edges)``.

    The touched rows are the owners whose member set changed (surviving
    ``structural_owners``) and the added owners.  Each lists its surviving
    members whose forward row was copied — their edge moved with that row
    (``moved``) — and the ``pairs`` of rebuilt forward rows it owns.  A
    copied reverse row keeps its members; an entry whose agent's forward row
    was rebuilt is looked up in that row's new slot instead.
    """
    p_owner, p_agent, p_edge = pairs
    touched = np.asarray(
        sorted(o for o in structural_owners if o < owners.n_old and owners.o2n[o] >= 0),
        dtype=np.int64,
    )
    rows = np.concatenate(
        [owners.o2n[touched], np.arange(owners.n_keep, owners.n_new, dtype=np.int64)]
    )
    lo = indptr[touched]
    deg = indptr[touched + 1] - lo
    flat = _segment_gather(lo, deg)
    new_edge = moved[edge[flat]]
    kept = new_edge >= 0
    slot = np.searchsorted(rows, p_owner)  # which rebuilt edges a touched row owns
    in_rows = slot < len(rows)
    in_rows[in_rows] = rows[slot[in_rows]] == p_owner[in_rows]
    t_owner = np.concatenate([np.repeat(rows[: len(touched)], deg)[kept], p_owner[in_rows]])
    t_agent = np.concatenate([agents.o2n[indices[flat][kept]], p_agent[in_rows]])
    t_edge = np.concatenate([new_edge[kept], p_edge[in_rows]])
    order = np.lexsort((t_agent, t_owner))
    counts = np.bincount(np.searchsorted(rows, t_owner), minlength=len(rows))
    new_indptr, (new_indices, new_edges), _ = _splice(
        indptr, [(indices, agents.remap), (edge, moved)], owners.o2n,
        np.union1d(owners.removed, touched), rows, counts,
        [t_agent[order], t_edge[order]], owners.n_new,
    )
    fix = ~in_rows
    if fix.any():
        new_edges[_edge_slots(new_indptr, new_indices, p_owner[fix], p_agent[fix])] = p_edge[fix]
    return new_indptr, new_indices, new_edges


def _special_topology(
    base_view: Optional[_SpecialFormView],
    topology: _Topology,
    con_rows: Tuple[np.ndarray, np.ndarray, np.ndarray],
    obj_rows: Tuple[np.ndarray, np.ndarray, np.ndarray],
    agents: _Nodes,
    seed_old: np.ndarray,
    dirty: np.ndarray,
) -> Optional[_SpecialFormView]:
    """The edited special-form view's topology, or None.

    None when the base built no view, or when the edited degrees rule one
    out — the view is then left unbuilt, and its first access raises
    :class:`~repro.exceptions.NotSpecialFormError` as for any instance.
    Partners and objectives are whole-array gathers over the new arrays; the
    smoothing adjacency rebuilds the rows of ``dirty`` (a superset of the
    agents whose partners or siblings changed; ``seed_old`` are the
    survivors among them, in old positions) and copies the rest.
    """
    if base_view is None:
        return None
    con_indptr, con_indices, _ = con_rows
    obj_indptr, obj_indices, _ = obj_rows
    if _degree_violation(
        len(topology.cagents_indptr) - 1, len(topology.oagents_indptr) - 1,
        np.diff(con_indptr), np.diff(obj_indptr),
        np.diff(topology.cagents_indptr), np.diff(topology.oagents_indptr),
    ) is not None:
        return None
    view = _SpecialFormView.__new__(_SpecialFormView)
    view._partner_edge = _partner_edges(topology._cagents_edge)
    view.con_partner = topology.cagents_indices[view._partner_edge]
    view.obj_of_agent = obj_indices[obj_indptr[:-1]]
    counts, neighbours = _adjacency_rows(
        dirty, con_indptr, view.con_partner, view.obj_of_agent,
        topology.oagents_indptr, topology.oagents_indices,
    )
    view.adj_indptr, (view.adj_indices,), _ = _splice(
        base_view.adj_indptr, [(base_view.adj_indices, agents.remap)], agents.o2n,
        np.union1d(agents.removed, seed_old), dirty, counts, [neighbours], agents.n_new,
    )
    return view


#: Sentinel distinguishing "no pending edit" from "pending removal" (None).
_MISSING = object()


class _EditPlan:
    """Edit classification for one CSR side (see :meth:`CompiledDelta.apply`)."""

    __slots__ = ("by_row", "rows_to_rebuild", "structural_rows", "touched_owners", "structural_owners")

    def __init__(self) -> None:
        # agent provisional position → {(owner, agent) key → value}
        self.by_row: Dict[int, Dict[Tuple[int, int], Optional[float]]] = {}
        self.rows_to_rebuild: Set[int] = set()
        self.structural_rows: Set[int] = set()
        self.touched_owners: Set[int] = set()
        self.structural_owners: Set[int] = set()


def _slot(indptr: np.ndarray, indices: np.ndarray, row: int, member: int) -> int:
    """Position of ``member`` in CSR row ``row`` (−1 when absent)."""
    lo, hi = int(indptr[row]), int(indptr[row + 1])
    hit = np.flatnonzero(indices[lo:hi] == member)
    return lo + int(hit[0]) if len(hit) else -1


def _in_base(indptr: np.ndarray, indices: np.ndarray, key: Tuple[int, int]) -> bool:
    """True when the provisional ``(owner, agent)`` edge exists in the base rows."""
    owner, agent = key
    return agent < len(indptr) - 1 and _slot(indptr, indices, agent, owner) >= 0


def _classify_edits(
    edits: Dict[Tuple[int, int], Optional[float]],
    indptr: np.ndarray,
    indices: np.ndarray,
    removed_agents: Set[int],
    removed_owners: Set[int],
) -> _EditPlan:
    plan = _EditPlan()
    for key, val in edits.items():
        owner, agent = key
        if agent in removed_agents or owner in removed_owners:
            continue  # edits are dropped at removal time; belt and braces
        existed = _in_base(indptr, indices, key)
        if val is None and not existed:
            continue  # add-then-remove inside one delta: net no-op
        plan.by_row.setdefault(agent, {})[(owner, agent)] = val
        plan.rows_to_rebuild.add(agent)
        plan.touched_owners.add(owner)
        if val is None or not existed:
            plan.structural_rows.add(agent)
            plan.structural_owners.add(owner)
    return plan
