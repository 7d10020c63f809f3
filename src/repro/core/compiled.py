"""Compiled numeric views of a :class:`~repro.core.instance.MaxMinInstance`.

A :class:`CompiledInstance` is the representation every instance is built
around: the bipartite structure as int-indexed CSR (compressed sparse row)
arrays, so that whole-instance sweeps in the solver kernels
(:mod:`repro.algo.kernels`), preprocessing and the §4 pipeline become a
handful of :mod:`numpy` gather / segmented-reduce operations.  Every
:class:`MaxMinInstance` constructor checks its per-agent edge arrays and
builds the compiled view once, at construction; the instance's coefficient
and adjacency dicts are lazy views derived from these arrays.

The lowering is *index-compressed*: agents, constraints and objectives are
numbered ``0 … n−1`` in their canonical (declaration) order, so positions in
every array line up with :attr:`MaxMinInstance.agents` etc.

Two layers are exposed:

* the *generic* CSR adjacency (any instance): per-agent constraint and
  objective edges with coefficients, and the reverse per-constraint /
  per-objective agent lists;
* the *special-form* view (``|V_i| = 2``, ``|K_v| = 1``): the partner agent
  behind every agent–constraint edge, the unique objective per agent, and
  the agent-level smoothing adjacency (constraint partners ∪ objective
  siblings — exactly the agents at communication-graph distance 2).  Built
  lazily on first access and rejected with :class:`NotSpecialFormError`
  when the degree structure does not match.
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import InvalidInstanceError, NotSpecialFormError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (instance imports us lazily)
    from .._types import NodeId
    from .instance import MaxMinInstance

__all__ = ["CompiledInstance", "CompiledBatch", "CompiledDelta", "DeltaResult", "stack_compiled"]


def _transpose_csr(
    indptr: np.ndarray, indices: np.ndarray, num_target_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse a forward CSR (owner → members) into member → owners rows.

    Returns ``(t_indptr, t_indices, edge)``: ``edge[e]`` is the forward
    edge behind reverse edge ``e``, so ``coeff[edge]`` carries a forward
    coefficient array over.  Both CSR families of an instance list row
    members in canonical order, so the reverse rows must come out sorted by
    owner position within each member row — exactly the order a stable
    ``(member, owner)`` lexsort produces.  ``indices`` must lie in
    ``[0, num_target_rows)``.
    """
    owner = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    edge = np.lexsort((owner, indices))
    t_indptr = np.zeros(num_target_rows + 1, dtype=np.int64)
    if len(indices):
        np.cumsum(np.bincount(indices, minlength=num_target_rows), out=t_indptr[1:])
    return t_indptr, owner[edge], edge


class _SpecialFormView:
    """Special-form-only arrays derived from the generic CSR layer.

    With ``like`` (the view of a compiled instance with the same edges) only
    the partner coefficients are gathered anew; the partner, objective and
    smoothing-adjacency arrays are shared with it.
    """

    __slots__ = (
        "con_partner",
        "con_partner_coeff",
        "obj_of_agent",
        "adj_indptr",
        "adj_indices",
        "_partner_edge",
    )

    def __init__(
        self, compiled: "CompiledInstance", like: Optional["_SpecialFormView"] = None
    ) -> None:
        if like is not None:
            self._partner_edge = like._partner_edge
            self.con_partner = like.con_partner
            self.con_partner_coeff = compiled.cagents_coeff[like._partner_edge]
            self.obj_of_agent = like.obj_of_agent
            self.adj_indptr = like.adj_indptr
            self.adj_indices = like.adj_indices
            return
        name = getattr(compiled.instance, "name", None)
        n = compiled.num_agents
        con_deg = np.diff(compiled.con_indptr)
        obj_deg = np.diff(compiled.obj_indptr)
        cagent_deg = np.diff(compiled.cagents_indptr)
        oagent_deg = np.diff(compiled.oagents_indptr)
        if compiled.num_constraints and not np.all(cagent_deg == 2):
            raise NotSpecialFormError(
                f"instance {name!r} has constraints of degree != 2; "
                "the compiled special-form view requires |V_i| = 2"
            )
        if n and not (np.all(obj_deg == 1) and np.all(con_deg >= 1)):
            raise NotSpecialFormError(
                f"instance {name!r} violates |K_v| = 1 / |I_v| >= 1; "
                "run the transformation pipeline before compiling the special-form view"
            )
        if compiled.num_objectives and not np.all(oagent_deg >= 2):
            raise NotSpecialFormError(
                f"instance {name!r} has objectives of degree < 2"
            )

        # Partner behind each agent–constraint edge: the degree-2 constraint
        # row holds exactly {owner, partner}.
        owner = np.repeat(np.arange(n, dtype=np.int64), con_deg)
        row_start = compiled.cagents_indptr[compiled.con_indices]
        owner_is_first = compiled.cagents_indices[row_start] == owner
        self._partner_edge = np.where(owner_is_first, row_start + 1, row_start)
        self.con_partner = compiled.cagents_indices[self._partner_edge]
        self.con_partner_coeff = compiled.cagents_coeff[self._partner_edge]

        # Unique objective per agent (|K_v| = 1 verified above).
        self.obj_of_agent = compiled.obj_indices[compiled.obj_indptr[:-1]].copy() if n else np.zeros(0, dtype=np.int64)

        # Agent-level smoothing adjacency: constraint partners plus objective
        # siblings.  These are exactly the agents at communication-graph
        # distance 2 (agents sit at even distances in the bipartite graph),
        # so one hop here equals two graph edges.
        sib_counts = (oagent_deg[self.obj_of_agent] - 1) if n else np.zeros(0, dtype=np.int64)
        sib_starts = compiled.oagents_indptr[self.obj_of_agent] if n else np.zeros(0, dtype=np.int64)
        flat = _segment_gather(sib_starts, oagent_deg[self.obj_of_agent]) if n else np.zeros(0, dtype=np.int64)
        members = compiled.oagents_indices[flat] if n else np.zeros(0, dtype=np.int64)
        member_owner = np.repeat(np.arange(n, dtype=np.int64), oagent_deg[self.obj_of_agent]) if n else np.zeros(0, dtype=np.int64)
        siblings = members[members != member_owner]

        counts = con_deg + sib_counts
        self.adj_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.adj_indptr[1:])
        adj = np.empty(int(self.adj_indptr[-1]), dtype=np.int64)
        # Interleave: per agent, first its constraint partners, then siblings.
        con_pos = _segment_gather(self.adj_indptr[:-1], con_deg)
        sib_pos = _segment_gather(self.adj_indptr[:-1] + con_deg, sib_counts)
        adj[con_pos] = self.con_partner
        adj[sib_pos] = siblings
        self.adj_indices = adj


def _segment_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat index array enumerating ``starts[j] … starts[j]+counts[j]−1`` per segment.

    The standard repeat/cumsum idiom: builds the concatenation of all segment
    ranges without a Python loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + np.repeat(starts, counts)


def _index(ids: Tuple, kind: str) -> Dict[object, int]:
    """``identifier -> position`` over one canonical node order (ids unique)."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        raise InvalidInstanceError(f"duplicate {kind} identifiers")
    return index


def _checked_rows(
    kind: str,
    symbol: str,
    indptr,
    indices,
    coeff,
    members: Tuple,
    agents: Tuple,
    structure: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One family of per-agent CSR rows as int64 / float64 arrays, checked.

    Raises :class:`InvalidInstanceError`, worded like the dict constructor's
    errors, unless every coefficient is positive and finite and — when
    ``structure`` is set — the row pointers are well formed, every member
    position lies in ``[0, len(members))`` and every row lists its members
    in strictly increasing position (the canonical adjacency order; an equal
    neighbour is a duplicate edge).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    coeff = np.asarray(coeff, dtype=np.float64)
    nnz = len(indices)
    if coeff.shape != (nnz,) or structure and (
        indptr.shape != (len(agents) + 1,)
        or indices.ndim != 1
        or indptr[0] != 0
        or indptr[-1] != nnz
        or bool((np.diff(indptr) < 0).any())
    ):
        raise InvalidInstanceError(
            f"malformed {kind} rows: expected {len(agents) + 1} nondecreasing row "
            f"pointers from 0 to {nnz} and one coefficient per edge"
        )

    def agent_of(edge: int):
        return agents[int(np.searchsorted(indptr, edge, side="right")) - 1]

    if structure:
        bad = (indices < 0) | (indices >= len(members))
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            raise InvalidInstanceError(
                f"coefficient {symbol}[?, {agent_of(e)!r}] refers to unknown {kind} "
                f"position {int(indices[e])}"
            )
    bad = ~(np.isfinite(coeff) & (coeff > 0.0))
    if bad.any():
        e = int(np.flatnonzero(bad)[0])
        raise InvalidInstanceError(
            f"{kind} coefficient {symbol}[{members[indices[e]]!r}, {agent_of(e)!r}] = "
            f"{float(coeff[e])} must be positive and finite"
        )
    if structure and nnz > 1:
        bad = indices[1:] <= indices[:-1]
        starts = indptr[1:-1]
        bad[starts[(starts > 0) & (starts < nnz)] - 1] = False  # across a row break
        if bad.any():
            e = int(np.flatnonzero(bad)[0]) + 1
            if indices[e] == indices[e - 1]:
                raise InvalidInstanceError(
                    f"duplicate {kind} coefficient for "
                    f"({members[indices[e]]!r}, {agent_of(e)!r})"
                )
            raise InvalidInstanceError(
                f"{kind} row of agent {agent_of(e)!r} is not in canonical order"
            )
    return indptr, indices, coeff


#: The slots of a compiled view that depend only on its nodes and edges —
#: what a coefficient-only edit shares with its base (see ``topology``).
_TOPOLOGY = (
    "agent_index",
    "constraint_index",
    "objective_index",
    "cagents_indptr",
    "cagents_indices",
    "oagents_indptr",
    "oagents_indices",
    "_cagents_edge",
    "_oagents_edge",
    "_constraint_degrees",
    "_objective_degrees",
    "_cagents_owner",
    "_oagents_owner",
)


class CompiledInstance:
    """Int-indexed CSR arrays of one :class:`MaxMinInstance` (see module docs).

    Built once by every :class:`MaxMinInstance` constructor, never directly;
    this constructor is where every producer's arrays are checked.

    Attributes
    ----------
    agents, constraints, objectives:
        Canonical node orders (tuples, identical to the instance's).
    agent_index, constraint_index, objective_index:
        Reverse maps ``identifier -> position``.
    con_indptr, con_indices, con_coeff:
        Per-agent constraint edges: agent ``v``'s edges occupy
        ``con_indptr[v]:con_indptr[v+1]``; ``con_indices`` holds constraint
        positions, ``con_coeff`` holds ``a_iv`` — both in the instance's
        canonical adjacency order, which the kernels rely on to match the
        reference implementation's floating-point evaluation order.
    obj_indptr, obj_indices, obj_coeff:
        Per-agent objective edges (``c_kv``).
    cagents_indptr, cagents_indices, cagents_coeff:
        Per-constraint agent lists (``V_i``) with coefficients.
    oagents_indptr, oagents_indices, oagents_coeff:
        Per-objective agent lists (``V_k``) with coefficients.
    capacity:
        ``min_{i∈I_v} 1/a_iv`` per agent (``inf`` for unconstrained agents).
    """

    __slots__ = (
        "_instance",
        "agents",
        "constraints",
        "objectives",
        "con_indptr",
        "con_indices",
        "con_coeff",
        "obj_indptr",
        "obj_indices",
        "obj_coeff",
        "cagents_coeff",
        "oagents_coeff",
        "capacity",
        "_special",
    ) + _TOPOLOGY

    def __init__(
        self,
        instance: "MaxMinInstance",
        con: Tuple[np.ndarray, np.ndarray, np.ndarray],
        obj: Tuple[np.ndarray, np.ndarray, np.ndarray],
        topology: Optional["CompiledInstance"] = None,
    ) -> None:
        """Check and lower the forward ``(indptr, indices, coefficients)`` rows.

        ``con`` / ``obj`` are the per-agent constraint / objective rows over
        ``instance``'s node tuples (see :func:`_checked_rows`).  The reverse
        families come from :func:`_transpose_csr` — or, given ``topology``
        (a compiled view of the same nodes and the same ``indptr`` /
        ``indices`` arrays, whose coefficients alone differ), every
        :data:`_TOPOLOGY` slot and the special-form view's topology are
        shared with it and only the coefficient arrays and capacities are
        derived anew.
        """
        self._instance = weakref.ref(instance)
        self.agents = instance.agents
        self.constraints = instance.constraints
        self.objectives = instance.objectives
        # A topology's rows were checked when it was built: only the new
        # coefficients need checking.
        structure = topology is None
        self.con_indptr, self.con_indices, self.con_coeff = _checked_rows(
            "constraint", "a", *con, self.constraints, self.agents, structure
        )
        self.obj_indptr, self.obj_indices, self.obj_coeff = _checked_rows(
            "objective", "c", *obj, self.objectives, self.agents, structure
        )
        if topology is None:
            self.agent_index = _index(self.agents, "agent")
            self.constraint_index = _index(self.constraints, "constraint")
            self.objective_index = _index(self.objectives, "objective")
            self.cagents_indptr, self.cagents_indices, self._cagents_edge = _transpose_csr(
                self.con_indptr, self.con_indices, len(self.constraints)
            )
            self.oagents_indptr, self.oagents_indices, self._oagents_edge = _transpose_csr(
                self.obj_indptr, self.obj_indices, len(self.objectives)
            )
            self._constraint_degrees = self._objective_degrees = None
            self._cagents_owner = self._oagents_owner = None
        else:
            for slot in _TOPOLOGY:
                setattr(self, slot, getattr(topology, slot))
        self.cagents_coeff = self.con_coeff[self._cagents_edge]
        self.oagents_coeff = self.obj_coeff[self._oagents_edge]
        if topology is None:
            self.capacity = self.agent_constraint_min(1.0 / self.con_coeff)
            self._special = None
        else:
            self.capacity = self._edited_capacity(topology)
            like = topology._special
            self._special = None if like is None else _SpecialFormView(self, like)

    def _edited_capacity(self, topology: "CompiledInstance") -> np.ndarray:
        """``topology``'s capacities with the agents owning an edited
        constraint coefficient recomputed (each row's minimum, whole)."""
        capacity = topology.capacity.copy()
        edited = np.flatnonzero(self.con_coeff != topology.con_coeff)
        rows = np.unique(np.searchsorted(self.con_indptr, edited, side="right") - 1)
        if len(rows):
            counts = self.con_indptr[rows + 1] - self.con_indptr[rows]
            starts = np.zeros(len(rows), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            edges = _segment_gather(self.con_indptr[rows], counts)
            capacity[rows] = np.minimum.reduceat(1.0 / self.con_coeff[edges], starts)
        return capacity

    # ------------------------------------------------------------------
    @property
    def instance(self) -> Optional["MaxMinInstance"]:
        """The instance this view belongs to (``None`` once it is gone).

        Held weakly: the instance owns its view, and a strong reference back
        would make every instance a reference cycle that only the cyclic
        collector frees — a server discarding duplicate uploads would pile
        them up.
        """
        return self._instance()

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_objectives(self) -> int:
        return len(self.objectives)

    # ------------------------------------------------------------------
    # Degree views (any instance)
    # ------------------------------------------------------------------
    @property
    def constraint_degrees(self) -> np.ndarray:
        """``|V_i|`` per constraint position — the safe baseline's divisor."""
        if self._constraint_degrees is None:
            self._constraint_degrees = np.diff(self.cagents_indptr)
        return self._constraint_degrees

    @property
    def objective_degrees(self) -> np.ndarray:
        """``|V_k|`` per objective position."""
        if self._objective_degrees is None:
            self._objective_degrees = np.diff(self.oagents_indptr)
        return self._objective_degrees

    @property
    def cagents_owner(self) -> np.ndarray:
        """Constraint position owning each ``cagents_*`` edge (repeat-encoded rows)."""
        if self._cagents_owner is None:
            self._cagents_owner = np.repeat(
                np.arange(self.num_constraints, dtype=np.int64),
                np.diff(self.cagents_indptr),
            )
        return self._cagents_owner

    @property
    def oagents_owner(self) -> np.ndarray:
        """Objective position owning each ``oagents_*`` edge (repeat-encoded rows)."""
        if self._oagents_owner is None:
            self._oagents_owner = np.repeat(
                np.arange(self.num_objectives, dtype=np.int64),
                np.diff(self.oagents_indptr),
            )
        return self._oagents_owner

    def constraint_loads(self, values: np.ndarray) -> np.ndarray:
        """``Σ_{v ∈ V_i} a_iv x_v`` per constraint for a canonical-order vector.

        Accumulates through :func:`numpy.bincount`, whose C loop adds strictly
        in input (canonical adjacency) order — the per-constraint sums are
        therefore *bitwise* identical to the reference implementation's
        sequential Python summation (``np.add.reduceat`` would not be: its
        inner reduction associates differently).  Empty rows yield 0.0,
        matching ``sum(()) == 0``.
        """
        return np.bincount(
            self.cagents_owner,
            weights=self.cagents_coeff * values[self.cagents_indices],
            minlength=self.num_constraints,
        )

    def objective_values(self, values: np.ndarray) -> np.ndarray:
        """``ω_k(x) = Σ_{v ∈ V_k} c_kv x_v`` per objective — same bitwise
        contract as :meth:`constraint_loads`."""
        return np.bincount(
            self.oagents_owner,
            weights=self.oagents_coeff * values[self.oagents_indices],
            minlength=self.num_objectives,
        )

    def agent_constraint_min(self, edge_values: np.ndarray) -> np.ndarray:
        """``min_{i ∈ I_v} edge_values[e]`` per agent over its constraint edges.

        ``edge_values`` is aligned with ``con_indices`` (one value per
        agent–constraint edge).  Agents without constraints get ``inf`` — the
        same convention as :attr:`capacity` (which equals
        ``agent_constraint_min(1 / con_coeff)``).
        """
        out = np.full(self.num_agents, np.inf, dtype=np.float64)
        if len(edge_values):
            nonempty = np.flatnonzero(np.diff(self.con_indptr) > 0)
            out[nonempty] = np.minimum.reduceat(edge_values, self.con_indptr[nonempty])
        return out

    # ------------------------------------------------------------------
    # Special-form view
    # ------------------------------------------------------------------
    def _special_view(self) -> _SpecialFormView:
        if self._special is None:
            self._special = _SpecialFormView(self)
        return self._special

    @property
    def con_partner(self) -> np.ndarray:
        """Partner agent position behind each agent–constraint edge (|V_i| = 2)."""
        return self._special_view().con_partner

    @property
    def con_partner_coeff(self) -> np.ndarray:
        """``a_{i, n(v,i)}`` for each agent–constraint edge (|V_i| = 2)."""
        return self._special_view().con_partner_coeff

    @property
    def obj_of_agent(self) -> np.ndarray:
        """Position of the unique objective ``k(v)`` per agent (|K_v| = 1)."""
        return self._special_view().obj_of_agent

    @property
    def smoothing_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """Agent-level CSR adjacency ``(indptr, indices)`` for the smoothing kernel.

        Neighbours of agent ``v`` are its constraint partners and objective
        siblings — the agents at communication-graph distance exactly 2.
        Row ``v`` lists its partners in ``con_partner`` order, then its
        objective's members minus ``v`` in canonical order (the sibling slots
        :func:`~repro.algo.kernels.build_batched_trees` expands); a
        :class:`CompiledBatch` and a delta-edited view keep that layout.
        ``2r + 1`` synchronous neighbour-min rounds over this adjacency
        therefore equal the paper's radius-``4r + 2`` smoothing ball (``4r + 2``
        rounds over the bipartite graph collapse pairwise, since agents only
        meet at even distances).
        """
        view = self._special_view()
        return view.adj_indptr, view.adj_indices

    def sibling_sums(self, values: np.ndarray) -> np.ndarray:
        """``Σ_{w ∈ N(v)} values[w]`` per agent (objective siblings, |K_v| = 1)."""
        obj_of_agent = self.obj_of_agent
        per_objective = np.bincount(
            obj_of_agent, weights=values, minlength=self.num_objectives
        )
        return per_objective[obj_of_agent] - values

    # ------------------------------------------------------------------
    # Delta editing
    # ------------------------------------------------------------------
    def delta(self) -> "CompiledDelta":
        """Start a :class:`CompiledDelta` edit batch against this view."""
        return CompiledDelta(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledInstance({getattr(self.instance, 'name', None)!r}, |V|={self.num_agents}, "
            f"|I|={self.num_constraints}, |K|={self.num_objectives}, "
            f"nnz={len(self.con_indices) + len(self.obj_indices)})"
        )


class DeltaResult:
    """Outcome of :meth:`CompiledDelta.apply`.

    Attributes
    ----------
    instance, compiled:
        The edited :class:`MaxMinInstance` and its (array-patched) compiled
        view — bitwise and digest identical to declaring the edited instance
        from scratch.
    dirty_agents:
        Sorted *new* agent positions whose local data changed: agents whose
        own edge rows were edited plus every surviving member of a touched
        constraint / objective (their capacities, partner coefficients or
        sibling sets changed) plus added agents.  These are the seeds the
        incremental solver expands to r-balls.
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
        instance: "MaxMinInstance",
        compiled: "CompiledInstance",
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
    constraint / objective additions and removals, then :meth:`apply` patches
    the base's forward CSR arrays in one pass: untouched rows are
    block-copied with a vectorized position remap and only the touched rows
    are rebuilt from their edit dicts.  The patched arrays go through
    :meth:`MaxMinInstance.from_arrays` like every other producer's, so the
    resulting instance + compiled view are bitwise and digest identical to
    declaring the edited instance from scratch (pinned by
    ``tests/test_incremental.py``) without a Python loop over the edges.

    Coefficients are validated at edit time (and checked again by the
    constructor), node
    identifiers are resolved against the base instance plus this delta's own
    additions, and constraints / objectives referenced by a ``set_*`` call
    are created on first use.  Agents must exist or be declared via
    :meth:`add_agent` first.  A delta is single-use: apply it once.
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

    def __init__(self, base: "CompiledInstance") -> None:
        self.base = base
        self.instance = base.instance
        self._removed_agents: Set[int] = set()
        self._removed_constraints: Set[int] = set()
        self._removed_objectives: Set[int] = set()
        self._added_agents: List["NodeId"] = []
        self._added_agent_pos: Dict["NodeId", int] = {}
        self._added_constraints: List["NodeId"] = []
        self._added_constraint_pos: Dict["NodeId", int] = {}
        self._added_objectives: List["NodeId"] = []
        self._added_objective_pos: Dict["NodeId", int] = {}
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
    def _agent_pos(self, v: "NodeId") -> int:
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

    def _constraint_pos(self, i: "NodeId", create: bool = False) -> int:
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

    def _objective_pos(self, k: "NodeId", create: bool = False) -> int:
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
    def add_agent(self, v: "NodeId") -> None:
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

    def remove_agent(self, v: "NodeId") -> None:
        """Remove an agent and (implicitly) all of its edges."""
        if v in self._added_agent_pos:
            raise InvalidInstanceError(f"agent {v!r} was added by this delta; cannot remove it")
        pos = self._agent_pos(v)
        self._removed_agents.add(pos)
        self._con_edits = {key: val for key, val in self._con_edits.items() if key[1] != pos}
        self._obj_edits = {key: val for key, val in self._obj_edits.items() if key[1] != pos}
        self._num_edits += 1

    def remove_constraint(self, i: "NodeId") -> None:
        """Remove a constraint and all of its edges."""
        if i in self._added_constraint_pos:
            raise InvalidInstanceError(
                f"constraint {i!r} was added by this delta; cannot remove it"
            )
        pos = self._constraint_pos(i)
        self._removed_constraints.add(pos)
        self._con_edits = {key: val for key, val in self._con_edits.items() if key[0] != pos}
        self._num_edits += 1

    def remove_objective(self, k: "NodeId") -> None:
        """Remove an objective and all of its edges."""
        if k in self._added_objective_pos:
            raise InvalidInstanceError(
                f"objective {k!r} was added by this delta; cannot remove it"
            )
        pos = self._objective_pos(k)
        self._removed_objectives.add(pos)
        self._obj_edits = {key: val for key, val in self._obj_edits.items() if key[0] != pos}
        self._num_edits += 1

    def set_constraint_coefficient(self, i: "NodeId", v: "NodeId", coeff: float) -> None:
        """Set ``a_iv`` (creates the edge, and the constraint, when absent)."""
        coeff = _check_coefficient(f"constraint coefficient a[{i!r}, {v!r}]", coeff)
        self._con_edits[(self._constraint_pos(i, create=True), self._agent_pos(v))] = coeff
        self._num_edits += 1

    def remove_constraint_edge(self, i: "NodeId", v: "NodeId") -> None:
        """Remove the edge between constraint ``i`` and agent ``v``."""
        key = (self._constraint_pos(i), self._agent_pos(v))
        pending = self._con_edits.get(key, _MISSING)
        if pending is None:
            raise InvalidInstanceError(f"edge a[{i!r}, {v!r}] already removed by this delta")
        if pending is _MISSING and not _in_base(self.base.con_indptr, self.base.con_indices, key):
            raise InvalidInstanceError(f"no edge a[{i!r}, {v!r}] to remove")
        self._con_edits[key] = None
        self._num_edits += 1

    def set_objective_coefficient(self, k: "NodeId", v: "NodeId", coeff: float) -> None:
        """Set ``c_kv`` (creates the edge, and the objective, when absent)."""
        coeff = _check_coefficient(f"objective coefficient c[{k!r}, {v!r}]", coeff)
        self._obj_edits[(self._objective_pos(k, create=True), self._agent_pos(v))] = coeff
        self._num_edits += 1

    def remove_objective_edge(self, k: "NodeId", v: "NodeId") -> None:
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
    def apply(self, name: Optional[str] = None) -> "DeltaResult":
        """Materialise the edited instance + compiled view (see class docs)."""
        from .. import obs

        base = self.base
        inst = self.instance
        nA, nC, nK = base.num_agents, base.num_constraints, base.num_objectives
        if self._num_edits == 0:
            return DeltaResult(
                inst, base, np.zeros(0, dtype=np.int64), np.arange(nA, dtype=np.int64), False, 0
            )
        obs.count("compiled.delta_applies")
        obs.count("compiled.delta_edits", self._num_edits)

        # --- agent position map (old → new) ------------------------------
        o2n_a, _ = _position_maps(nA, self._removed_agents, len(self._added_agents))

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
            new_inst, new_comp = self._apply_coefficient_only(con, obj, name)
            seeds = set(con.rows_to_rebuild) | set(obj.rows_to_rebuild)
            touched_c = np.asarray(sorted(con.touched_owners), dtype=np.int64)
            touched_k = np.asarray(sorted(obj.touched_owners), dtype=np.int64)
            seeds.update(_row_members(base.cagents_indptr, base.cagents_indices, touched_c).tolist())
            seeds.update(_row_members(base.oagents_indptr, base.oagents_indices, touched_k).tolist())
            dirty = np.asarray(sorted(seeds), dtype=np.int64)
            obs.count("compiled.delta_dirty_agents", len(dirty))
            return DeltaResult(new_inst, new_comp, dirty, o2n_a, False, self._num_edits)

        removed_a = np.asarray(sorted(self._removed_agents), dtype=np.int64)
        # Constraints / objectives losing a member through agent removal.
        con.structural_owners.update(
            _row_members(base.con_indptr, base.con_indices, removed_a).tolist()
        )
        obj.structural_owners.update(
            _row_members(base.obj_indptr, base.obj_indices, removed_a).tolist()
        )
        # Surviving members of removed constraints / objectives see their own
        # forward rows change — and are dirty either way.
        con.structural_owners.update(self._removed_constraints)
        obj.structural_owners.update(self._removed_objectives)
        rm_c = np.asarray(sorted(self._removed_constraints), dtype=np.int64)
        rm_k = np.asarray(sorted(self._removed_objectives), dtype=np.int64)
        con.structural_rows.update(
            _row_members(base.cagents_indptr, base.cagents_indices, rm_c).tolist()
        )
        obj.structural_rows.update(
            _row_members(base.oagents_indptr, base.oagents_indices, rm_k).tolist()
        )

        # --- patch the forward CSR families -----------------------------
        o2n_c, p2n_c = _position_maps(nC, self._removed_constraints, len(self._added_constraints))
        o2n_k, p2n_k = _position_maps(nK, self._removed_objectives, len(self._added_objectives))
        new_agents = _new_nodes(base.agents, o2n_a, self._added_agents)
        new_cons = _new_nodes(base.constraints, o2n_c, self._added_constraints)
        new_objs = _new_nodes(base.objectives, o2n_k, self._added_objectives)
        n_new_agents = len(new_agents)

        con_arrays = self._patch_forward(
            base.con_indptr, base.con_indices, base.con_coeff,
            con, o2n_a, p2n_c, self._removed_constraints, n_new_agents,
        )
        obj_arrays = self._patch_forward(
            base.obj_indptr, base.obj_indices, base.obj_coeff,
            obj, o2n_a, p2n_k, self._removed_objectives, n_new_agents,
        )

        from .instance import MaxMinInstance

        new_inst = MaxMinInstance.from_arrays(
            new_agents, new_cons, new_objs, *con_arrays, *obj_arrays,
            name=inst.name if name is None else name,
        )
        new_comp = new_inst.compiled()

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
        dirty_parts = [o2n_a[seed_old]] if len(seed_old) else []
        if self._added_agents:
            n_keep = n_new_agents - len(self._added_agents)
            dirty_parts.append(np.arange(n_keep, n_new_agents, dtype=np.int64))
        dirty = (
            np.unique(np.concatenate(dirty_parts)) if dirty_parts else np.zeros(0, dtype=np.int64)
        )
        obs.count("compiled.delta_dirty_agents", len(dirty))
        return DeltaResult(new_inst, new_comp, dirty, o2n_a, structural, self._num_edits)

    def _apply_coefficient_only(
        self, con: "_EditPlan", obj: "_EditPlan", name: Optional[str]
    ) -> Tuple["MaxMinInstance", "CompiledInstance"]:
        """Non-structural fast path: every edit is a coefficient update on an
        existing edge.  Only the two forward coefficient arrays are copied
        and patched, ``O(degree)`` per edit; the edited instance is built by
        :meth:`MaxMinInstance._with_coefficients`, whose compiled view shares
        every topology-derived structure with the base (node tuples, index
        maps, every indptr / indices array, the special-form view's partner
        and adjacency arrays) and derives the reverse coefficients,
        capacities and partner coefficients with whole-array gathers — no
        transpose and no Python loop over the edges.
        """
        from .. import obs

        base = self.base
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
        new_inst = self.instance._with_coefficients(
            con_coeff, obj_coeff, self.instance.name if name is None else name
        )
        return new_inst, new_inst.compiled()

    def _patch_forward(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        coeff: np.ndarray,
        edits: "_EditPlan",
        o2n_row: np.ndarray,
        p2n_member: np.ndarray,
        removed_members: Set[int],
        n_new_rows: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """New forward CSR: block-copy clean rows, rebuild touched rows."""
        n_old = len(indptr) - 1
        old_deg = np.diff(indptr)
        # Rows to rebuild: edited rows + rows that lost a member + added rows.
        rebuild_old = sorted(
            row for row in (edits.rows_to_rebuild | edits.structural_rows)
            if row < n_old and row not in self._removed_agents
        )
        rebuild_set = set(rebuild_old)
        survivors = np.flatnonzero(o2n_row[:n_old] >= 0) if n_old else np.zeros(0, dtype=np.int64)
        clean_old = (
            survivors[~np.isin(survivors, np.asarray(rebuild_old, dtype=np.int64))]
            if rebuild_old
            else survivors
        )

        built: Dict[int, Tuple[List[int], List[float]]] = {}
        member_map = p2n_member  # provisional member position → new position
        indptr_l = indptr
        for row in rebuild_old:
            lo, hi = int(indptr_l[row]), int(indptr_l[row + 1])
            entries = {
                int(m): float(c)
                for m, c in zip(indices[lo:hi].tolist(), coeff[lo:hi].tolist())
                if int(m) not in removed_members
            }
            for (owner, agent), val in edits.by_row.get(row, {}).items():
                if val is None:
                    entries.pop(owner, None)
                else:
                    entries[owner] = val
            items = sorted((int(member_map[m]), c) for m, c in entries.items())
            built[int(o2n_row[row])] = ([m for m, _ in items], [c for _, c in items])
        n_keep = int(len(survivors))
        for j, _ in enumerate(self._added_agents):
            prov = n_old + j
            entries_add = {
                owner: val
                for (owner, agent), val in edits.by_row.get(prov, {}).items()
                if val is not None
            }
            items = sorted((int(member_map[m]), c) for m, c in entries_add.items())
            built[n_keep + j] = ([m for m, _ in items], [c for _, c in items])

        counts = np.zeros(n_new_rows, dtype=np.int64)
        clean_new = o2n_row[clean_old]
        counts[clean_new] = old_deg[clean_old]
        for new_row, (members, _) in built.items():
            counts[new_row] = len(members)
        new_indptr = np.zeros(n_new_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        total = int(new_indptr[-1])
        new_indices = np.empty(total, dtype=np.int64)
        new_coeff = np.empty(total, dtype=np.float64)
        if len(clean_old):
            dst = _segment_gather(new_indptr[clean_new], old_deg[clean_old])
            src = _segment_gather(indptr[clean_old], old_deg[clean_old])
            new_indices[dst] = member_map[indices[src]]
            new_coeff[dst] = coeff[src]
        for new_row, (members, coeffs) in built.items():
            lo = int(new_indptr[new_row])
            new_indices[lo : lo + len(members)] = members
            new_coeff[lo : lo + len(members)] = coeffs
        return new_indptr, new_indices, new_coeff


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


def _position_maps(n_old: int, removed: Set[int], n_added: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(old → new, provisional → new)`` position maps (−1 = removed)."""
    o2n = np.full(n_old, -1, dtype=np.int64)
    if removed:
        keep = np.ones(n_old, dtype=bool)
        keep[np.asarray(sorted(removed), dtype=np.int64)] = False
        kept = np.flatnonzero(keep)
    else:
        kept = np.arange(n_old, dtype=np.int64)
    o2n[kept] = np.arange(len(kept), dtype=np.int64)
    p2n = np.concatenate(
        [o2n, np.arange(len(kept), len(kept) + n_added, dtype=np.int64)]
    )
    return o2n, p2n


def _row_members(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated members of the given CSR rows."""
    if len(rows) == 0:
        return np.zeros(0, dtype=np.int64)
    deg = np.diff(indptr)[rows]
    return indices[_segment_gather(indptr[rows], deg)]


def _new_nodes(old_nodes: Tuple, o2n: np.ndarray, added: List) -> List:
    """Survivors in old canonical order, then the delta's additions."""
    survivors = [node for pos, node in enumerate(old_nodes) if o2n[pos] >= 0]
    return survivors + list(added)


def _cat_indptr(indptrs: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate CSR index pointers, shifting each block past the previous."""
    parts = [np.zeros(1, dtype=np.int64)]
    offset = 0
    for ptr in indptrs:
        parts.append(ptr[1:] + offset)
        offset += int(ptr[-1])
    return np.concatenate(parts)


def _cat_shifted(arrays: Sequence[np.ndarray], offsets: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Concatenate index arrays, shifting block ``b`` by ``offsets[b]``."""
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([arr + off for arr, off in zip(arrays, offsets)])


class CompiledBatch:
    """Several compiled instances stacked into one block-diagonal CSR view.

    The §5 kernels (:mod:`repro.algo.kernels`) only read per-agent adjacency
    arrays and reduce over row segments, so a *batch* of instances whose
    index arrays are concatenated with offset-shifted positions behaves
    exactly like one big (disconnected) instance: one
    :func:`~repro.algo.kernels.batched_upper_bounds` call builds every tree
    of every instance, one smoothing pass propagates every block, one ``g±``
    sweep covers all agents — the kernel-launch overhead is paid once per
    *batch* instead of once per instance.  Because every kernel is
    segment-local, the per-agent outputs are bitwise identical to running
    the instances one at a time (pinned by ``tests/test_kernels.py``).

    Exposes exactly the :class:`CompiledInstance` surface the kernels
    consume (``con_*``/``obj_*``/``oagents_*``, ``capacity``,
    ``con_partner``, ``obj_of_agent``, ``smoothing_adjacency``,
    ``sibling_sums``); ``agent_slices()`` recovers the per-instance output
    ranges.
    """

    __slots__ = (
        "parts",
        "agent_offsets",
        "agents",
        "capacity",
        "con_indptr",
        "con_indices",
        "con_coeff",
        "con_partner",
        "con_partner_coeff",
        "obj_of_agent",
        "oagents_indptr",
        "oagents_indices",
        "_adj",
    )

    def __init__(self, parts: Sequence["CompiledInstance"]) -> None:
        if not parts:
            raise ValueError("CompiledBatch requires at least one compiled instance")
        self.parts: Tuple["CompiledInstance", ...] = tuple(parts)
        agent_counts = np.asarray([p.num_agents for p in self.parts], dtype=np.int64)
        self.agent_offsets = np.zeros(len(self.parts) + 1, dtype=np.int64)
        np.cumsum(agent_counts, out=self.agent_offsets[1:])
        con_offsets = np.zeros(len(self.parts), dtype=np.int64)
        obj_offsets = np.zeros(len(self.parts), dtype=np.int64)
        con_counts = np.asarray([p.num_constraints for p in self.parts[:-1]], dtype=np.int64)
        obj_counts = np.asarray([p.num_objectives for p in self.parts[:-1]], dtype=np.int64)
        np.cumsum(con_counts, out=con_offsets[1:])
        np.cumsum(obj_counts, out=obj_offsets[1:])

        agents: List[object] = []
        for p in self.parts:
            agents.extend(p.agents)
        self.agents = tuple(agents)

        offs = self.agent_offsets[:-1]
        self.capacity = np.concatenate([p.capacity for p in self.parts])
        self.con_indptr = _cat_indptr([p.con_indptr for p in self.parts])
        self.con_indices = _cat_shifted([p.con_indices for p in self.parts], con_offsets)
        self.con_coeff = np.concatenate([p.con_coeff for p in self.parts])
        # Special-form arrays: building them validates each part's form.
        self.con_partner = _cat_shifted([p.con_partner for p in self.parts], offs)
        self.con_partner_coeff = np.concatenate(
            [p.con_partner_coeff for p in self.parts]
        )
        self.obj_of_agent = _cat_shifted([p.obj_of_agent for p in self.parts], obj_offsets)
        self.oagents_indptr = _cat_indptr([p.oagents_indptr for p in self.parts])
        self.oagents_indices = _cat_shifted([p.oagents_indices for p in self.parts], offs)
        adj_parts = [p.smoothing_adjacency for p in self.parts]
        self._adj = (
            _cat_indptr([a[0] for a in adj_parts]),
            _cat_shifted([a[1] for a in adj_parts], offs),
        )

    # ------------------------------------------------------------------
    @property
    def num_agents(self) -> int:
        return int(self.agent_offsets[-1])

    @property
    def num_objectives(self) -> int:
        return sum(p.num_objectives for p in self.parts)

    @property
    def num_constraints(self) -> int:
        return sum(p.num_constraints for p in self.parts)

    @property
    def smoothing_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._adj

    def sibling_sums(self, values: np.ndarray) -> np.ndarray:
        """``Σ_{w ∈ N(v)} values[w]`` per agent — same formula as the per-instance view."""
        per_objective = np.bincount(
            self.obj_of_agent, weights=values, minlength=self.num_objectives
        )
        return per_objective[self.obj_of_agent] - values

    def agent_slices(self) -> List[slice]:
        """Per-instance slices into any ``num_agents``-long kernel output."""
        return [
            slice(int(self.agent_offsets[b]), int(self.agent_offsets[b + 1]))
            for b in range(len(self.parts))
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledBatch(instances={len(self.parts)}, |V|={self.num_agents}, "
            f"|I|={self.num_constraints}, |K|={self.num_objectives})"
        )


def stack_compiled(parts: Sequence["CompiledInstance"]) -> CompiledBatch:
    """Stack compiled special-form instances into one :class:`CompiledBatch`."""
    return CompiledBatch(parts)
