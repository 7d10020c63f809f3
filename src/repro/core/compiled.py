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

Edits go through :meth:`CompiledInstance.delta`, whose
:class:`~repro.core.delta.CompiledDelta` lives in :mod:`repro.core.delta`,
loaded on first use.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidInstanceError, NotSpecialFormError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (instance imports us lazily)
    from .delta import CompiledDelta
    from .instance import MaxMinInstance

__all__ = ["CompiledInstance", "CompiledBatch", "stack_compiled"]


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


def _degree_violation(
    num_constraints: int,
    num_objectives: int,
    con_deg: np.ndarray,
    obj_deg: np.ndarray,
    cagent_deg: np.ndarray,
    oagent_deg: np.ndarray,
) -> Optional[str]:
    """Why these degrees rule out the special-form view, or None when they allow it."""
    if num_constraints and not np.all(cagent_deg == 2):
        return "has constraints of degree != 2; the compiled special-form view requires |V_i| = 2"
    if len(con_deg) and not (np.all(obj_deg == 1) and np.all(con_deg >= 1)):
        return (
            "violates |K_v| = 1 / |I_v| >= 1; "
            "run the transformation pipeline before compiling the special-form view"
        )
    if num_objectives and not np.all(oagent_deg >= 2):
        return "has objectives of degree < 2"
    return None


class _SpecialFormView:
    """Special-form-only arrays derived from the generic CSR layer.

    With ``like`` only the partner coefficients are gathered anew; the
    partner, objective and smoothing-adjacency arrays are shared with it.
    ``like`` is the view of a compiled instance with the same edges, or the
    view topology a structural delta spliced for these edges
    (:mod:`repro.core.delta`; every slot but ``con_partner_coeff``).
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
        problem = _degree_violation(
            compiled.num_constraints, compiled.num_objectives,
            np.diff(compiled.con_indptr), np.diff(compiled.obj_indptr),
            np.diff(compiled.cagents_indptr), np.diff(compiled.oagents_indptr),
        )
        if problem is not None:
            name = getattr(compiled.instance, "name", None)
            raise NotSpecialFormError(f"instance {name!r} {problem}")
        self._partner_edge = _partner_edges(compiled._cagents_edge)
        self.con_partner = compiled.cagents_indices[self._partner_edge]
        self.con_partner_coeff = compiled.cagents_coeff[self._partner_edge]
        # Unique objective per agent (|K_v| = 1 verified above).
        self.obj_of_agent = compiled.obj_indices[compiled.obj_indptr[:-1]]
        counts, self.adj_indices = _adjacency_rows(
            np.arange(compiled.num_agents, dtype=np.int64), compiled.con_indptr,
            self.con_partner, self.obj_of_agent,
            compiled.oagents_indptr, compiled.oagents_indices,
        )
        self.adj_indptr = np.zeros(compiled.num_agents + 1, dtype=np.int64)
        np.cumsum(counts, out=self.adj_indptr[1:])


def _partner_edges(cagents_edge: np.ndarray) -> np.ndarray:
    """The reverse edge of the partner behind each agent–constraint edge.

    Every constraint row holds exactly {owner, partner} (|V_i| = 2, checked
    first), so the reverse edges pair up as ``(2i, 2i + 1)`` and a forward
    edge's partner sits at its own reverse edge XOR 1.
    """
    partner_edge = np.empty(len(cagents_edge), dtype=np.int64)
    partner_edge[cagents_edge] = np.arange(len(cagents_edge), dtype=np.int64) ^ 1
    return partner_edge


def _adjacency_rows(
    rows: np.ndarray,
    con_indptr: np.ndarray,
    con_partner: np.ndarray,
    obj_of_agent: np.ndarray,
    oagents_indptr: np.ndarray,
    oagents_indices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Smoothing-adjacency rows of the agents ``rows``: ``(counts, neighbours)``.

    Constraint partners plus objective siblings are exactly the agents at
    communication-graph distance 2 (agents sit at even distances in the
    bipartite graph), so one hop here equals two graph edges.  Each row
    lists the agent's partners in ``con_partner`` order, then its
    objective's members minus itself in canonical order.
    """
    con_lo = con_indptr[rows]
    con_deg = con_indptr[rows + 1] - con_lo
    objs = obj_of_agent[rows]
    obj_lo = oagents_indptr[objs]
    obj_deg = oagents_indptr[objs + 1] - obj_lo
    members = oagents_indices[_segment_gather(obj_lo, obj_deg)]
    siblings = members[members != np.repeat(rows, obj_deg)]
    counts = con_deg + obj_deg - 1
    starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    out = np.empty(int(counts.sum()), dtype=np.int64)
    out[_segment_gather(starts, con_deg)] = con_partner[_segment_gather(con_lo, con_deg)]
    out[_segment_gather(starts + con_deg, obj_deg - 1)] = siblings
    return counts, out


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
#: what a coefficient-only edit shares with its base and a structural delta
#: splices from it (see ``topology``).
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
        ``instance``'s node tuples (see :func:`_checked_rows`).  The index
        maps come from :func:`_index` and the reverse families from
        :func:`_transpose_csr` — unless ``topology`` hands them over: every
        :data:`_TOPOLOGY` slot and the special-form view's topology
        (``topology._special``, or None) are then taken from it, and only the
        coefficient arrays, capacities and partner coefficients are derived
        anew.  ``topology`` is either

        * a compiled view of the same nodes whose ``indptr`` / ``indices``
          arrays are the very ones in ``con`` / ``obj`` (a coefficient-only
          edit): those rows were checked when it was built, so only the new
          coefficients are checked; or
        * the topology a structural delta spliced for these rows
          (:mod:`repro.core.delta`): the rows are checked in full.
        """
        self._instance = weakref.ref(instance)
        self.agents = instance.agents
        self.constraints = instance.constraints
        self.objectives = instance.objectives
        same_rows = isinstance(topology, CompiledInstance)
        self.con_indptr, self.con_indices, self.con_coeff = _checked_rows(
            "constraint", "a", *con, self.constraints, self.agents, not same_rows
        )
        self.obj_indptr, self.obj_indices, self.obj_coeff = _checked_rows(
            "objective", "c", *obj, self.objectives, self.agents, not same_rows
        )
        like = None
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
            like = topology._special
        self.cagents_coeff = self.con_coeff[self._cagents_edge]
        self.oagents_coeff = self.obj_coeff[self._oagents_edge]
        if same_rows:
            self.capacity = self._edited_capacity(topology)
        else:
            self.capacity = self.agent_constraint_min(1.0 / self.con_coeff)
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
        """Start a :class:`~repro.core.delta.CompiledDelta` edit batch against this view.

        Raises :class:`InvalidInstanceError` when the view's instance is gone
        (see :attr:`instance`): keep a reference to the instance while you
        edit it.
        """
        if self.instance is None:
            raise InvalidInstanceError(
                "cannot edit a compiled view whose instance is gone: the view holds "
                "its instance weakly, so keep a reference to the instance while you edit it"
            )
        from .delta import CompiledDelta

        return CompiledDelta(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledInstance({getattr(self.instance, 'name', None)!r}, |V|={self.num_agents}, "
            f"|I|={self.num_constraints}, |K|={self.num_objectives}, "
            f"nnz={len(self.con_indices) + len(self.obj_indices)})"
        )


def _row_members(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated members of the given CSR rows (work in their length only)."""
    if len(rows) == 0:
        return np.zeros(0, dtype=np.int64)
    lo = indptr[rows]
    return indices[_segment_gather(lo, indptr[rows + 1] - lo)]


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
    def constraints(self) -> Tuple:
        """Every part's constraints in stacked order (what ``con_indices`` index)."""
        return tuple(c for p in self.parts for c in p.constraints)

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
