"""Compiled (array-native) implementation of the §4 transformation pipeline.

The per-stage oracle (:func:`repro.oracle.to_special_form`) applies the
five §4 transformations as object-graph rewrites: each stage materialises a fresh
:class:`~repro.core.instance.MaxMinInstance`, scans coefficient dicts per
node (some of those scans are quadratic — §4.4 and §4.5 walk the whole
coefficient map once per touched constraint) and chains one Python
back-mapping closure per stage.  This module computes the *same* composed
transformation as index arithmetic on the instance's compiled CSR arrays
(:meth:`MaxMinInstance.compiled`):

* every stage rewrites ``(indptr, indices, coefficients)`` arrays with
  gathers, segment reductions and cumulative-sum relabelling — no
  intermediate instances exist, only the final special-form instance is
  built, through :meth:`MaxMinInstance.from_arrays` from the last stage's
  arrays (no coefficient dicts);
* the five back-mappings are folded into **one** array-encoded map: per
  original agent a segment of ``(gather index, scale)`` pairs, so mapping a
  solution back is a single gather + scaled segmented max.  (§4.3 and §4.6
  contribute the scales, §4.4 and §4.5 the multi-entry segments — a scaled
  max composes exactly because every scale is positive.)

Fidelity contract (pinned by ``tests/test_transforms_vectorized.py``): the
final instance is **digest-identical** to the reference pipeline's output —
same node identifiers in the same canonical order, bitwise-equal
coefficients — and back-mapped solutions agree within 1e-12.  The arithmetic
mirrors the reference implementation operation for operation (including the
sequential summation order of the §4.2 gadget constant ``M``); only the
scale *composition* order differs, which is what the 1e-12 (rather than
bitwise) solution tolerance accounts for.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional

import numpy as np

from .._types import NodeId
from ..core.compiled import _segment_gather, _transpose_csr
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..core.validation import require_nondegenerate, require_special_form
from ..exceptions import InvalidInstanceError, TransformError
from .base import BackMap, TransformResult

__all__ = ["CompiledTransformResult", "vectorized_to_special_form"]

_NAME_42 = "augment-singleton-constraints (§4.2)"
_NAME_43 = "reduce-constraint-degree (§4.3)"
_NAME_44 = "split-agents-by-objective (§4.4)"
_NAME_45 = "augment-singleton-objectives (§4.5)"
_NAME_46 = "normalise-coefficients (§4.6)"


class CompiledTransformResult(TransformResult):
    """A :class:`TransformResult` whose back-map is array-encoded.

    Attributes
    ----------
    bm_indptr, bm_idx, bm_scale:
        The composed back-map: original agent ``o`` (canonical position)
        takes the value ``max { bm_scale[e] · x[bm_idx[e]] }`` over its
        segment ``bm_indptr[o]:bm_indptr[o+1]``, where ``x`` is the
        transformed instance's value vector in canonical agent order.
        Segments are never empty and every scale is positive.
    """

    __slots__ = ("bm_indptr", "bm_idx", "bm_scale")

    def __init__(
        self,
        original: MaxMinInstance,
        transformed: MaxMinInstance,
        back_map: BackMap,
        bm_indptr: np.ndarray,
        bm_idx: np.ndarray,
        bm_scale: np.ndarray,
        ratio_factor: float = 1.0,
        name: str = "transform",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(
            original=original,
            transformed=transformed,
            back_map=back_map,
            ratio_factor=ratio_factor,
            name=name,
            metadata=metadata,
        )
        self.bm_indptr = bm_indptr
        self.bm_idx = bm_idx
        self.bm_scale = bm_scale

    def map_back_array(self, values: np.ndarray) -> np.ndarray:
        """Back-map a canonical-order value vector of the transformed instance.

        The array twin of :meth:`map_back` for callers that already hold a
        canonical-order vector; :meth:`map_back` runs it on the solution's
        vector.
        """
        if len(self.bm_idx) == 0:
            return np.zeros(0, dtype=np.float64)
        scaled = self.bm_scale * np.asarray(values, dtype=np.float64)[self.bm_idx]
        return np.maximum.reduceat(scaled, self.bm_indptr[:-1])


class _PipelineState:
    """Mutable array view of the instance as it moves through the stages.

    ``con_*`` / ``obj_*`` are per-constraint / per-objective CSR rows over
    agent *positions* (rows sorted ascending, i.e. canonical agent order —
    the same invariant :class:`MaxMinInstance` maintains); ``agents`` /
    ``constraints`` / ``objectives`` are the id lists defining those
    positions.  ``bm_*`` is the composed back-map built up stage by stage
    (see :class:`CompiledTransformResult`).
    """

    __slots__ = (
        "agents",
        "constraints",
        "objectives",
        "con_indptr",
        "con_agents",
        "con_coeff",
        "obj_indptr",
        "obj_agents",
        "obj_coeff",
        "bm_indptr",
        "bm_idx",
        "bm_scale",
        "name",
        "ratio_factor",
        "stage_names",
        "stage_factors",
        "stage_metadata",
        "label_suffixes",
        "changed",
    )

    def __init__(self, instance: MaxMinInstance) -> None:
        comp = instance.compiled()
        self.agents: List[NodeId] = list(instance.agents)
        self.constraints: List[NodeId] = list(instance.constraints)
        self.objectives: List[NodeId] = list(instance.objectives)
        self.con_indptr = comp.cagents_indptr
        self.con_agents = comp.cagents_indices
        self.con_coeff = comp.cagents_coeff
        self.obj_indptr = comp.oagents_indptr
        self.obj_agents = comp.oagents_indices
        self.obj_coeff = comp.oagents_coeff
        n = len(self.agents)
        self.bm_indptr = np.arange(n + 1, dtype=np.int64)
        self.bm_idx = np.arange(n, dtype=np.int64)
        self.bm_scale = np.ones(n, dtype=np.float64)
        self.name = instance.name
        self.ratio_factor = 1.0
        self.stage_names: List[str] = []
        self.stage_factors: List[float] = []
        self.stage_metadata: List[Dict[str, object]] = []
        self.label_suffixes: List[str] = []
        self.changed = False

    # ------------------------------------------------------------------
    def record_stage(
        self,
        name: str,
        factor: float,
        metadata: Dict[str, object],
        changed: bool,
        suffix: str,
    ) -> None:
        self.stage_names.append(name)
        self.stage_factors.append(factor)
        self.ratio_factor *= factor
        self.stage_metadata.append(metadata)
        if changed:
            self.changed = True
            self.name = f"{self.name}#{suffix}"
            self.label_suffixes.append(suffix)

    def capacity(self) -> np.ndarray:
        """``min_{i ∈ I_v} 1/a_iv`` per agent position (``inf`` if unconstrained)."""
        cap = np.full(len(self.agents), np.inf, dtype=np.float64)
        if len(self.con_coeff):
            np.minimum.at(cap, self.con_agents, 1.0 / self.con_coeff)
        return cap

    def agent_objective_counts(self) -> np.ndarray:
        """``|K_v|`` per agent position."""
        n = len(self.agents)
        if not len(self.obj_agents):
            return np.zeros(n, dtype=np.int64)
        return np.bincount(self.obj_agents, minlength=n).astype(np.int64)

    def expand_back_map(self, cnt: np.ndarray, new_start: np.ndarray) -> None:
        """Compose an in-place agent split into the back-map.

        The current agent at position ``p`` is replaced by ``cnt[p]`` copies
        occupying new positions ``new_start[p] … new_start[p] + cnt[p] − 1``;
        the back-mapped value of a split agent is the max over its copies
        (§4.4 / §4.5), so every back-map entry fans out over the copies of
        its target with an unchanged scale.
        """
        reps = cnt[self.bm_idx]
        new_idx = _segment_gather(new_start[self.bm_idx], reps)
        new_scale = np.repeat(self.bm_scale, reps)
        if len(self.bm_indptr) > 1:
            per_orig = np.add.reduceat(reps, self.bm_indptr[:-1])
        else:
            per_orig = np.zeros(0, dtype=np.int64)
        self.bm_indptr = np.zeros(len(per_orig) + 1, dtype=np.int64)
        np.cumsum(per_orig, out=self.bm_indptr[1:])
        self.bm_idx = new_idx
        self.bm_scale = new_scale


# ----------------------------------------------------------------------
# §4.2 — augment singleton constraints
# ----------------------------------------------------------------------
def _stage_augment_singleton_constraints(st: _PipelineState) -> None:
    deg = np.diff(st.con_indptr)
    singles = np.flatnonzero(deg == 1)
    if len(singles) == 0:
        st.record_stage(_NAME_42, 1.0, {"augmented_constraints": 0}, False, "4.2")
        return

    n = len(st.agents)
    num_obj = len(st.objectives)
    cap = st.capacity()
    obj_deg = np.diff(st.obj_indptr)
    owner = np.repeat(np.arange(num_obj, dtype=np.int64), obj_deg)
    first_obj = np.full(n, num_obj, dtype=np.int64)
    np.minimum.at(first_obj, st.obj_agents, owner)

    num_singles = len(singles)
    s_pos = n + 3 * np.arange(num_singles, dtype=np.int64)
    t_pos = s_pos + 1
    u_pos = s_pos + 2

    # The gadget constant M per singleton, summed in the reference's exact
    # order (sequential over the objective row in canonical agent order).
    bigs = np.empty(num_singles, dtype=np.float64)
    new_agent_ids: List[NodeId] = []
    new_constraint_ids: List[NodeId] = []
    new_objective_ids: List[NodeId] = []
    for j, ci in enumerate(singles.tolist()):
        v = int(st.con_agents[st.con_indptr[ci]])
        k = int(first_obj[v])
        if k >= num_obj:  # pragma: no cover - excluded by non-degeneracy
            raise TransformError(
                f"agent {st.agents[v]!r} adjacent to singleton constraint "
                f"{st.constraints[ci]!r} has no objective"
            )
        big = 0.0
        for e in range(int(st.obj_indptr[k]), int(st.obj_indptr[k + 1])):
            big += st.obj_coeff[e] * cap[st.obj_agents[e]]
        big = 2.0 * big
        if big <= 0.0:
            big = 1.0
        bigs[j] = big
        i_id = st.constraints[ci]
        new_agent_ids.extend(
            (("aug42", i_id, "s"), ("aug42", i_id, "t"), ("aug42", i_id, "u"))
        )
        new_objective_ids.extend((("aug42", i_id, "h"), ("aug42", i_id, "l")))
        new_constraint_ids.append(("aug42", i_id, "j"))

    # Each singleton row gains agent s at its end (s sorts after every
    # existing agent); the new degree-2 constraints j = {t, u} are appended.
    insert_at = st.con_indptr[singles + 1]
    st.con_agents = np.insert(st.con_agents, insert_at, s_pos)
    st.con_coeff = np.insert(st.con_coeff, insert_at, 1.0)
    extra_agents = np.empty(2 * num_singles, dtype=np.int64)
    extra_agents[0::2] = t_pos
    extra_agents[1::2] = u_pos
    st.con_agents = np.concatenate([st.con_agents, extra_agents])
    st.con_coeff = np.concatenate([st.con_coeff, np.ones(2 * num_singles)])
    new_deg = deg.copy()
    new_deg[singles] += 1
    all_deg = np.concatenate([new_deg, np.full(num_singles, 2, dtype=np.int64)])
    st.con_indptr = np.zeros(len(all_deg) + 1, dtype=np.int64)
    np.cumsum(all_deg, out=st.con_indptr[1:])
    st.constraints.extend(new_constraint_ids)

    # New objectives h = {s: 1, t: M} and ell = {s: 1, u: M}.
    extra_obj_agents = np.empty(4 * num_singles, dtype=np.int64)
    extra_obj_agents[0::4] = s_pos
    extra_obj_agents[1::4] = t_pos
    extra_obj_agents[2::4] = s_pos
    extra_obj_agents[3::4] = u_pos
    extra_obj_coeff = np.empty(4 * num_singles, dtype=np.float64)
    extra_obj_coeff[0::4] = 1.0
    extra_obj_coeff[1::4] = bigs
    extra_obj_coeff[2::4] = 1.0
    extra_obj_coeff[3::4] = bigs
    st.obj_agents = np.concatenate([st.obj_agents, extra_obj_agents])
    st.obj_coeff = np.concatenate([st.obj_coeff, extra_obj_coeff])
    st.obj_indptr = np.concatenate(
        [
            st.obj_indptr,
            st.obj_indptr[-1] + 2 * np.arange(1, 2 * num_singles + 1, dtype=np.int64),
        ]
    )
    st.objectives.extend(new_objective_ids)
    st.agents.extend(new_agent_ids)

    # Back-map unchanged: the original agents keep their positions and the
    # gadget agents are simply forgotten.
    st.record_stage(
        _NAME_42,
        1.0,
        {"augmented_constraints": num_singles, "new_agents": 3 * num_singles},
        True,
        "4.2",
    )


# ----------------------------------------------------------------------
# §4.3 — reduce constraint degree
# ----------------------------------------------------------------------
def _stage_reduce_constraint_degree(st: _PipelineState) -> None:
    deg = np.diff(st.con_indptr)
    low = np.flatnonzero(deg < 2)
    if len(low):
        ci = int(low[0])
        raise TransformError(
            f"{_NAME_43} requires |V_i| >= 2 for every constraint; "
            f"constraint {st.constraints[ci]!r} has degree {int(deg[ci])} (run §4.2 first)"
        )

    delta_I = int(deg.max()) if len(deg) else 0
    wide_mask = deg > 2
    if not wide_mask.any():
        st.record_stage(
            _NAME_43, 1.0, {"split_constraints": 0, "delta_I": delta_I}, False, "4.3"
        )
        return

    n = len(st.agents)
    den = np.zeros(n, dtype=np.int64)
    np.maximum.at(den, st.con_agents, np.repeat(deg, deg))
    den[den == 0] = 2  # agents without constraints (reference default)

    out_counts = np.where(wide_mask, deg * (deg - 1) // 2, 1)
    out_offsets = np.zeros(len(deg) + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    total_rows = int(out_offsets[-1])
    pair_agents = np.empty((total_rows, 2), dtype=np.int64)
    pair_coeff = np.empty((total_rows, 2), dtype=np.float64)

    # Process constraints grouped by degree: every group lowers to one
    # rectangular gather + a triu-template pair expansion.
    # The sorted distinct degrees; ``np.unique`` would give the same, but its
    # first call in a process imports ``numpy.ma`` (12–17 ms of a cold solve).
    for d in np.flatnonzero(np.bincount(deg)).tolist():
        rows = np.flatnonzero(deg == d)
        window = st.con_indptr[rows][:, None] + np.arange(d)
        block_a = st.con_agents[window]
        block_c = st.con_coeff[window]
        if d == 2:
            dest = out_offsets[rows]
            pair_agents[dest] = block_a
            pair_coeff[dest] = block_c
        else:
            iu, jv = np.triu_indices(d, 1)  # == combinations(range(d), 2) order
            dest = (out_offsets[rows][:, None] + np.arange(len(iu))).ravel()
            pair_agents[dest, 0] = block_a[:, iu].ravel()
            pair_agents[dest, 1] = block_a[:, jv].ravel()
            pair_coeff[dest, 0] = block_c[:, iu].ravel()
            pair_coeff[dest, 1] = block_c[:, jv].ravel()

    # Constraint ids in the reference's in-place replacement order: degree-2
    # rows keep their id, wide rows expand to their pairwise ids inline.
    agents = st.agents
    new_ids: List[NodeId] = []
    indptr_list = st.con_indptr.tolist()
    for ci, d in enumerate(deg.tolist()):
        if d == 2:
            new_ids.append(st.constraints[ci])
        else:
            i_id = st.constraints[ci]
            lo = indptr_list[ci]
            row_ids = [agents[int(p)] for p in st.con_agents[lo : lo + d]]
            new_ids.extend(
                ("deg43", i_id, row_ids[x], row_ids[y])
                for x, y in combinations(range(d), 2)
            )

    st.constraints = new_ids
    st.con_agents = pair_agents.ravel()
    st.con_coeff = pair_coeff.ravel()
    st.con_indptr = 2 * np.arange(total_rows + 1, dtype=np.int64)

    # Back-map (paper Eq. 4): x_v = 2 x'_v / max_{i ∈ I_v} |V_i|.
    st.bm_scale = st.bm_scale * (2.0 / den)[st.bm_idx]
    st.record_stage(
        _NAME_43,
        max(delta_I, 2) / 2.0,
        {
            "split_constraints": int(wide_mask.sum()),
            "delta_I": delta_I,
            "num_constraints_after": total_rows,
        },
        True,
        "4.3",
    )


# ----------------------------------------------------------------------
# §4.4 / §4.5 shared machinery — in-place agent splits over degree-2 rows
# ----------------------------------------------------------------------
def _split_constraint_rows(
    st: _PipelineState,
    cnt: np.ndarray,
    new_start: np.ndarray,
    outer_first: np.ndarray,
) -> np.ndarray:
    """Expand the (all degree-2) constraint rows for an in-place agent split.

    ``cnt[p]`` copies replace agent ``p`` (1 = untouched); a row whose
    members have ``cnt`` counts ``r0 · r1`` expands to every combination, in
    row-major order with the member selected by ``outer_first`` as the outer
    loop (§4.4 nests by agent order, §4.5 by objective order — both
    monotone, so ``outer_first[row]`` says whether the *lower-position*
    member leads).  Rewrites ``con_indptr/con_agents/con_coeff`` in place and
    returns the per-old-row expansion counts (for the id construction).
    """
    m0 = st.con_agents[0::2]
    m1 = st.con_agents[1::2]
    c0 = st.con_coeff[0::2]
    c1 = st.con_coeff[1::2]
    r0 = cnt[m0]
    r1 = cnt[m1]
    out_per_row = r0 * r1
    out_indptr = np.zeros(len(out_per_row) + 1, dtype=np.int64)
    np.cumsum(out_per_row, out=out_indptr[1:])
    total_rows = int(out_indptr[-1])

    row_of_out = np.repeat(np.arange(len(out_per_row), dtype=np.int64), out_per_row)
    local = np.arange(total_rows, dtype=np.int64) - np.repeat(out_indptr[:-1], out_per_row)
    inner = np.where(outer_first, r1, r0)[row_of_out]
    first_choice = local // inner
    second_choice = local - first_choice * inner
    swap = ~outer_first[row_of_out]
    x0 = np.where(swap, second_choice, first_choice)
    x1 = np.where(swap, first_choice, second_choice)

    new_agents = np.empty(2 * total_rows, dtype=np.int64)
    new_agents[0::2] = new_start[m0[row_of_out]] + x0
    new_agents[1::2] = new_start[m1[row_of_out]] + x1
    new_coeff = np.empty(2 * total_rows, dtype=np.float64)
    new_coeff[0::2] = c0[row_of_out]
    new_coeff[1::2] = c1[row_of_out]

    st.con_agents = new_agents
    st.con_coeff = new_coeff
    st.con_indptr = 2 * np.arange(total_rows + 1, dtype=np.int64)
    return out_per_row


def _stage_split_agents_by_objective(st: _PipelineState) -> None:
    n = len(st.agents)
    num_obj = len(st.objectives)
    kv = st.agent_objective_counts()
    multi_mask = kv > 1
    if not multi_mask.any():
        st.record_stage(_NAME_44, 1.0, {"split_agents": 0}, False, "4.4")
        return

    num_edges = len(st.obj_agents)
    obj_deg = np.diff(st.obj_indptr)
    owner = np.repeat(np.arange(num_obj, dtype=np.int64), obj_deg)
    # Agent-major edge ordering; stability keeps objectives ascending within
    # each agent (edge order is objective-major to begin with).
    order = np.argsort(st.obj_agents, kind="stable")
    ao_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kv, out=ao_indptr[1:])
    ao_obj = owner[order]
    rank = np.empty(num_edges, dtype=np.int64)
    rank[order] = np.arange(num_edges, dtype=np.int64) - ao_indptr[st.obj_agents[order]]

    cnt = np.where(multi_mask, kv, 1).astype(np.int64)
    new_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt, out=new_start[1:])
    n_new = int(new_start[-1])

    # Agent list: each multi agent is replaced in place by one copy per
    # objective, in the agent's canonical objective order.
    objectives = st.objectives
    ao_obj_list = ao_obj.tolist()
    ao_indptr_list = ao_indptr.tolist()
    multi_list = multi_mask.tolist()
    new_agent_ids: List[NodeId] = []
    for p, a_id in enumerate(st.agents):
        if multi_list[p]:
            new_agent_ids.extend(
                ("copy44", a_id, objectives[k])
                for k in ao_obj_list[ao_indptr_list[p] : ao_indptr_list[p + 1]]
            )
        else:
            new_agent_ids.append(a_id)

    # Constraint ids: the reference processes multi agents in canonical
    # agent order, replacing each touched constraint in place — within one
    # (degree-2, hence two-member) row that nests the lower-position member
    # outermost.
    old_agents = st.agents
    m0 = st.con_agents[0::2]
    m1 = st.con_agents[1::2]
    new_con_ids: List[NodeId] = []
    m0_list = m0.tolist()
    m1_list = m1.tolist()
    for ci, i_id in enumerate(st.constraints):
        a0 = m0_list[ci]
        a1 = m1_list[ci]
        if not multi_list[a0] and not multi_list[a1]:
            new_con_ids.append(i_id)
            continue
        ks0 = (
            [objectives[k] for k in ao_obj_list[ao_indptr_list[a0] : ao_indptr_list[a0 + 1]]]
            if multi_list[a0]
            else [None]
        )
        ks1 = (
            [objectives[k] for k in ao_obj_list[ao_indptr_list[a1] : ao_indptr_list[a1 + 1]]]
            if multi_list[a1]
            else [None]
        )
        for k0 in ks0:
            base = ("copyc44", i_id, old_agents[a0], k0) if k0 is not None else i_id
            for k1 in ks1:
                new_con_ids.append(
                    ("copyc44", base, old_agents[a1], k1) if k1 is not None else base
                )

    _split_constraint_rows(
        st, cnt, new_start, outer_first=np.ones(len(m0), dtype=bool)
    )
    st.constraints = new_con_ids

    # Objective rows: each edge (k, v) now points at the copy of v made for
    # exactly that objective (its rank in the agent's objective list).
    st.obj_agents = new_start[st.obj_agents] + np.where(
        multi_mask[st.obj_agents], rank, 0
    )

    st.expand_back_map(cnt, new_start)
    st.agents = new_agent_ids
    st.record_stage(
        _NAME_44,
        1.0,
        {
            "split_agents": int(multi_mask.sum()),
            "num_agents_after": n_new,
            "num_constraints_after": len(new_con_ids),
        },
        True,
        "4.4",
    )


def _stage_augment_singleton_objectives(st: _PipelineState) -> None:
    n = len(st.agents)
    num_obj = len(st.objectives)
    kv = st.agent_objective_counts()
    bad = np.flatnonzero(kv != 1)
    if len(bad):
        p = int(bad[0])
        raise TransformError(
            f"{_NAME_45} requires |K_v| = 1 for every agent (run §4.4 first); "
            f"agent {st.agents[p]!r} has {int(kv[p])} objectives"
        )

    obj_deg = np.diff(st.obj_indptr)
    single_objs = np.flatnonzero(obj_deg == 1)
    if len(single_objs) == 0:
        st.record_stage(_NAME_45, 1.0, {"augmented_objectives": 0}, False, "4.5")
        return

    split_agent_of_obj = st.obj_agents[st.obj_indptr[single_objs]]
    split_mask = np.zeros(n, dtype=bool)
    split_mask[split_agent_of_obj] = True
    owner = np.repeat(np.arange(num_obj, dtype=np.int64), obj_deg)
    obj_of_agent = np.empty(n, dtype=np.int64)
    obj_of_agent[st.obj_agents] = owner

    cnt = np.where(split_mask, 2, 1).astype(np.int64)
    new_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt, out=new_start[1:])
    n_new = int(new_start[-1])

    split_list = split_mask.tolist()
    new_agent_ids: List[NodeId] = []
    for p, a_id in enumerate(st.agents):
        if split_list[p]:
            new_agent_ids.append(("copy45", a_id, 0))
            new_agent_ids.append(("copy45", a_id, 1))
        else:
            new_agent_ids.append(a_id)

    # Constraint ids: the reference processes singleton objectives in
    # canonical *objective* order, so within a row with two split members
    # the one whose objective comes first nests outermost.
    old_agents = st.agents
    m0 = st.con_agents[0::2]
    m1 = st.con_agents[1::2]
    outer_first = ~(
        split_mask[m0] & split_mask[m1] & (obj_of_agent[m1] < obj_of_agent[m0])
    )
    m0_list = m0.tolist()
    m1_list = m1.tolist()
    new_con_ids: List[NodeId] = []
    for ci, i_id in enumerate(st.constraints):
        a0 = m0_list[ci]
        a1 = m1_list[ci]
        s0 = split_list[a0]
        s1 = split_list[a1]
        if not s0 and not s1:
            new_con_ids.append(i_id)
        elif s0 != s1:
            v = a0 if s0 else a1
            new_con_ids.append(("copyc45", i_id, old_agents[v], 0))
            new_con_ids.append(("copyc45", i_id, old_agents[v], 1))
        else:
            first, second = (
                (a0, a1) if obj_of_agent[a0] < obj_of_agent[a1] else (a1, a0)
            )
            for sx in (0, 1):
                base = ("copyc45", i_id, old_agents[first], sx)
                for sy in (0, 1):
                    new_con_ids.append(("copyc45", base, old_agents[second], sy))

    _split_constraint_rows(st, cnt, new_start, outer_first=outer_first)
    st.constraints = new_con_ids

    # Objective rows: singleton rows become {t, u} with the coefficient
    # halved; every other row is a pure position remap.
    num_edges = len(st.obj_agents)
    new_obj_deg = obj_deg.copy()
    new_obj_deg[single_objs] = 2
    new_obj_indptr = np.zeros(num_obj + 1, dtype=np.int64)
    np.cumsum(new_obj_deg, out=new_obj_indptr[1:])
    new_obj_agents = np.empty(int(new_obj_indptr[-1]), dtype=np.int64)
    new_obj_coeff = np.empty(int(new_obj_indptr[-1]), dtype=np.float64)
    dest = (
        np.arange(num_edges, dtype=np.int64)
        - np.repeat(st.obj_indptr[:-1], obj_deg)
        + np.repeat(new_obj_indptr[:-1], obj_deg)
    )
    single_edge = np.zeros(num_edges, dtype=bool)
    single_edge[st.obj_indptr[single_objs]] = True
    keep = ~single_edge
    new_obj_agents[dest[keep]] = new_start[st.obj_agents[keep]]
    new_obj_coeff[dest[keep]] = st.obj_coeff[keep]
    sdest = new_obj_indptr[:-1][single_objs]
    half = st.obj_coeff[st.obj_indptr[single_objs]] / 2.0
    new_obj_agents[sdest] = new_start[split_agent_of_obj]
    new_obj_agents[sdest + 1] = new_start[split_agent_of_obj] + 1
    new_obj_coeff[sdest] = half
    new_obj_coeff[sdest + 1] = half
    st.obj_indptr = new_obj_indptr
    st.obj_agents = new_obj_agents
    st.obj_coeff = new_obj_coeff

    st.expand_back_map(cnt, new_start)
    st.agents = new_agent_ids
    st.record_stage(
        _NAME_45,
        1.0,
        {"augmented_objectives": len(single_objs), "num_agents_after": n_new},
        True,
        "4.5",
    )


# ----------------------------------------------------------------------
# §4.6 — normalise objective coefficients
# ----------------------------------------------------------------------
def _stage_normalise_coefficients(st: _PipelineState) -> None:
    n = len(st.agents)
    kv = st.agent_objective_counts()
    bad = np.flatnonzero(kv != 1)
    if len(bad):
        p = int(bad[0])
        raise TransformError(
            f"{_NAME_46} requires |K_v| = 1 for every agent (run §4.4 first); "
            f"agent {st.agents[p]!r} has {int(kv[p])} objectives"
        )

    scale = np.empty(n, dtype=np.float64)
    scale[st.obj_agents] = st.obj_coeff
    off = np.abs(scale - 1.0) > 1e-15
    if not off.any():
        st.record_stage(_NAME_46, 1.0, {"rescaled_agents": 0}, False, "4.6")
        return

    st.con_coeff = st.con_coeff / scale[st.con_agents]
    st.obj_coeff = st.obj_coeff / scale[st.obj_agents]
    st.bm_scale = st.bm_scale / scale[st.bm_idx]
    st.record_stage(
        _NAME_46, 1.0, {"rescaled_agents": int(off.sum())}, True, "4.6"
    )


# ----------------------------------------------------------------------
# Output instance
# ----------------------------------------------------------------------
def _special_form_instance(st: _PipelineState) -> MaxMinInstance:
    """Materialise the pipeline's output straight from the stage arrays.

    Each stage family (per-row agent positions) is transposed to per-agent
    rows and handed to :meth:`MaxMinInstance.from_arrays`, which checks them
    like every producer's (coefficients, duplicate edges, unique ids); the
    output is never lowered through coefficient dicts.  Only the agent
    positions are checked here, because the transpose needs them in range.
    """
    n = len(st.agents)
    rows = []
    for symbol, indptr, members, coeff, ids in (
        ("a", st.con_indptr, st.con_agents, st.con_coeff, st.constraints),
        ("c", st.obj_indptr, st.obj_agents, st.obj_coeff, st.objectives),
    ):
        out_of_range = (members < 0) | (members >= n)
        if out_of_range.any():
            e = int(np.flatnonzero(out_of_range)[0])
            row = int(np.searchsorted(indptr, e, side="right")) - 1
            raise InvalidInstanceError(
                f"coefficient {symbol}[{ids[row]!r}, ?] refers to unknown agent "
                f"position {int(members[e])}"
            )
        a_indptr, a_rows, edge = _transpose_csr(indptr, members, n)
        rows.extend((a_indptr, a_rows, coeff[edge]))
    return MaxMinInstance.from_arrays(
        st.agents, st.constraints, st.objectives, *rows, name=st.name
    )


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def vectorized_to_special_form(instance: MaxMinInstance) -> CompiledTransformResult:
    """Array-native twin of :func:`repro.transforms.pipeline.to_special_form`.

    Runs the five §4 stages as CSR index arithmetic and materialises only
    the final special-form instance — digest-identical to the reference
    pipeline's output (same ids, same order, bitwise-equal coefficients).
    The output is checked against the special form
    (:func:`~repro.core.validation.require_special_form`), and the returned
    result additionally carries the composed back-map as arrays (see
    :class:`CompiledTransformResult`).
    """
    require_nondegenerate(instance)
    st = _PipelineState(instance)
    _stage_augment_singleton_constraints(st)
    _stage_reduce_constraint_degree(st)
    _stage_split_agents_by_objective(st)
    _stage_augment_singleton_objectives(st)
    _stage_normalise_coefficients(st)

    transformed = _special_form_instance(st) if st.changed else instance
    require_special_form(transformed)

    suffix_chain = "".join(f"<-{s}" for s in reversed(st.label_suffixes))

    def back_map(solution: Solution) -> Solution:
        return Solution.from_agent_array(
            instance,
            result.map_back_array(solution.aligned_to(transformed)),
            label=f"{solution.label}{suffix_chain}",
        )

    metadata: Dict[str, object] = {
        "stages": list(st.stage_names),
        "stage_ratio_factors": list(st.stage_factors),
        "stage_metadata": list(st.stage_metadata),
    }
    result = CompiledTransformResult(
        original=instance,
        transformed=transformed,
        back_map=back_map,
        bm_indptr=st.bm_indptr,
        bm_idx=st.bm_idx,
        bm_scale=st.bm_scale,
        ratio_factor=st.ratio_factor,
        name="to-special-form (§4)",
        metadata=metadata,
    )
    return result
