"""Distributed realisation of the §5 local algorithm.

The protocol runs in ``12r + 7`` synchronous rounds (``r = R − 2``) and uses
only port numbering:

* **View phase** (rounds ``1 … 4r+2``): every node floods its anonymous view
  tree.  At the start of round ``4r+3`` each agent holds its
  radius-``(4r+2)`` view — exactly deep enough to evaluate the ``f±``
  recursion of its alternating tree ``A_u`` — and computes ``t_u``.
* **Smoothing phase** (rounds ``4r+3 … 8r+4``): the values ``t_u`` are
  min-flooded for ``4r+2`` rounds, so that at the start of round ``8r+5``
  each agent knows ``s_v = min {t_u : dist(u, v) ≤ 4r+2}`` exactly.
* **g-recursion phase** (rounds ``8r+5 … 12r+7``): the tables ``g±_{v,d}``
  of Eqs. 12–14 are computed with two-round exchanges — objectives return
  sibling sums, constraints forward the partner's contribution — and each
  agent finally outputs Eq. 18.

:class:`VectorizedMaxMinProtocol` runs every node's part of a round as one
array operation on the message plane;
:class:`~repro.distributed.resilient.ResilientLocalSolver` runs it on the
synchronous runtime.  Agents, constraints and objectives
all know the global parameter ``R`` (it is part of the algorithm, not of the
input) but nothing else beyond their local input; the per-node transcription
in :mod:`repro.oracle.distributed` is the reference the tests pin the
protocol to, and the centralized solver is the reference for its outputs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..algo.kernels import DEFAULT_BISECTION_TOL
from ..exceptions import SimulationError
from .plane import MessagePlane, VectorizedProtocol

__all__ = [
    "PhaseSchedule",
    "VectorizedMaxMinProtocol",
]


class PhaseSchedule:
    """Round arithmetic shared by every node of the protocol."""

    __slots__ = ("R", "r", "view_rounds", "smooth_rounds", "view_end", "smooth_end", "g_start", "total_rounds")

    def __init__(self, R: int) -> None:
        if R < 2:
            raise ValueError(f"R must be at least 2, got {R}")
        self.R = R
        self.r = R - 2
        self.view_rounds = 4 * self.r + 2
        self.smooth_rounds = 4 * self.r + 2
        self.view_end = self.view_rounds                      # last round of view flooding
        self.smooth_end = self.view_end + self.smooth_rounds  # last round of min flooding
        self.g_start = self.smooth_end + 1                    # first round of the g phase
        self.total_rounds = self.g_start + 4 * self.r + 2     # = 12r + 7

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseSchedule(R={self.R}, total_rounds={self.total_rounds})"


class VectorizedMaxMinProtocol(VectorizedProtocol):
    """The §5 protocol as whole-plane array operations per round.

    The round structure, message pattern and arithmetic follow the per-node
    classes of :mod:`repro.oracle.distributed` exactly — the equivalence
    tests pin outputs and per-round message counts against them.  The one deliberate
    difference is the view phase: its payloads are structural (whole
    anonymous view trees), which a float-valued plane cannot carry, so the
    flood is marked on the plane for accounting while the quantity each
    agent would read off its assembled view — the alternating-tree optimum
    ``t_u`` — is evaluated at the phase boundary by the batched search
    kernel (:func:`repro.algo.kernels.batched_upper_bounds`), which finds
    the ``t_u`` each agent's local binary search finds in the oracle, to
    within the same tolerance.
    """

    def __init__(self, schedule: PhaseSchedule, tu_tol: float = DEFAULT_BISECTION_TOL) -> None:
        self.schedule = schedule
        self.tu_tol = tu_tol

    # -- lifecycle -----------------------------------------------------
    def begin(self, plane: MessagePlane) -> None:
        comp = plane.comp
        n, m, K = comp.num_agents, comp.num_constraints, comp.num_objectives
        r = self.schedule.r
        self._plane = plane
        # Slot/entry owners for broadcast scatters.
        self._agent_slot_owner = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(plane.agent_indptr)
        )
        self._con_entry_owner = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(comp.con_indptr)
        )
        self._con_slot_owner = np.repeat(
            np.arange(m, dtype=np.int64), comp.constraint_degrees
        )
        self._obj_slot_owner = np.repeat(
            np.arange(K, dtype=np.int64), comp.objective_degrees
        )
        self.t_u: Optional[np.ndarray] = None
        self.s_v: Optional[np.ndarray] = None
        self._agent_min = np.full(n, math.inf)
        self._con_min = np.full(m, math.inf)
        self._obj_min = np.full(K, math.inf)
        self.g_plus: List[Optional[np.ndarray]] = [None] * (r + 1)
        self.g_minus: List[Optional[np.ndarray]] = [None] * (r + 1)

    # -- helpers -------------------------------------------------------
    def _expect(self, inbox_mask: np.ndarray, slots: np.ndarray, what: str, rn: int) -> None:
        ok = inbox_mask[slots]
        if not ok.all():
            plane = self._plane
            missing = np.asarray(slots)[~ok]
            links = "; ".join(
                plane.describe_slot(int(plane.reverse[s])) for s in missing[:5]
            )
            raise SimulationError(
                f"round {rn}: expected {what} but {len(missing)} message(s) "
                f"never arrived (missing: {links})"
            )

    def _smooth_update(
        self, inbox_mask: np.ndarray, inbox_values: np.ndarray, plane: MessagePlane
    ) -> None:
        """Fold the delivered ``smooth`` broadcasts into every node's min."""
        comp = plane.comp
        # Agents: constraint relays arrive on the con slots, the unique
        # objective relay on the obj slot (|K_v| = 1 in special form).
        con_in = np.where(
            inbox_mask[plane.agent_con_slots], inbox_values[plane.agent_con_slots], math.inf
        )
        obj_in = np.where(
            inbox_mask[plane.agent_obj_slots], inbox_values[plane.agent_obj_slots], math.inf
        )
        np.minimum(self._agent_min, comp.agent_constraint_min(con_in), out=self._agent_min)
        np.minimum(self._agent_min, obj_in, out=self._agent_min)
        # Constraint and objective relays: min over their member agents.
        lo, hi = plane.con_slot_range()
        if hi > lo:
            con_block = np.where(inbox_mask[lo:hi], inbox_values[lo:hi], math.inf)
            np.minimum(
                self._con_min,
                np.minimum.reduceat(con_block, comp.cagents_indptr[:-1]),
                out=self._con_min,
            )
        lo, hi = plane.obj_slot_range()
        if hi > lo:
            obj_block = np.where(inbox_mask[lo:hi], inbox_values[lo:hi], math.inf)
            np.minimum(
                self._obj_min,
                np.minimum.reduceat(obj_block, comp.oagents_indptr[:-1]),
                out=self._obj_min,
            )

    def _broadcast_smooth(self, plane: MessagePlane) -> Tuple[np.ndarray, np.ndarray]:
        """Agents always re-broadcast; relays broadcast once their min is finite."""
        mask, values = plane.empty_round()
        n_agent_slots = plane.con_base
        mask[:n_agent_slots] = True
        values[:n_agent_slots] = self._agent_min[self._agent_slot_owner]
        lo, hi = plane.con_slot_range()
        finite = np.isfinite(self._con_min)
        mask[lo:hi] = finite[self._con_slot_owner]
        values[lo:hi] = np.where(mask[lo:hi], self._con_min[self._con_slot_owner], 0.0)
        lo, hi = plane.obj_slot_range()
        finite = np.isfinite(self._obj_min)
        mask[lo:hi] = finite[self._obj_slot_owner]
        values[lo:hi] = np.where(mask[lo:hi], self._obj_min[self._obj_slot_owner], 0.0)
        return mask, values

    # -- protocol ------------------------------------------------------
    def compose(
        self,
        round_number: int,
        inbox_mask: np.ndarray,
        inbox_values: np.ndarray,
        plane: MessagePlane,
    ) -> Tuple[np.ndarray, np.ndarray]:
        sched = self.schedule
        comp = plane.comp

        # Phase 1: view flooding — every node sends on every port.
        if round_number <= sched.view_end:
            return np.ones(plane.num_slots, dtype=bool), np.zeros(plane.num_slots)

        # Round view_end + 1: t_u from the assembled views, start smoothing.
        if round_number == sched.view_end + 1:
            from ..algo.kernels import batched_upper_bounds

            self.t_u = batched_upper_bounds(comp, sched.r, tol=self.tu_tol)
            self._agent_min = self.t_u.copy()
            return self._broadcast_smooth(plane)

        # Phase 2: min flooding of the t_u values.
        if round_number <= sched.smooth_end:
            self._smooth_update(inbox_mask, inbox_values, plane)
            return self._broadcast_smooth(plane)

        # Phase 3: the g recursion.  Offsets are relative to g_start.
        offset = round_number - sched.g_start
        mask, values = plane.empty_round()

        if offset == 0:
            # Final smoothing update (messages from round smooth_end), then
            # kick off the recursion with g⁺_{v,0} = capacity.
            self._smooth_update(inbox_mask, inbox_values, plane)
            self.s_v = self._agent_min.copy()
            self.g_plus[0] = comp.capacity
            mask[plane.agent_obj_slots] = True
            values[plane.agent_obj_slots] = self.g_plus[0]
            return mask, values

        if offset < 0 or offset > 4 * sched.r + 2:
            return mask, values

        if offset % 4 == 1:
            # Objectives return sibling sums for the g values they received.
            lo, hi = plane.obj_slot_range()
            self._expect(inbox_mask, np.arange(lo, hi), "g values on all objective ports", round_number)
            g_in = inbox_values[lo:hi]
            totals = np.add.reduceat(g_in, comp.oagents_indptr[:-1])
            mask[lo:hi] = True
            values[lo:hi] = totals[self._obj_slot_owner] - g_in
            return mask, values

        if offset % 4 == 2:
            # Sibling sums arrive from the objective: compute g⁻ at depth d.
            d = offset // 4
            self._expect(inbox_mask, plane.agent_obj_slots, "a sibling sum", round_number)
            sibling_sum = inbox_values[plane.agent_obj_slots]
            assert self.s_v is not None
            self.g_minus[d] = np.maximum(0.0, self.s_v - sibling_sum)
            if d < sched.r:
                # Ship a_iv · g⁻_{v,d} towards every constraint for the next g⁺.
                mask[plane.agent_con_slots] = True
                values[plane.agent_con_slots] = (
                    comp.con_coeff * self.g_minus[d][self._con_entry_owner]
                )
            return mask, values

        if offset % 4 == 3:
            # Constraints cross-forward the two member contributions.
            lo, hi = plane.con_slot_range()
            self._expect(inbox_mask, np.arange(lo, hi), "partner values on both ports", round_number)
            mask[lo:hi] = True
            values[lo:hi] = inbox_values[lo:hi].reshape(-1, 2)[:, ::-1].ravel()
            return mask, values

        # offset % 4 == 0, offset > 0: partner contributions arrive from the
        # constraints — compute g⁺ at depth d and hand it to the objective.
        d = offset // 4
        self._expect(inbox_mask, plane.agent_con_slots, "a partner value", round_number)
        forwarded = inbox_values[plane.agent_con_slots]
        self.g_plus[d] = comp.agent_constraint_min((1.0 - forwarded) / comp.con_coeff)
        mask[plane.agent_obj_slots] = True
        values[plane.agent_obj_slots] = self.g_plus[d]
        return mask, values

    def outputs(self, plane: MessagePlane) -> np.ndarray:
        if any(g is None for g in self.g_plus) or any(g is None for g in self.g_minus):
            return np.full(plane.num_agents, np.nan)
        factor = 1.0 / (2.0 * self.schedule.R)
        total = np.zeros(plane.num_agents)
        for d in range(self.schedule.r + 1):
            total += self.g_plus[d] + self.g_minus[d]  # type: ignore[operator]
        return factor * total

