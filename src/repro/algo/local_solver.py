"""The local algorithm for special-form instances (paper §5.3).

Given a special-form instance (``|V_i| = 2``, ``|V_k| ≥ 2``, ``|K_v| = 1``,
``|I_v| ≥ 1``, ``c_kv = 1``) and the shifting parameter ``R ≥ 2``
(``r = R − 2``), the algorithm computes

1. the per-agent upper bounds ``t_u`` (optimum of the alternating tree
   ``A_u``, §5.1–§5.2),
2. the smoothed bounds ``s_v = min { t_u : dist(u, v) ≤ 4r + 2 }``,
3. the ``g±`` recursion (Eqs. 12–14)::

       g⁺_{v,0} = min_{i∈I_v} 1 / a_iv
       g⁻_{v,d} = max(0, s_v − Σ_{w∈N(v)} g⁺_{w,d})            d = 0 … r
       g⁺_{v,d} = min_{i∈I_v} (1 − a_{i,n(v,i)} g⁻_{n(v,i),d−1}) / a_iv   d = 1 … r

4. the output (Eq. 18)::

       x_v = (1 / 2R) Σ_{d=0}^{r} ( g⁺_{v,d} + g⁻_{v,d} )

The output is feasible (Lemma 11) and within a factor
``2 (1 − 1/ΔK) (1 + 1/(R−1))`` of the optimum (Lemma 12 + §6.3).

Everything here runs centrally over the compiled CSR kernels of
:mod:`repro.algo.kernels`: it computes the same quantities a distributed
execution would, directly on the instance.  The message-passing realisation
lives in :mod:`repro.distributed.agents` and is tested to produce
bit-identical outputs; the per-node transcription of the paper's formulas is
:func:`repro.oracle.special_form_solve`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Iterator, List

import numpy as np

from .. import obs
from .._types import NodeId
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..core.validation import require_special_form
from ..exceptions import InvalidInstanceError
from .kernels import DEFAULT_BISECTION_TOL

__all__ = [
    "GRecursionValues",
    "IncrementalSolveState",
    "SpecialFormSolveResult",
    "SpecialFormLocalSolver",
    "special_form_ratio",
]


def special_form_ratio(delta_K: int, R: int) -> float:
    """The §6.3 guarantee ``2 (1 − 1/ΔK)(1 + 1/(R − 1))`` for the special form."""
    if R < 2:
        raise ValueError(f"R must be at least 2, got {R}")
    if delta_K < 2:
        delta_K = 2
    return 2.0 * (1.0 - 1.0 / delta_K) * (1.0 + 1.0 / (R - 1.0))


class _AgentValues(Mapping):
    """A read-only ``{agent: value}`` view over a canonical-order vector."""

    __slots__ = ("_agents", "_index", "_values")

    def __init__(self, instance: MaxMinInstance, values: np.ndarray) -> None:
        self._agents = instance.agents
        self._index = instance.compiled().agent_index
        self._values = values

    def __getitem__(self, v: NodeId) -> float:
        return float(self._values[self._index[v]])

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._agents)

    def __len__(self) -> int:
        return len(self._agents)


class GRecursionValues:
    """The ``g±`` tables of one run: ``(r + 1, n)`` arrays, one row per depth
    ``d = 0 … r`` in the instance's canonical agent order."""

    __slots__ = ("g_plus", "g_minus", "r", "_index")

    def __init__(self, instance: MaxMinInstance, g_plus: np.ndarray, g_minus: np.ndarray) -> None:
        if g_plus.shape != g_minus.shape:
            raise InvalidInstanceError("g_plus and g_minus must have the same depth")
        self.g_plus = g_plus
        self.g_minus = g_minus
        self.r = len(g_plus) - 1
        self._index = instance.compiled().agent_index

    def plus(self, v: NodeId, d: int) -> float:
        return float(self.g_plus[d, self._index[v]])

    def minus(self, v: NodeId, d: int) -> float:
        return float(self.g_minus[d, self._index[v]])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GRecursionValues(r={self.r}, agents={self.g_plus.shape[1]})"


class SpecialFormSolveResult:
    """Everything produced by one run of the §5 algorithm on a special-form instance.

    Attributes
    ----------
    solution:
        The output vector ``x`` of Eq. 18 (feasible by Lemma 11).
    t, s:
        The kernel arrays of ``t_u`` and ``s_v``, in canonical agent order.
    upper_bounds, smoothed_bounds:
        Read-only ``{agent: value}`` views over ``t`` and ``s``.
    g:
        The ``g±`` recursion tables (used by the §6 analysis machinery and
        by the structural tests of Lemmata 5–7).
    R, r:
        The shifting parameter and ``r = R − 2``.
    guaranteed_ratio:
        ``2 (1 − 1/ΔK)(1 + 1/(R−1))`` for this instance's ``ΔK``.

    The result keeps the arrays it is given and never changes them, so a
    result shared between threads (the serve workers) needs no lock.
    """

    __slots__ = ("solution", "t", "s", "g", "R", "r", "guaranteed_ratio")

    def __init__(
        self,
        t: np.ndarray,
        s: np.ndarray,
        g_plus: np.ndarray,
        g_minus: np.ndarray,
        solution: Solution,
        R: int,
        guaranteed_ratio: float,
    ) -> None:
        self.solution = solution
        self.t = t
        self.s = s
        self.g = GRecursionValues(solution.instance, g_plus, g_minus)
        self.R = R
        self.r = R - 2
        self.guaranteed_ratio = guaranteed_ratio

    @property
    def upper_bounds(self) -> Mapping[NodeId, float]:
        """``t_u`` per agent."""
        return _AgentValues(self.solution.instance, self.t)

    @property
    def smoothed_bounds(self) -> Mapping[NodeId, float]:
        """``s_v`` per agent."""
        return _AgentValues(self.solution.instance, self.s)

    def utility(self) -> float:
        return self.solution.utility()

    def minimum_smoothed_bound(self) -> float:
        """``min_v s_v`` — the quantity Lemma 12 relates the output to."""
        return float(self.s.min()) if len(self.s) else math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpecialFormSolveResult(R={self.R}, utility={self.utility():.6g}, "
            f"guaranteed_ratio={self.guaranteed_ratio:.4f})"
        )


class SpecialFormLocalSolver:
    """The §5 local algorithm over the compiled CSR kernels.

    Parameters
    ----------
    R:
        Shifting parameter (≥ 2).  Larger R improves the approximation ratio
        — ``2 (1 − 1/ΔK)(1 + 1/(R−1))`` — at the cost of a local horizon that
        grows linearly in R.
    tu_tol:
        Final bracket width of the ``t_u`` search (a bracketed search over
        the ``f±`` recursion, see
        :func:`repro.algo.kernels.batched_upper_bounds`): each ``t_u`` is
        feasible for the recursion and within ``tu_tol`` of the largest
        feasible ``ω``.

    The per-node oracle :func:`repro.oracle.special_form_solve`, which
    bisects to the same tolerance, computes the same result to within it
    (pinned at 1e-9 by ``tests/test_kernels.py``).
    """

    def __init__(
        self,
        R: int = 3,
        *,
        tu_tol: float = DEFAULT_BISECTION_TOL,
    ) -> None:
        if R < 2:
            raise ValueError(f"shifting parameter R must be at least 2, got {R}")
        self.R = R
        self.r = R - 2
        self.tu_tol = tu_tol

    # ------------------------------------------------------------------
    def _run_kernels(self, comp, batch: int = 1):
        """The §5 sequence — trees, smoothing, ``g±``, Eq. 18 — over ``comp``.

        ``comp`` is a :class:`~repro.core.compiled.CompiledInstance` or a
        :class:`~repro.core.compiled.CompiledBatch` of ``batch`` instances;
        returns the ``(t, s, g_plus, g_minus, x)`` kernel arrays.  The kernels are looked
        up at call time, so wrappers installed on :mod:`repro.algo.kernels`
        see every solve.
        """
        from .kernels import (
            batched_upper_bounds,
            g_recursion_kernel,
            output_kernel,
            smooth_bounds_kernel,
        )

        r = self.r
        with obs.span("solve.special_form", agents=comp.num_agents, batch=batch):
            with obs.span("kernels.upper_bounds"):
                t = batched_upper_bounds(comp, r, tol=self.tu_tol)
            with obs.span("kernels.smooth"):
                s = smooth_bounds_kernel(comp, t, r)
            with obs.span("kernels.g_recursion"):
                g_plus, g_minus = g_recursion_kernel(comp, s, r)
            with obs.span("kernels.output"):
                x = output_kernel(g_plus, g_minus, self.R)
        return t, s, g_plus, g_minus, x

    def _package(
        self,
        instance: MaxMinInstance,
        t,
        s,
        g_plus,
        g_minus,
        x,
    ) -> SpecialFormSolveResult:
        """Wrap kernel output arrays (canonical agent order) into a result."""
        solution = Solution.from_agent_array(instance, x, label=f"local-R{self.R}")
        return SpecialFormSolveResult(
            t,
            s,
            g_plus,
            g_minus,
            solution,
            self.R,
            special_form_ratio(instance.delta_K, self.R),
        )

    def solve(self, instance: MaxMinInstance) -> SpecialFormSolveResult:
        """Run the full §5 algorithm on a special-form instance."""
        return self.solve_batch([instance])[0]

    def solve_batch(self, instances) -> List[SpecialFormSolveResult]:
        """Solve many special-form instances in **one** kernel dispatch.

        The instances' compiled CSR blocks are concatenated into a
        :class:`~repro.core.compiled.CompiledBatch` (offset-shifted indices)
        and the whole §5 pipeline — tree construction, the ``t_u`` search,
        smoothing, the ``g±`` recursion and Eq. 18 — runs once over the
        stack, amortising kernel launches over the batch.  Every kernel
        reduces over per-agent (and, in the ``t_u`` search, per-tree)
        segments that never cross block boundaries, so each instance's
        outputs are bitwise identical to a solo solve.  A batch of
        one runs on the instance's own compiled view.
        """
        instances = list(instances)
        for instance in instances:
            require_special_form(instance)
        if len(instances) > 1:
            from ..core.compiled import stack_compiled

            stacked = stack_compiled([instance.compiled() for instance in instances])
            t, s, g_plus, g_minus, x = self._run_kernels(stacked, batch=len(instances))
            return [
                self._package(instance, t[sl], s[sl], g_plus[:, sl], g_minus[:, sl], x[sl])
                for instance, sl in zip(instances, stacked.agent_slices())
            ]
        return [
            self._package(instance, *self._run_kernels(instance.compiled()))
            for instance in instances
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpecialFormLocalSolver(R={self.R})"


def _renumbered(values: np.ndarray, removed: List[int], n_new: int) -> np.ndarray:
    """``values`` (agents on the last axis) without the ``removed`` columns,
    survivors in order, padded to ``n_new`` columns (the pad is left
    unset) — one slice copy per run of survivors."""
    out = np.empty(values.shape[:-1] + (n_new,), dtype=values.dtype)
    src = dst = 0
    for cut in removed + [values.shape[-1]]:
        width = cut - src
        out[..., dst : dst + width] = values[..., src:cut]
        src, dst = cut + 1, dst + width
    return out


class IncrementalSolveState:
    """Retained kernel arrays of one instance, re-solvable per delta.

    Holds the full §5 pipeline outputs (``t``, ``s``, ``g±``, ``x``) and,
    given a
    :class:`~repro.core.delta.DeltaResult`, re-runs each stage only on
    the dirty r-ball and splices the results back in:

    * ``t`` on ``ball(seeds, 2r+1)`` hops — an edit can only reach trees
      whose 2r+1-hop agent ball contains a changed agent;
    * ``s`` on ``ball(seeds, 4r+2)`` — smoothing mins ``t`` over 2r+1 more
      hops (propagation runs on the larger work ball so every confined min
      equals the global one);
    * ``g±`` and ``x`` on ``ball(seeds, 6r+3)`` — the ``g`` recursion reads
      ``s`` through ``2r`` further hops, so no change escapes this ball and
      reads one hop outside it see retained values a full re-solve would
      reproduce bit for bit.

    One smoothing-adjacency hop is two communication-graph edges, so the
    output ball is graph radius ``12r + 6`` — exactly
    :func:`~repro.distributed.dynamics.local_horizon_radius`, the paper's
    §1.3 locality bound that :func:`measure_change_impact` checks
    empirically.  The spliced state is bitwise identical to a from-scratch
    solve of the edited instance (pinned by
    ``tests/test_incremental.py``); per-tick cost is O(changed · r-ball)
    instead of O(n).
    """

    __slots__ = ("solver", "instance", "comp", "t", "s", "g_plus", "g_minus", "x", "last_recompute")

    def __init__(self, solver: SpecialFormLocalSolver, instance: MaxMinInstance) -> None:
        require_special_form(instance)
        self.solver = solver
        self.instance = instance
        self.comp = instance.compiled()
        self.t, self.s, self.g_plus, self.g_minus, self.x = solver._run_kernels(self.comp)
        self.last_recompute = None

    # ------------------------------------------------------------------
    @property
    def num_agents(self) -> int:
        return self.comp.num_agents

    def result(self) -> SpecialFormSolveResult:
        """Package the current state (copies — the state keeps mutating)."""
        return self.solver._package(
            self.instance,
            self.t.copy(),
            self.s.copy(),
            self.g_plus.copy(),
            self.g_minus.copy(),
            self.x.copy(),
        )

    def apply_delta(self, delta) -> np.ndarray:
        """Confined re-solve after a delta; returns the recomputed positions.

        ``delta`` is the :class:`~repro.core.delta.DeltaResult` of an
        edit batch against ``self.instance``.  The retained arrays are
        remapped to the new canonical order (dropped / added positions) and
        every pipeline stage re-runs only on its dirty ball.
        """
        from .kernels import (
            agent_hop_balls,
            batched_upper_bounds,
            g_recursion_confined,
            smooth_bounds_confined,
        )

        if delta.identity:
            if delta.instance is not self.instance:
                raise InvalidInstanceError("delta was built against a different instance")
            self.last_recompute = np.zeros(0, dtype=np.int64)
            return self.last_recompute
        if len(delta.old_to_new_agent) != self.comp.num_agents:
            raise InvalidInstanceError("delta does not match this state's instance")
        new_inst = delta.instance
        new_comp = delta.compiled
        require_special_form(new_inst)
        solver = self.solver
        r = solver.r
        n_new = new_comp.num_agents
        o2n = delta.old_to_new_agent

        with obs.span("solve.incremental", agents=n_new, dirty=len(delta.dirty_agents)):
            if delta.structural:
                # Survivors keep their order: cut the removed columns out
                # and leave room for the added ones, which are inside the
                # dirty balls and get rewritten by every stage below.
                removed = np.flatnonzero(o2n < 0).tolist()
                if removed or n_new != len(o2n):
                    for attr in ("t", "s", "x", "g_plus", "g_minus"):
                        setattr(self, attr, _renumbered(getattr(self, attr), removed, n_new))
            self.instance = new_inst
            self.comp = new_comp

            seeds = delta.dirty_agents
            t_ball, s_ball, out_ball = agent_hop_balls(
                new_comp, seeds, [2 * r + 1, 4 * r + 2, 6 * r + 3]
            )
            with obs.span("kernels.upper_bounds", trees=len(t_ball)):
                self.t[t_ball] = batched_upper_bounds(
                    new_comp, r, tol=solver.tu_tol, targets=t_ball
                )
            with obs.span("kernels.smooth"):
                scratch = smooth_bounds_confined(new_comp, self.t, r, out_ball)
                self.s[s_ball] = scratch[s_ball]
            with obs.span("kernels.g_recursion"):
                g_recursion_confined(new_comp, self.s, r, self.g_plus, self.g_minus, out_ball)
            with obs.span("kernels.output"):
                self.x[out_ball] = (
                    self.g_plus[:, out_ball].sum(axis=0) + self.g_minus[:, out_ball].sum(axis=0)
                ) / (2.0 * solver.R)

        obs.count("solver.incremental_resolves")
        obs.count("solver.incremental_recomputed", len(out_ball))
        obs.count("solver.incremental_reused", n_new - len(out_ball))
        self.last_recompute = out_ball
        return out_ball

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalSolveState(R={self.solver.R}, agents={self.num_agents}, "
            f"instance={self.instance.name!r})"
        )
