"""Ablation variants of the §5 algorithm.

The algorithm has three ingredients whose necessity is not obvious from the
pseudocode alone:

1. **Smoothing** (§5.3): agents use ``s_v = min {t_u : dist(u,v) ≤ 4r+2}``
   rather than their own bound ``t_v``.  The feasibility proof (Lemma 9,
   case ``d ≤ R−2``) needs the bound an agent aims for to be dominated by
   the bound of *every* nearby agent's tree.
2. **Up/down averaging** (§6.2, Eq. 18): each agent averages the solution it
   would output as an up-agent (the ``g⁻`` sums) and as a down-agent (the
   ``g⁺`` sums), because it cannot know its role.  Either one-sided vector
   alone corresponds to pretending a globally consistent layering is known.
3. **Both recursion directions**: the ``g⁺`` values alone are "as large as
   the constraints below allow", the ``g⁻`` values alone are "as small as
   the objectives require".

This module implements the corresponding degraded variants so that the
ablation benchmark (experiment A1, ``benchmarks/bench_a1_ablations.py``) can
show *measurably* what breaks:

* ``no_smoothing`` — skip step 1 (use ``t_v`` directly): the output can
  violate packing constraints once ``r ≥ 1`` (observed violations of ~5–10 %
  on heterogeneous instances).
* ``down_only`` — output ``(1/R) Σ_d g⁺_{v,d}`` for everyone: typically
  infeasible (two "down" endpoints of a constraint both grab the available
  capacity).
* ``up_only`` — output ``(1/R) Σ_d g⁻_{v,d}`` for everyone: always feasible
  (it is dominated by the full output) but its utility can collapse to ~0,
  losing the approximation guarantee entirely.
* ``full`` — the unmodified algorithm, for reference.

None of these variants is part of the paper's algorithm; they exist to make
the design choices falsifiable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .._types import NodeId
from ..core.instance import MaxMinInstance
from ..core.lp import solve_maxmin_lp
from ..core.solution import Solution
from ..core.validation import require_special_form
from .kernels import batched_upper_bounds
from .upper_bound import smooth_upper_bounds

__all__ = ["ABLATION_VARIANTS", "solve_ablation", "ablation_report"]

#: The recognised variant names.
ABLATION_VARIANTS = ("full", "no_smoothing", "down_only", "up_only")


def solve_ablation(
    instance: MaxMinInstance,
    R: int,
    variant: str,
) -> Solution:
    """Run one ablation variant on a special-form instance.

    ``variant`` must be one of :data:`ABLATION_VARIANTS`; ``"full"`` returns
    the §5 output, which the variants modify one ingredient at a time.  The
    bounds ``t_u`` come from the solver's own kernel
    (:func:`~repro.algo.kernels.batched_upper_bounds`), since no variant
    touches them; smoothing, the ``g±`` recursion and Eq. 18 are the per-node
    transcriptions of :mod:`repro.oracle`.
    """
    from ..oracle import g_recursion

    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}; expected one of {ABLATION_VARIANTS}")
    if R < 2:
        raise ValueError(f"shifting parameter R must be at least 2, got {R}")
    require_special_form(instance)
    r = R - 2

    t = batched_upper_bounds(instance.compiled(), r)
    upper_bounds = dict(zip(instance.agents, t.tolist()))
    if variant == "no_smoothing":
        bounds: Dict[NodeId, float] = dict(upper_bounds)
    else:
        bounds = smooth_upper_bounds(instance, upper_bounds, r)

    g = g_recursion(instance, bounds, r)

    if variant == "down_only":
        values = {
            v: sum(g.plus(v, d) for d in range(r + 1)) / R for v in instance.agents
        }
    elif variant == "up_only":
        values = {
            v: sum(g.minus(v, d) for d in range(r + 1)) / R for v in instance.agents
        }
    else:  # "full" and "no_smoothing" use the complete Eq. 18 output.
        values = {
            v: sum(g.plus(v, d) + g.minus(v, d) for d in range(r + 1)) / (2.0 * R)
            for v in instance.agents
        }
    return Solution(instance, values, label=f"ablation-{variant}-R{R}")


def ablation_report(
    instances: Dict[str, MaxMinInstance],
    R_values: Iterable[int] = (2, 3),
    variants: Iterable[str] = ABLATION_VARIANTS,
    feasibility_tol: float = 1e-9,
) -> List[Dict[str, object]]:
    """Evaluate every (instance, R, variant) combination into flat records.

    Each record carries feasibility, the largest constraint violation, the
    utility and the measured ratio against the exact optimum — the columns
    the ablation benchmark tabulates.
    """
    rows: List[Dict[str, object]] = []
    for label, instance in instances.items():
        optimum = solve_maxmin_lp(instance).optimum
        for R in R_values:
            for variant in variants:
                solution = solve_ablation(instance, R, variant)
                report = solution.check_feasibility(feasibility_tol)
                utility = solution.utility()
                rows.append(
                    {
                        "family": label,
                        "R": R,
                        "variant": variant,
                        "feasible": report.feasible,
                        "max_violation": report.max_violation,
                        "utility": utility,
                        "optimum": optimum,
                        "measured_ratio": (optimum / utility) if utility > 0 else float("inf"),
                    }
                )
    return rows
