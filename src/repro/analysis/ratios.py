"""Approximation-ratio measurement helpers.

Every experiment of ``benchmarks/bench_e*.py`` ultimately reports the same
quantity — how far a solution's utility is from the exact optimum — so the
logic lives here once: compute the optimum, evaluate one or more
algorithms, and return flat records that the reporting module renders as
tables.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .. import obs
from ..algo.general_solver import LocalMaxMinSolver
from ..algo.safe_algorithm import SafeAlgorithm
from ..core.instance import MaxMinInstance
from ..core.lp import solve_maxmin_lp
from ..core.solution import Solution

__all__ = [
    "measured_ratio",
    "evaluate_solution",
    "evaluate_local_algorithm",
    "local_solve_record",
    "evaluate_safe_algorithm",
    "evaluate_lp_optimum",
    "compare_algorithms",
]


def measured_ratio(optimum: float, utility: float) -> float:
    """``optimum / utility`` with the degenerate cases pinned down.

    Both zero → 1 (the algorithm is trivially optimal); zero utility against
    a positive optimum → ``inf``.
    """
    if optimum <= 0.0:
        return 1.0
    if utility <= 0.0:
        return math.inf
    return optimum / utility


def evaluate_solution(
    instance: MaxMinInstance,
    solution: Solution,
    *,
    algorithm: str,
    guaranteed_ratio: Optional[float] = None,
    optimum: Optional[float] = None,
) -> Dict[str, object]:
    """One flat record: feasibility, utility, measured ratio, guarantee.

    Evaluation runs over the compiled arrays: one CSR constraint-load pass
    for the feasibility verdict and one objective pass for the utility,
    both over the solution's cached dense value vector — each edge of the
    instance is touched exactly once per record.
    """
    if optimum is None:
        optimum = solve_maxmin_lp(instance).optimum
    with obs.span("record.evaluate", algorithm=algorithm):
        utility = solution.utility()
        ratio = measured_ratio(optimum, utility)
        record: Dict[str, object] = {
            "instance": instance.name,
            "algorithm": algorithm,
            "num_agents": instance.num_agents,
            "delta_I": instance.delta_I,
            "delta_K": instance.delta_K,
            "feasible": solution.check_feasibility().feasible,
            "optimum": optimum,
            "utility": utility,
            "measured_ratio": ratio,
        }
    if guaranteed_ratio is not None:
        record["guaranteed_ratio"] = guaranteed_ratio
        record["within_guarantee"] = ratio <= guaranteed_ratio * (1.0 + 1e-7)
    return record


def evaluate_local_algorithm(
    instance: MaxMinInstance,
    *,
    R: int,
    tu_method: str = "recursion",
    optimum: Optional[float] = None,
) -> Dict[str, object]:
    """Run the local algorithm once and return its ``local-R{R}`` record.

    Shared by :func:`compare_algorithms` and the batch engine
    (:mod:`repro.engine.registry`) so their records cannot drift apart.
    """
    result = LocalMaxMinSolver(R=R, tu_method=tu_method).solve(instance)
    return local_solve_record(instance, result, R=R, optimum=optimum)


def local_solve_record(
    instance: MaxMinInstance,
    result,
    *,
    R: int,
    optimum: Optional[float] = None,
) -> Dict[str, object]:
    """The ``local-R{R}`` record of an already-computed ``GeneralSolveResult``.

    Split out of :func:`evaluate_local_algorithm` so the engine's batched
    multi-instance dispatch (which solves many instances in one kernel pass
    and only then builds records) produces byte-identical rows.
    """
    return evaluate_solution(
        instance,
        result.solution,
        algorithm=f"local-R{R}",
        guaranteed_ratio=result.certificate.guaranteed_ratio,
        optimum=optimum,
    )


def evaluate_safe_algorithm(
    instance: MaxMinInstance,
    *,
    optimum: Optional[float] = None,
) -> Dict[str, object]:
    """Run the safe baseline once and return its record."""
    safe = SafeAlgorithm()
    solution, certificate = safe.solve_with_certificate(instance)
    return evaluate_solution(
        instance,
        solution,
        algorithm=safe.name,
        guaranteed_ratio=certificate.guaranteed_ratio,
        optimum=optimum,
    )


def evaluate_lp_optimum(instance: MaxMinInstance, *, lp=None) -> Dict[str, object]:
    """The exact-LP reference record (``measured_ratio`` 1 by construction)."""
    if lp is None:
        lp = solve_maxmin_lp(instance)
    return evaluate_solution(
        instance,
        lp.solution,
        algorithm="lp-optimum",
        guaranteed_ratio=1.0,
        optimum=lp.optimum,
    )


def compare_algorithms(
    instance: MaxMinInstance,
    *,
    R_values: Sequence[int] = (2, 3, 4),
    include_safe: bool = True,
    include_optimum_row: bool = False,
    tu_method: str = "recursion",
) -> List[Dict[str, object]]:
    """Run the local algorithm (for each R) and the safe baseline on one instance."""
    lp = solve_maxmin_lp(instance)
    records: List[Dict[str, object]] = []

    for R in R_values:
        records.append(
            evaluate_local_algorithm(instance, R=R, tu_method=tu_method, optimum=lp.optimum)
        )

    if include_safe:
        records.append(evaluate_safe_algorithm(instance, optimum=lp.optimum))

    if include_optimum_row:
        records.append(evaluate_lp_optimum(instance, lp=lp))
    return records
