"""End-to-end local solver for arbitrary max-min LPs (§4 + §5 + §6.3).

:class:`LocalMaxMinSolver` glues the pieces together:

1. degenerate-case preprocessing (paper §4, opening remarks),
2. the §4 transformation pipeline to the special form,
3. the §5 local algorithm (:class:`~repro.algo.local_solver.SpecialFormLocalSolver`),
4. back-mapping through the pipeline and lifting through the preprocessing,
5. a :class:`~repro.algo.certificates.Certificate` carrying the Theorem 1
   guarantee ``ΔI (1 − 1/ΔK)(1 + 1/(R − 1))`` computed from the *actual*
   degree bounds involved.

The trivial cases ``ΔI = 1`` (constraints touch a single agent each, solved
optimally by ``x_v = min_i 1/a_iv``) and "optimum is zero / unbounded" are
handled directly, mirroring the paper's remark that those cases are easy.
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..core.instance import MaxMinInstance
from ..core.preprocess import PreprocessResult, preprocess
from ..core.solution import Solution
from ..transforms.base import TransformResult
from ..transforms.pipeline import to_special_form
from .certificates import Certificate
from .kernels import DEFAULT_BISECTION_TOL
from .local_solver import SpecialFormLocalSolver, SpecialFormSolveResult, special_form_ratio

__all__ = ["GeneralSolveResult", "LocalMaxMinSolver", "theorem1_ratio"]


def theorem1_ratio(delta_I: int, delta_K: int, R: int) -> float:
    """The overall guarantee ``ΔI (1 − 1/ΔK)(1 + 1/(R − 1))`` of §6.3.

    For ``ΔI ≤ 1`` the problem is solved optimally (ratio 1); ``ΔK`` is
    clamped to 2 because the transformation pipeline never produces
    objectives of degree below 2.
    """
    if R < 2:
        raise ValueError(f"R must be at least 2, got {R}")
    if delta_I <= 1:
        return 1.0
    dk = max(delta_K, 2)
    return delta_I * (1.0 - 1.0 / dk) * (1.0 + 1.0 / (R - 1.0))


class GeneralSolveResult:
    """Result of :meth:`LocalMaxMinSolver.solve`.

    Attributes
    ----------
    solution:
        Feasible solution of the *original* instance.
    certificate:
        Guarantee certificate (ratio per Theorem 1, or 1.0 for the trivial
        cases solved exactly).
    preprocessing:
        The :class:`PreprocessResult` applied first (None if unchanged).
    transform:
        The composed §4 :class:`TransformResult` (None for instances already
        in special form or solved by a trivial path).
    special_form_result:
        The inner §5 result on the transformed instance (None on trivial
        paths).
    status:
        ``"local"`` (normal path), ``"trivial-delta-I-1"``, ``"zero"`` or
        ``"unbounded"``.
    """

    __slots__ = (
        "solution",
        "certificate",
        "preprocessing",
        "transform",
        "special_form_result",
        "status",
    )

    def __init__(
        self,
        solution: Solution,
        certificate: Certificate,
        preprocessing: Optional[PreprocessResult],
        transform: Optional[TransformResult],
        special_form_result: Optional[SpecialFormSolveResult],
        status: str,
    ) -> None:
        self.solution = solution
        self.certificate = certificate
        self.preprocessing = preprocessing
        self.transform = transform
        self.special_form_result = special_form_result
        self.status = status

    def utility(self) -> float:
        return self.solution.utility()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeneralSolveResult(status={self.status!r}, utility={self.utility():.6g}, "
            f"guaranteed_ratio={self.certificate.guaranteed_ratio:.4f})"
        )


class _PreparedSolve:
    """Per-instance state between preprocessing/transform and the §5 solve."""

    __slots__ = ("instance", "pre", "transform", "special_instance", "result")

    def __init__(
        self,
        instance: MaxMinInstance,
        pre: PreprocessResult,
        transform: Optional[TransformResult],
        special_instance: Optional[MaxMinInstance],
        result: Optional["GeneralSolveResult"],
    ) -> None:
        self.instance = instance
        self.pre = pre
        self.transform = transform
        self.special_instance = special_instance
        self.result = result


class LocalMaxMinSolver:
    """The paper's local approximation algorithm for arbitrary max-min LPs.

    Parameters
    ----------
    R:
        Shifting parameter (≥ 2).  The guarantee is
        ``ΔI (1 − 1/ΔK)(1 + 1/(R − 1))`` and the local horizon grows as
        ``Θ(R)``.
    tu_tol:
        Passed through to :class:`SpecialFormLocalSolver`.
    """

    def __init__(
        self,
        R: int = 3,
        *,
        tu_tol: float = DEFAULT_BISECTION_TOL,
    ) -> None:
        self.R = R
        self.inner = SpecialFormLocalSolver(R, tu_tol=tu_tol)

    @property
    def name(self) -> str:
        return f"local-R{self.R}"

    def guaranteed_ratio(self, instance: MaxMinInstance) -> float:
        """Theorem 1 guarantee for this instance's degree bounds."""
        return theorem1_ratio(instance.delta_I, instance.delta_K, self.R)

    # ------------------------------------------------------------------
    def _trivial_delta_I_1(self, instance: MaxMinInstance) -> Solution:
        """Optimal solution when every constraint touches at most one agent.

        Constraints then decouple: each agent independently takes its
        capacity ``min_{i∈I_v} 1/a_iv``, which dominates every feasible
        solution componentwise and is therefore optimal.
        """
        capacity = instance.compiled().capacity
        return Solution.from_agent_array(instance, capacity, label="local-trivial")

    # ------------------------------------------------------------------
    def _certificate(self, instance: MaxMinInstance, ratio: float, status: str) -> Certificate:
        return Certificate(
            algorithm=self.name,
            guaranteed_ratio=ratio,
            delta_I=instance.delta_I,
            delta_K=instance.delta_K,
            parameters={"R": self.R, "status": status},
        )

    def _prepare(self, instance: MaxMinInstance) -> _PreparedSolve:
        """Preprocess and transform one instance; short paths resolve here.

        ``result`` is filled for the trivial outcomes (zero / unbounded /
        ``ΔI ≤ 1``); otherwise ``special_instance`` awaits a §5 solve.
        """
        pre = preprocess(instance)  # spans itself (cache hits skip the span)

        # Degenerate outcomes first.
        if pre.optimum_is_zero:
            solution = pre.zero_solution(label=self.name)
            cert = self._certificate(instance, 1.0, "zero")
            cert.utility = solution.utility()
            result = GeneralSolveResult(solution, cert, pre, None, None, "zero")
            return _PreparedSolve(instance, pre, None, None, result)

        if pre.optimum_is_unbounded or pre.instance.num_agents == 0:
            solution = pre.lift(
                Solution(pre.instance, {}, label=self.name),
                target_utility=1.0,
                label=self.name,
            )
            cert = self._certificate(instance, 1.0, "unbounded")
            cert.utility = solution.utility()
            result = GeneralSolveResult(solution, cert, pre, None, None, "unbounded")
            return _PreparedSolve(instance, pre, None, None, result)

        clean = pre.instance

        # Trivial case ΔI ≤ 1: solvable optimally by a purely local rule.
        if clean.delta_I <= 1:
            inner_solution = self._trivial_delta_I_1(clean)
            solution = pre.lift(inner_solution, label=self.name) if pre.changed else (
                Solution.from_agent_array(instance, inner_solution.value_array(), label=self.name)
            )
            cert = self._certificate(instance, 1.0, "trivial-delta-I-1")
            cert.utility = solution.utility()
            result = GeneralSolveResult(solution, cert, pre, None, None, "trivial-delta-I-1")
            return _PreparedSolve(instance, pre, None, None, result)

        # Normal path: §4 transformations ahead of the §5 solve.
        if clean.is_special_form():
            transform = None
            special_instance = clean
        else:
            with obs.span("transform.to_special_form", agents=clean.num_agents):
                transform = to_special_form(clean)
            special_instance = transform.transformed
        return _PreparedSolve(instance, pre, transform, special_instance, None)

    def _finish(
        self, prep: _PreparedSolve, special_result: SpecialFormSolveResult
    ) -> GeneralSolveResult:
        """Back-map, lift and certify one §5 result."""
        with obs.span("solve.finish"):
            instance = prep.instance
            pre = prep.pre
            transform = prep.transform

            mapped = special_result.solution
            if transform is not None:
                mapped = transform.map_back(mapped, label=self.name)
            if pre.changed:
                final = pre.lift(mapped, label=self.name)
            else:
                final = Solution.from_agent_array(instance, mapped.value_array(), label=self.name)

            # Guarantee accounting: the special-form factor times the composed
            # transformation factor (only §4.3 contributes, exactly ΔI/2).
            transform_factor = transform.ratio_factor if transform is not None else 1.0
            ratio = transform_factor * special_form_ratio(
                prep.special_instance.delta_K, self.R
            )
            cert = self._certificate(instance, ratio, "local")
            cert.utility = final.utility()

        return GeneralSolveResult(final, cert, pre, transform, special_result, "local")

    def solve(self, instance: MaxMinInstance) -> GeneralSolveResult:
        """Run the full pipeline on an arbitrary max-min LP instance."""
        with obs.span("solve.general", R=self.R, agents=instance.num_agents):
            prep = self._prepare(instance)
            if prep.result is not None:
                return prep.result
            special_result = self.inner.solve(prep.special_instance)
            return self._finish(prep, special_result)

    def solve_many(self, instances) -> list:
        """Solve several instances with one batched §5 kernel dispatch.

        Every instance is preprocessed and transformed individually (trivial
        outcomes — zero, unbounded, ``ΔI ≤ 1`` — resolve without touching the
        kernels); the surviving special-form instances are then solved in a
        single :meth:`SpecialFormLocalSolver.solve_batch` call, so a whole
        sweep pays the kernel-launch overhead once.  Results are identical
        to calling :meth:`solve` per instance (bitwise) and are returned in
        input order.
        """
        with obs.span("solve.general_batch", R=self.R) as sp:
            preps = [self._prepare(instance) for instance in instances]
            pending = [prep for prep in preps if prep.result is None]
            sp.set(instances=len(preps), solved=len(pending))
            inner_results = self.inner.solve_batch(
                [prep.special_instance for prep in pending]
            )
            for prep, special_result in zip(pending, inner_results):
                prep.result = self._finish(prep, special_result)
            return [prep.result for prep in preps]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalMaxMinSolver(R={self.R})"
