"""The *safe algorithm* baseline (prior work [8, 16], paper §1.3).

The safe algorithm is the best previously known local algorithm for general
max-min LPs: each agent takes a "safe share" of each of its constraints,

.. math:: x_v = \\min_{i \\in I_v} \\frac{1}{\\lambda_i \\, a_{iv}},

where the divisor ``λ_i`` is either the actual constraint degree ``|V_i|``
(variant ``"degree"``) or the global bound ``ΔI`` (variant ``"delta"``).
Either choice is trivially feasible — every constraint receives at most
``Σ_v a_iv · 1/(|V_i| a_iv) = 1`` — and is a factor-``ΔI`` approximation:
any feasible solution satisfies ``x*_v ≤ min_i 1/a_iv ≤ ΔI · x_v``, so every
objective of the optimum is at most ``ΔI`` times the corresponding objective
of the safe solution.

The algorithm is "local" in the strongest possible sense: one communication
round suffices (each agent only needs the degrees and coefficients of its
own constraints).  The paper's contribution is beating this ``ΔI`` factor
down to ``ΔI (1 − 1/ΔK) + ε``; experiment E4 measures the gap.

The safe share is evaluated as one segmented min over the compiled CSR
arrays (:class:`~repro.core.compiled.CompiledInstance`).  The per-node loop
:func:`repro.oracle.safe_solution` computes ``1/(λ_i a_iv)`` edge by edge
and takes the same min, so the two agree exactly (not merely to tolerance).
"""

from __future__ import annotations

import numpy as np

from ..core.instance import MaxMinInstance
from ..core.preprocess import preprocess
from ..core.solution import Solution
from ..exceptions import InvalidInstanceError
from .certificates import Certificate

__all__ = ["SafeAlgorithm", "safe_solution"]


def safe_solution(
    instance: MaxMinInstance,
    variant: str = "degree",
    delta_I: int = 0,
) -> Solution:
    """Compute the safe-algorithm solution of a non-degenerate instance.

    Parameters
    ----------
    instance:
        The instance; agents without constraints make the safe value
        unbounded and must be removed by preprocessing first.
    variant:
        ``"degree"`` uses the per-constraint degree ``|V_i|``;
        ``"delta"`` divides by the global ``ΔI`` everywhere (slightly more
        conservative, exactly the form used in the prior-work analysis).
    delta_I:
        Override for ``ΔI`` in the ``"delta"`` variant (default: the
        instance's own maximum constraint degree).  Passing it with any
        other variant raises :class:`ValueError` — it would otherwise be
        silently ignored.
    """
    divisor_global = _check_variant(instance, variant, delta_I)
    comp = instance.compiled()
    if variant == "degree":
        divisors = comp.constraint_degrees[comp.con_indices].astype(np.float64)
    else:
        divisors = float(divisor_global)
    x = comp.agent_constraint_min(1.0 / (divisors * comp.con_coeff))
    unconstrained = np.isinf(x)
    if unconstrained.any():
        v = comp.agents[int(np.argmax(unconstrained))]
        raise InvalidInstanceError(
            f"agent {v!r} has no constraints; preprocess the instance before the safe algorithm"
        )
    return Solution.from_agent_array(instance, x, label=f"safe-{variant}")


def _check_variant(instance: MaxMinInstance, variant: str, delta_I: int) -> int:
    """Validate the variant arguments; returns the ``"delta"`` divisor (or 0)."""
    if variant not in ("degree", "delta"):
        raise ValueError(f"unknown safe-algorithm variant {variant!r}")
    if delta_I and variant != "delta":
        raise ValueError(
            f"delta_I={delta_I} is only meaningful with variant='delta' "
            f"(got variant={variant!r}); it would be silently ignored"
        )
    if variant == "delta":
        return delta_I if delta_I > 0 else max(instance.delta_I, 1)
    return 0


class SafeAlgorithm:
    """Object-style wrapper around :func:`safe_solution` with certificates."""

    def __init__(self, variant: str = "degree") -> None:
        if variant not in ("degree", "delta"):
            raise ValueError(f"unknown safe-algorithm variant {variant!r}")
        self.variant = variant

    @property
    def name(self) -> str:
        return f"safe-{self.variant}"

    def guaranteed_ratio(self, instance: MaxMinInstance) -> float:
        """The prior-work guarantee: factor ``ΔI``."""
        return float(max(instance.delta_I, 1))

    def solve(self, instance: MaxMinInstance) -> Solution:
        """Solve an arbitrary instance (degenerate parts handled by preprocessing)."""
        pre = preprocess(instance)
        if pre.optimum_is_zero or pre.instance.num_agents == 0:
            return pre.zero_solution(label=self.name)
        inner = safe_solution(pre.instance, variant=self.variant)
        if pre.changed:
            return pre.lift(inner, label=self.name)
        return Solution.from_agent_array(instance, inner.value_array(), label=self.name)

    def solve_with_certificate(self, instance: MaxMinInstance) -> "tuple[Solution, Certificate]":
        solution = self.solve(instance)
        certificate = Certificate(
            algorithm=self.name,
            guaranteed_ratio=self.guaranteed_ratio(instance),
            delta_I=instance.delta_I,
            delta_K=instance.delta_K,
            parameters={"variant": self.variant},
        )
        return solution, certificate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SafeAlgorithm(variant={self.variant!r})"
