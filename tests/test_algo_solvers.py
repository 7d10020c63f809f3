"""Tests for the §5 local solver, the general pipeline solver and the safe baseline.

These are the executable versions of Lemmata 5–7, 11, 12 and of the
Theorem 1 / §6.3 guarantee.
"""

from __future__ import annotations

import math

import pytest

from repro.algo.certificates import Certificate, verify_certificate
from repro.algo.general_solver import GeneralSolveResult, LocalMaxMinSolver, theorem1_ratio
from repro.algo.local_solver import SpecialFormLocalSolver, special_form_ratio
from repro.algo.safe_algorithm import SafeAlgorithm, safe_solution
from repro.core.builder import InstanceBuilder
from repro.core.instance import MaxMinInstance
from repro.core.lp import solve_maxmin_lp
from repro.core.solution import Solution
from repro.exceptions import InvalidInstanceError, NotSpecialFormError
from repro.generators import cycle_instance, objective_ring_instance

from conftest import (
    assert_feasible,
    assert_within_guarantee,
    general_family,
    special_form_family,
)


class TestRatioFormulas:
    def test_special_form_ratio(self):
        assert special_form_ratio(2, 2) == pytest.approx(2.0)
        assert special_form_ratio(2, 3) == pytest.approx(1.5)
        assert special_form_ratio(3, 3) == pytest.approx(2.0)
        assert special_form_ratio(1, 3) == pytest.approx(1.5)  # clamped to 2

    def test_theorem1_ratio(self):
        assert theorem1_ratio(2, 2, 3) == pytest.approx(1.5)
        assert theorem1_ratio(3, 3, 4) == pytest.approx(3 * (2 / 3) * (4 / 3))
        assert theorem1_ratio(1, 5, 3) == 1.0
        # As R grows the guarantee approaches ΔI (1 − 1/ΔK).
        limit = 3 * (1 - 1 / 4)
        assert theorem1_ratio(3, 4, 50) == pytest.approx(limit, rel=0.03)

    def test_invalid_R(self):
        with pytest.raises(ValueError):
            special_form_ratio(3, 1)
        with pytest.raises(ValueError):
            theorem1_ratio(2, 2, 1)
        with pytest.raises(ValueError):
            SpecialFormLocalSolver(R=1)


class TestSpecialFormSolver:
    @pytest.mark.parametrize("R", [2, 3, 4])
    def test_feasible_and_within_guarantee(self, R):
        """Lemma 11 (feasibility) + §6.3 (approximation) on the whole family."""
        solver = SpecialFormLocalSolver(R=R)
        for instance in special_form_family():
            result = solver.solve(instance)
            assert_feasible(result.solution)
            assert_within_guarantee(instance, result.solution, result.guaranteed_ratio)

    def test_rejects_general_instances(self, general_instance):
        with pytest.raises(NotSpecialFormError):
            SpecialFormLocalSolver(R=3).solve(general_instance)

    def test_g_monotonicity_lemma6(self):
        """Lemma 6: g⁻ non-decreasing and g⁺ non-increasing in d."""
        solver = SpecialFormLocalSolver(R=4)
        for instance in special_form_family()[:4]:
            result = solver.solve(instance)
            g = result.g
            for v in instance.agents:
                for d in range(1, g.r + 1):
                    assert g.minus(v, d) >= g.minus(v, d - 1) - 1e-9
                    assert g.plus(v, d) <= g.plus(v, d - 1) + 1e-9

    def test_g_nonnegative_lemma7(self):
        """Lemma 7: g⁺ ≥ 0 at every depth (and g⁻ ≥ 0 by definition)."""
        solver = SpecialFormLocalSolver(R=4)
        for instance in special_form_family()[:4]:
            result = solver.solve(instance)
            g = result.g
            for v in instance.agents:
                for d in range(g.r + 1):
                    assert g.plus(v, d) >= -1e-9
                    assert g.minus(v, d) >= 0.0

    def test_g_bounds_lemma5(self):
        """Lemma 5: g⁺_{v,r} ≥ 0 and g⁻_{v,r} ≤ capacity(v)."""
        solver = SpecialFormLocalSolver(R=3)
        for instance in special_form_family()[:4]:
            result = solver.solve(instance)
            for v in instance.agents:
                assert result.g.plus(v, result.r) >= -1e-9
                assert result.g.minus(v, result.r) <= instance.agent_capacity(v) + 1e-9

    def test_smoothed_bound_upper_bounds_optimum(self):
        """Combination of Lemmata 2 and 3: s_v ≥ optimum for every v."""
        solver = SpecialFormLocalSolver(R=3)
        for instance in special_form_family()[:4]:
            optimum = solve_maxmin_lp(instance).optimum
            result = solver.solve(instance)
            for v in instance.agents:
                assert result.smoothed_bounds[v] >= optimum - 1e-7

    def test_lemma12_objective_lower_bound(self):
        """Lemma 12: every objective value is ≥ (1/2)(1 − 1/R)(|V_k|/(|V_k|−1)) min s_v."""
        solver = SpecialFormLocalSolver(R=4)
        for instance in special_form_family()[:4]:
            result = solver.solve(instance)
            R = solver.R
            for k in instance.objectives:
                members = instance.agents_of_objective(k)
                min_s = min(result.smoothed_bounds[v] for v in members)
                size = len(members)
                bound = 0.5 * (1 - 1 / R) * size / (size - 1) * min_s
                assert result.solution.objective_value(k) >= bound - 1e-8

    def test_larger_R_never_hurts_guarantee(self):
        instance = cycle_instance(7, coefficient_range=(0.5, 1.5), seed=12)
        utilities = {}
        for R in (2, 3, 5):
            result = SpecialFormLocalSolver(R=R).solve(instance)
            utilities[R] = result.solution.utility()
            assert result.guaranteed_ratio == pytest.approx(special_form_ratio(instance.delta_K, R))
        # Guarantees tighten with R.
        assert special_form_ratio(2, 5) < special_form_ratio(2, 3) < special_form_ratio(2, 2)

    def test_symmetric_cycle_is_solved_optimally(self):
        # On the unit cycle the optimum (all 1/2) is symmetric, and the
        # algorithm recovers it exactly for every R.
        instance = cycle_instance(6)
        for R in (2, 3):
            result = SpecialFormLocalSolver(R=R).solve(instance)
            assert result.solution.utility() == pytest.approx(1.0, abs=1e-6)

    def test_result_metadata(self):
        instance = cycle_instance(5)
        result = SpecialFormLocalSolver(R=3).solve(instance)
        assert result.R == 3 and result.r == 1
        assert result.minimum_smoothed_bound() <= max(result.upper_bounds.values()) + 1e-12
        assert "SpecialFormSolveResult" in repr(result)


class TestGeneralSolver:
    @pytest.mark.parametrize("R", [2, 3])
    def test_feasible_and_within_guarantee_on_general_family(self, R):
        solver = LocalMaxMinSolver(R=R)
        for instance in general_family():
            result = solver.solve(instance)
            assert_feasible(result.solution)
            assert_within_guarantee(
                instance, result.solution, result.certificate.guaranteed_ratio
            )

    def test_guarantee_formula_matches_certificate(self):
        solver = LocalMaxMinSolver(R=3)
        for instance in general_family():
            result = solver.solve(instance)
            if result.status == "local":
                assert result.certificate.guaranteed_ratio <= theorem1_ratio(
                    instance.delta_I, max(instance.delta_K, 2), solver.R
                ) + 1e-9

    def test_special_form_shortcut(self, unit_cycle):
        result = LocalMaxMinSolver(R=3).solve(unit_cycle)
        assert result.transform is None
        assert result.status == "local"
        assert result.utility() == pytest.approx(1.0, abs=1e-6)

    def test_trivial_delta_I_1(self):
        builder = InstanceBuilder()
        builder.add_constraint_term("i1", "a", 2.0)
        builder.add_constraint_term("i2", "b", 4.0)
        builder.add_objective_term("k", "a", 1.0)
        builder.add_objective_term("k", "b", 1.0)
        instance = builder.build()
        result = LocalMaxMinSolver(R=3).solve(instance)
        assert result.status == "trivial-delta-I-1"
        assert result.certificate.guaranteed_ratio == 1.0
        assert result.utility() == pytest.approx(solve_maxmin_lp(instance).optimum)

    def test_zero_status(self):
        builder = InstanceBuilder()
        builder.add_constraint_term("i", "a", 1.0)
        builder.add_objective_term("k", "a", 1.0)
        builder.add_objective("k_empty")
        result = LocalMaxMinSolver().solve(builder.build())
        assert result.status == "zero"
        assert result.utility() == 0.0

    def test_unbounded_status(self):
        instance = MaxMinInstance(["a"], [], ["k"], {}, {("k", "a"): 1.0})
        result = LocalMaxMinSolver().solve(instance)
        assert result.status == "unbounded"
        assert result.solution.objective_value("k") >= 1.0 - 1e-12

    def test_degenerate_parts_are_lifted(self, degenerate_instance):
        result = LocalMaxMinSolver(R=2).solve(degenerate_instance)
        assert_feasible(result.solution)
        # The isolated objective pins the optimum (and hence the status) to zero.
        assert result.status == "zero"

    def test_result_repr_and_utility(self, ring_instance):
        result = LocalMaxMinSolver(R=3).solve(ring_instance)
        assert isinstance(result, GeneralSolveResult)
        assert "GeneralSolveResult" in repr(result)
        assert result.utility() == result.solution.utility()


class TestSafeAlgorithm:
    def test_feasible_and_ratio_delta_I(self):
        safe = SafeAlgorithm()
        for instance in general_family() + special_form_family():
            solution, certificate = safe.solve_with_certificate(instance)
            assert_feasible(solution)
            assert_within_guarantee(instance, solution, certificate.guaranteed_ratio)

    def test_variants(self, unit_cycle):
        degree = safe_solution(unit_cycle, variant="degree")
        delta = safe_solution(unit_cycle, variant="delta")
        for v in unit_cycle.agents:
            assert degree[v] == pytest.approx(0.5)
            assert delta[v] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            safe_solution(unit_cycle, variant="bogus")
        with pytest.raises(ValueError):
            SafeAlgorithm(variant="bogus")

    def test_delta_variant_is_more_conservative(self):
        instance = objective_ring_instance(4, 4)
        degree = safe_solution(instance, variant="degree")
        delta = safe_solution(instance, variant="delta")
        for v in instance.agents:
            assert delta[v] <= degree[v] + 1e-12

    def test_ring_family_exposes_safe_gap(self):
        """On the objective ring the safe ratio approaches 2(1 − 1/ΔK)."""
        for delta_K in (2, 3, 4):
            instance = objective_ring_instance(4, delta_K)
            optimum = solve_maxmin_lp(instance).optimum
            solution = SafeAlgorithm().solve(instance)
            measured = optimum / solution.utility()
            assert measured == pytest.approx(2.0 * (1 - 1 / delta_K), rel=1e-6)

    def test_unconstrained_agent_rejected_without_preprocess(self):
        instance = MaxMinInstance(["a"], [], ["k"], {}, {("k", "a"): 1.0})
        with pytest.raises(InvalidInstanceError):
            safe_solution(instance)
        # The object wrapper preprocesses and therefore succeeds.
        solution = SafeAlgorithm().solve(instance)
        assert solution.is_feasible()


class TestCertificates:
    def test_record_and_verify(self, unit_cycle):
        result = LocalMaxMinSolver(R=3).solve(unit_cycle)
        optimum = solve_maxmin_lp(unit_cycle).optimum
        assert verify_certificate(result.certificate, result.solution, optimum)
        assert result.certificate.holds
        assert result.certificate.measured_ratio == pytest.approx(1.0, abs=1e-6)
        data = result.certificate.as_dict()
        assert data["algorithm"] == "local-R3"
        assert data["holds"] is True

    def test_zero_cases(self):
        certificate = Certificate("x", 2.0, 2, 2, utility=0.0)
        assert certificate.record_measurement(0.0) == 1.0
        assert math.isinf(certificate.record_measurement(1.0))
        assert certificate.holds is False

    def test_requires_utility(self):
        certificate = Certificate("x", 2.0, 2, 2)
        assert certificate.holds is None
        with pytest.raises(ValueError):
            certificate.record_measurement(1.0)

    def test_verify_rejects_infeasible(self, unit_cycle):
        certificate = Certificate("x", 10.0, 2, 2)
        infeasible = Solution(unit_cycle, {v: 10.0 for v in unit_cycle.agents})
        assert not verify_certificate(certificate, infeasible, 1.0)
