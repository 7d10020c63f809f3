"""Tests for degenerate-case preprocessing and the exact LP solver."""

from __future__ import annotations

import math

import pytest

from repro.core.builder import InstanceBuilder
from repro.core.instance import MaxMinInstance
from repro.core.lp import best_response_value, optimum_value, solve_maxmin_lp
from repro.core.preprocess import preprocess
from repro.core.solution import Solution
from repro.core.validation import (
    require_nondegenerate,
    require_special_form,
    validate_instance,
    validation_issues,
)
from repro.exceptions import DegenerateInstanceError, InvalidInstanceError, NotSpecialFormError

from conftest import assert_feasible


class TestValidation:
    def test_clean_instance_has_no_issues(self, tiny_instance):
        assert validation_issues(tiny_instance, require_nondegenerate=True, require_connected=True) == []
        validate_instance(tiny_instance, require_nondegenerate=True)

    def test_degeneracies_reported(self, degenerate_instance):
        issues = validation_issues(degenerate_instance, require_nondegenerate=True)
        assert any("isolated_constraints" in issue for issue in issues)
        with pytest.raises(InvalidInstanceError):
            validate_instance(degenerate_instance, require_nondegenerate=True)

    def test_degree_bound_check(self, general_instance):
        issues = validation_issues(general_instance, max_delta_I=2, max_delta_K=2)
        assert len(issues) == 1 and "delta_I" in issues[0]

    def test_empty_instance_flagged(self):
        inst = MaxMinInstance([], [], [], {}, {})
        assert "no agents" in validation_issues(inst)[0]

    def test_require_nondegenerate(self, degenerate_instance, tiny_instance):
        require_nondegenerate(tiny_instance)
        with pytest.raises(DegenerateInstanceError):
            require_nondegenerate(degenerate_instance)

    def test_require_special_form(self, unit_cycle, general_instance):
        require_special_form(unit_cycle)
        with pytest.raises(NotSpecialFormError):
            require_special_form(general_instance)


class TestPreprocess:
    def test_noop_on_clean_instance(self, tiny_instance):
        pre = preprocess(tiny_instance)
        assert not pre.changed
        assert pre.instance == tiny_instance
        assert not pre.optimum_is_zero and not pre.optimum_is_unbounded

    def test_all_degeneracies_removed(self, degenerate_instance):
        pre = preprocess(degenerate_instance)
        assert pre.changed
        assert not pre.instance.is_degenerate()
        # The isolated objective forces the optimum to zero.
        assert pre.optimum_is_zero
        assert "i_isolated" in pre.removed_constraints
        assert "c" in pre.forced_zero_agents
        assert "d" in pre.unconstrained_agents
        assert "k_unc" in pre.removed_objectives

    def test_lift_preserves_feasibility_and_utility(self):
        builder = InstanceBuilder("lift")
        builder.add_constraint_term("i", "a", 1.0)
        builder.add_constraint_term("i", "b", 1.0)
        builder.add_objective_term("k", "a", 1.0)
        builder.add_objective_term("k", "b", 1.0)
        builder.add_objective_term("k_unc", "free", 1.0)  # unconstrained agent
        inst = builder.build()
        pre = preprocess(inst)
        assert "free" in pre.unconstrained_agents
        inner = Solution(pre.instance, {"a": 0.5, "b": 0.5})
        lifted = pre.lift(inner)
        assert lifted.instance is inst
        assert_feasible(lifted)
        # The unconstrained agent was given enough to keep the removed
        # objective at least at the inner utility.
        assert lifted.utility() == pytest.approx(inner.utility())

    def test_lift_with_explicit_target(self):
        builder = InstanceBuilder("lift2")
        builder.add_constraint_term("i", "a", 1.0)
        builder.add_constraint_term("i", "b", 1.0)
        builder.add_objective_term("k", "a", 1.0)
        builder.add_objective_term("k", "b", 1.0)
        builder.add_objective_term("k_unc", "free", 0.5)
        inst = builder.build()
        pre = preprocess(inst)
        lifted = pre.lift(Solution(pre.instance, {"a": 0.5, "b": 0.5}), target_utility=3.0)
        assert lifted.objective_value("k_unc") >= 3.0 - 1e-9

    def test_lift_rejects_foreign_solution(self, tiny_instance, general_instance):
        pre = preprocess(general_instance)
        with pytest.raises(DegenerateInstanceError):
            pre.lift(Solution(tiny_instance, {}))

    def test_unbounded_detection(self):
        # Single objective whose only agent is unconstrained.
        inst = MaxMinInstance(["a"], [], ["k"], {}, {("k", "a"): 1.0})
        pre = preprocess(inst)
        assert pre.optimum_is_unbounded
        assert not pre.optimum_is_zero

    def test_cascading_removal(self):
        # Agent "b" only contributes to an objective that is removed because
        # of the unconstrained agent "free" -> b becomes non-contributing.
        builder = InstanceBuilder("cascade")
        builder.add_constraint_term("i", "a", 1.0)
        builder.add_objective_term("k1", "a", 1.0)
        builder.add_constraint_term("ib", "b", 1.0)
        builder.add_objective_term("k2", "b", 1.0)
        builder.add_objective_term("k2", "free", 1.0)
        inst = builder.build()
        pre = preprocess(inst)
        assert "free" in pre.unconstrained_agents
        assert "b" in pre.forced_zero_agents
        assert not pre.instance.is_degenerate()


class TestExactLP:
    def test_tiny_optimum(self, tiny_instance):
        result = solve_maxmin_lp(tiny_instance)
        assert result.status == "optimal"
        assert result.optimum == pytest.approx(1.0)
        assert_feasible(result.solution)
        assert result.solution.utility() == pytest.approx(1.0)

    def test_known_general_optimum(self):
        # maximise min(x, y) s.t. x + y <= 1  ->  0.5
        builder = InstanceBuilder()
        builder.add_packing_constraint("i", {"x": 1.0, "y": 1.0})
        builder.add_covering_objective("k1", {"x": 1.0})
        builder.add_covering_objective("k2", {"y": 1.0})
        assert optimum_value(builder.build()) == pytest.approx(0.5)

    def test_weighted_optimum(self):
        # x <= 1/2 (coefficient 2), objective 3x -> 1.5
        builder = InstanceBuilder()
        builder.add_constraint_term("i", "x", 2.0)
        builder.add_objective_term("k", "x", 3.0)
        assert optimum_value(builder.build()) == pytest.approx(1.5)

    def test_cycle_optimum_is_one(self, unit_cycle):
        assert solve_maxmin_lp(unit_cycle).optimum == pytest.approx(1.0)

    def test_ring_optimum(self, ring_instance):
        # objective_ring(m, delta_K): optimum is delta_K - 1.
        assert solve_maxmin_lp(ring_instance).optimum == pytest.approx(2.0)

    def test_zero_optimum(self):
        builder = InstanceBuilder()
        builder.add_constraint_term("i", "a", 1.0)
        builder.add_objective_term("k", "a", 1.0)
        builder.add_objective("k_empty")
        result = solve_maxmin_lp(builder.build())
        assert result.status == "zero"
        assert result.optimum == 0.0

    def test_unbounded_optimum(self):
        inst = MaxMinInstance(["a"], [], ["k"], {}, {("k", "a"): 1.0})
        result = solve_maxmin_lp(inst, unbounded_target=5.0)
        assert result.status == "unbounded"
        assert math.isinf(result.optimum)
        assert result.solution.objective_value("k") >= 5.0

    def test_split_components_disconnected(self):
        """A disconnected instance is one joint LP."""
        builder = InstanceBuilder()
        builder.add_constraint_term("i1", "a", 1.0)
        builder.add_objective_term("k1", "a", 1.0)
        builder.add_constraint_term("i2", "b", 2.0)
        builder.add_objective_term("k2", "b", 1.0)
        result = solve_maxmin_lp(builder.build())
        # Component optima are 1.0 and 0.5 -> overall 0.5.
        assert result.optimum == pytest.approx(0.5)
        assert_feasible(result.solution)

    def test_optimum_upper_bounded_by_trivial_bound(self, random_general):
        assert solve_maxmin_lp(random_general).optimum <= random_general.trivial_upper_bound() + 1e-9

    def test_best_response_value(self, tiny_instance):
        assert best_response_value(tiny_instance, {"b": 0.25}, "a") == pytest.approx(0.75)
        assert best_response_value(tiny_instance, {"b": 2.0}, "a") == 0.0
        inst = MaxMinInstance(["a"], [], ["k"], {}, {("k", "a"): 1.0})
        assert math.isinf(best_response_value(inst, {}, "a"))

    def test_lp_solution_is_optimal_feasible(self, random_general, random_special):
        for inst in (random_general, random_special):
            result = solve_maxmin_lp(inst)
            assert_feasible(result.solution)
            assert result.solution.utility() == pytest.approx(result.optimum, rel=1e-6, abs=1e-9)


class TestCsrNativeLP:
    """The compiled-COO assembly and the vectorized ``best_response_value``."""

    def test_best_response_exact_agreement_with_reference_loop(self):
        """Bit-for-bit agreement with the historical per-constraint loop."""
        import numpy as np

        from repro.generators import random_instance

        def reference(instance, fixed, free_agent):
            best = math.inf
            for i in instance.constraints_of_agent(free_agent):
                load = sum(
                    instance.a(i, w) * fixed.get(w, 0.0)
                    for w in instance.agents_of_constraint(i)
                    if w != free_agent
                )
                cap = (1.0 - load) / instance.a(i, free_agent)
                best = min(best, cap)
            return max(best, 0.0)

        rng = np.random.default_rng(7)
        for seed in (13, 5):
            inst = random_instance(
                40, delta_I=5, delta_K=3, extra_constraints=8, extra_objectives=4, seed=seed
            )
            values = {v: float(rng.uniform(0.0, 0.5)) for v in inst.agents}
            for v in inst.agents:
                fixed = {w: x for w, x in values.items() if w != v}
                assert best_response_value(inst, fixed, v) == reference(inst, fixed, v)

    def test_lp_matrix_exact_agreement_with_reference_loop(self, monkeypatch):
        """The ``A_ub`` handed to ``linprog`` equals the historical per-edge
        COO loop: same shape, same sparsity pattern, same entries."""
        import numpy as np
        from scipy import optimize, sparse

        from repro.generators import random_instance, torus_instance

        def reference(instance):
            agent_index = {v: idx for idx, v in enumerate(instance.agents)}
            n, n_con = instance.num_agents, instance.num_constraints
            rows, cols, data = [], [], []
            for r, i in enumerate(instance.constraints):
                for v in instance.agents_of_constraint(i):
                    rows.append(r)
                    cols.append(agent_index[v])
                    data.append(instance.a(i, v))
            for r, k in enumerate(instance.objectives):
                for v in instance.agents_of_objective(k):
                    rows.append(n_con + r)
                    cols.append(agent_index[v])
                    data.append(-instance.c(k, v))
                rows.append(n_con + r)
                cols.append(n)
                data.append(1.0)
            return sparse.csr_matrix(
                (np.asarray(data, dtype=float), (np.asarray(rows), np.asarray(cols))),
                shape=(n_con + instance.num_objectives, n + 1),
            )

        matrices = []
        real_linprog = optimize.linprog

        def spy(*args, **kwargs):
            matrices.append(kwargs["A_ub"])
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(optimize, "linprog", spy)
        for instance in (
            random_instance(80, delta_I=3, delta_K=3, extra_constraints=4, extra_objectives=4, seed=0),
            random_instance(40, delta_I=5, delta_K=3, extra_constraints=8, extra_objectives=4, seed=13),
            torus_instance(4, 4, coefficient_range=(0.5, 2.0), seed=17),
        ):
            assert not preprocess(instance).changed  # the LP is over `instance` itself
            matrices.clear()
            solve_maxmin_lp(instance)
            (got,) = matrices
            want = reference(instance)
            assert got.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr

    def test_best_response_unknown_agent_raises(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            best_response_value(tiny_instance, {}, "nope")

    def test_best_response_ignores_unknown_fixed_agents(self, tiny_instance):
        assert best_response_value(
            tiny_instance, {"b": 0.25, "ghost": 9.0}, "a"
        ) == pytest.approx(0.75)
