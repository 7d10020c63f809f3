"""Tests for the analysis / measurement / reporting layer."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    agent_view_classes,
    best_local_ratio_bound,
    compare_algorithms,
    evaluate_solution,
    format_markdown_table,
    format_table,
    format_value,
    group_rows,
    measured_ratio,
    run_ratio_sweep,
    summarise_column,
    view_signature,
    worst_case_by,
)
from repro.analysis.indistinguishability import build_view
from repro._types import agent_node
from repro.core.lp import solve_maxmin_lp
from repro.core.solution import Solution
from repro.analysis.views import build_network
from repro.generators import (
    cycle_instance,
    indistinguishable_cycle_pair,
    objective_ring_instance,
    random_special_form_instance,
)
from repro.exceptions import SolverError


class TestRatios:
    def test_measured_ratio_cases(self):
        assert measured_ratio(2.0, 1.0) == 2.0
        assert measured_ratio(0.0, 0.0) == 1.0
        assert math.isinf(measured_ratio(1.0, 0.0))

    def test_evaluate_solution_record(self, unit_cycle):
        sol = Solution(unit_cycle, {v: 0.5 for v in unit_cycle.agents})
        record = evaluate_solution(unit_cycle, sol, algorithm="manual", guaranteed_ratio=2.0)
        assert record["feasible"] is True
        assert record["measured_ratio"] == pytest.approx(1.0)
        assert record["within_guarantee"] is True
        assert record["delta_I"] == 2

    def test_compare_algorithms_rows(self, unit_cycle):
        rows = compare_algorithms(unit_cycle, R_values=(2, 3), include_optimum_row=True)
        algorithms = [row["algorithm"] for row in rows]
        assert algorithms == ["local-R2", "local-R3", "safe-degree", "lp-optimum"]
        assert all(row["within_guarantee"] for row in rows)


class TestSweeps:
    def test_run_ratio_sweep_and_worst_case(self):
        instances = [cycle_instance(4, seed=1), cycle_instance(6, seed=2)]
        rows = run_ratio_sweep(
            instances,
            R_values=(2,),
            extra_fields={"family": lambda inst: "cycle", "segments": lambda inst: inst.num_constraints},
        )
        assert len(rows) == len(instances) * 2  # local-R2 + safe per instance
        assert all(row["family"] == "cycle" for row in rows)
        summary = worst_case_by(rows, keys=("algorithm",))
        assert {row["algorithm"] for row in summary} == {"local-R2", "safe-degree"}
        for row in summary:
            assert row["worst_measured_ratio"] >= row["mean_measured_ratio"] - 1e-12
            assert row["within_guarantee"]

    def test_group_rows(self):
        rows = [{"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 2, "b": "x"}]
        groups = group_rows(rows, ["a"])
        assert len(groups[(1,)]) == 2
        assert len(groups[(2,)]) == 1


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(1.23456) == "1.2346"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value("text") == "text"

    def test_format_table(self):
        rows = [{"x": 1.0, "y": "a"}, {"x": 2.5, "y": "b", "z": 3}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "x" in text and "2.5000" in text
        assert format_table([], title="empty").endswith("(no rows)")

    def test_format_markdown(self):
        rows = [{"x": 1.0, "y": "a"}]
        text = format_markdown_table(rows)
        assert text.splitlines()[0] == "| x | y |"
        assert "| 1.0000 | a |" in text

    def test_summarise_column(self):
        rows = [{"v": 1.0}, {"v": 3.0}, {"other": 1}]
        summary = summarise_column(rows, "v")
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(2.0)
        assert math.isnan(summarise_column(rows, "missing")["mean"])


class TestIndistinguishability:
    def test_view_classes_independent_of_cycle_length(self):
        # The number of view classes on a unit cycle depends only on the local
        # structure (and the deterministic port numbering), not on n: agents
        # far apart share classes, which is exactly what the lower-bound
        # machinery exploits.
        small = agent_view_classes([cycle_instance(8)], depth=4)
        large = agent_view_classes([cycle_instance(20)], depth=4)
        assert len(set(small.values())) == len(set(large.values()))
        assert len(set(large.values())) < 2 * 20  # strictly fewer classes than agents

    def test_view_signature_distinguishes_coefficients(self):
        instance = cycle_instance(8, coefficient_range=(0.5, 2.0), seed=3)
        uniform = cycle_instance(8)
        assert len(set(agent_view_classes([instance], depth=2).values())) > len(
            set(agent_view_classes([uniform], depth=2).values())
        )

    def test_signature_deterministic_and_sensitive(self):
        instance = cycle_instance(5)
        network = build_network(instance)
        sig_a = view_signature(build_view(network, agent_node("v0"), 3))
        sig_b = view_signature(build_view(network, agent_node("v0"), 3))
        assert sig_a == sig_b  # deterministic
        from repro.generators import perturb_coefficient

        perturbed = perturb_coefficient(instance, "i0", "v0", 2.0)
        sig_p = view_signature(build_view(build_network(perturbed), agent_node("v0"), 3))
        assert sig_p != sig_a  # sensitive to the local input

    def test_single_symmetric_instance_bound_is_achievable(self):
        # The unit cycle's optimum is symmetric, so view-constrained
        # assignments lose nothing: t* = 1 and the bound is 1.
        instance = cycle_instance(10)
        result = best_local_ratio_bound([instance], horizon=2)
        assert result.t_star == pytest.approx(1.0, abs=1e-6)
        assert result.ratio_lower_bound == pytest.approx(1.0, abs=1e-6)

    def test_defect_pair_forces_a_gap(self):
        """Far from the defect a local algorithm cannot adapt: bound > 1."""
        pair = indistinguishable_cycle_pair(12, defect_coefficient=4.0)
        result = best_local_ratio_bound(list(pair), horizon=4)
        assert result.ratio_lower_bound > 1.0 + 1e-6
        assert result.num_classes >= 2
        assert len(result.optima) == 2

    def test_gap_shrinks_with_horizon(self):
        """With a larger horizon more agents can see the defect and adapt."""
        pair = list(indistinguishable_cycle_pair(10, defect_coefficient=4.0))
        small = best_local_ratio_bound(pair, horizon=2)
        large = best_local_ratio_bound(pair, horizon=10)
        assert large.ratio_lower_bound <= small.ratio_lower_bound + 1e-9

    def test_requires_instances(self):
        with pytest.raises(SolverError):
            best_local_ratio_bound([], horizon=2)

    def test_ring_pair_classes(self):
        instance = objective_ring_instance(4, 3)
        classes = agent_view_classes([instance], depth=3)
        # Shared agents and inner agents have different degrees, hence at
        # least two classes.
        assert len(set(classes.values())) >= 2
