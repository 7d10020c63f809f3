"""Tests for the distributed protocols (the paper's algorithm and the safe baseline).

The central claim checked here: the message-passing realisation produces the
same outputs as the centralized reference implementation — i.e. the
algorithm really is computable in ``Θ(R)`` synchronous rounds from local
information only.
"""

from __future__ import annotations

import pytest

from repro.algo.local_solver import SpecialFormLocalSolver
from repro.algo.safe_algorithm import safe_solution
from repro.core.lp import solve_maxmin_lp
from repro.distributed import PhaseSchedule, ResilientLocalSolver, ResilientSafeSolver
from repro.distributed.dynamics import (
    changed_sites,
    local_horizon_radius,
    measure_change_impact,
)
from repro.distributed.safe_agents import SAFE_ALGORITHM_ROUNDS
from repro.exceptions import NotSpecialFormError, SimulationError
from repro.generators import (
    cycle_instance,
    objective_ring_instance,
    perturb_coefficient,
    random_special_form_instance,
    regular_special_form_instance,
)
from repro.oracle import distributed as oracle_dist

from conftest import assert_feasible, assert_within_guarantee, special_form_family


class TestPhaseSchedule:
    def test_round_arithmetic(self):
        sched = PhaseSchedule(2)
        assert sched.r == 0
        assert sched.total_rounds == 7
        sched = PhaseSchedule(3)
        assert sched.view_end == 6
        assert sched.smooth_end == 12
        assert sched.g_start == 13
        assert sched.total_rounds == 19  # 12r + 7 with r = 1

    def test_invalid_R(self):
        with pytest.raises(ValueError):
            PhaseSchedule(1)

    def test_total_rounds_formula(self):
        for R in range(2, 7):
            assert PhaseSchedule(R).total_rounds == 12 * (R - 2) + 7


class TestDistributedLocalSolver:
    """The §5 protocol's solver, :class:`ResilientLocalSolver`, without faults."""

    @pytest.mark.parametrize("R", [2, 3])
    def test_matches_centralized_reference(self, R):
        instances = [
            cycle_instance(6, coefficient_range=(0.5, 2.0), seed=1),
            random_special_form_instance(12, delta_K=3, constraint_rounds=2, seed=2),
            objective_ring_instance(3, 3),
        ]
        for instance in instances:
            central = SpecialFormLocalSolver(R=R).solve(instance)
            distributed_solution, run = ResilientLocalSolver(R=R).solve(instance)
            assert run.rounds == 12 * (R - 2) + 7
            for v in instance.agents:
                assert distributed_solution[v] == pytest.approx(central.solution[v], abs=1e-8)

    def test_output_feasible_and_within_guarantee(self):
        solver = ResilientLocalSolver(R=3)
        for instance in special_form_family()[:4]:
            solution, _run = solver.solve(instance)
            assert_feasible(solution)
            guarantee = 2.0 * (1 - 1 / instance.delta_K) * (1 + 1 / (solver.R - 1))
            assert_within_guarantee(instance, solution, guarantee)

    def test_rejects_general_instances(self, general_instance):
        with pytest.raises(NotSpecialFormError):
            ResilientLocalSolver(R=2).solve(general_instance)

    def test_local_horizon_property(self):
        assert ResilientLocalSolver(R=2).local_horizon == 7
        assert ResilientLocalSolver(R=4).local_horizon == 31

    def test_messages_scale_linearly_with_network_size(self):
        """Constant work per node: total messages grow linearly in n."""
        solver = ResilientLocalSolver(R=2)
        runs = {}
        for segments in (6, 12, 24):
            instance = cycle_instance(segments)
            _solution, run = solver.solve(instance)
            runs[segments] = run
        per_node_small = runs[6].total_messages / cycle_instance(6).num_nodes
        per_node_large = runs[24].total_messages / cycle_instance(24).num_nodes
        assert per_node_large == pytest.approx(per_node_small, rel=0.01)
        # Round count is independent of n.
        assert runs[6].rounds == runs[24].rounds


class TestDistributedSafeSolver:
    """The safe protocol's solver, :class:`ResilientSafeSolver`, without faults."""

    def test_matches_centralized_safe(self):
        for instance in special_form_family()[:4]:
            central = safe_solution(instance, variant="degree")
            distributed, run = ResilientSafeSolver().solve(instance)
            assert run.rounds == SAFE_ALGORITHM_ROUNDS
            for v in instance.agents:
                assert distributed[v] == pytest.approx(central[v], abs=1e-12)

    def test_works_on_general_nondegenerate_instances(self, general_instance):
        solution, _run = ResilientSafeSolver().solve(general_instance)
        assert_feasible(solution)

    def test_message_count(self):
        instance = cycle_instance(5)
        _solution, run = oracle_dist.safe_solve(instance)
        # One message per constraint-agent edge in round 1, nothing in round 2.
        assert run.total_messages == 2 * instance.num_constraints


class TestDynamics:
    def test_changed_sites_detection(self):
        before = cycle_instance(8)
        after = perturb_coefficient(before, "i0", "v0", 3.0)
        sites = changed_sites(before, after)
        assert len(sites) == 1

    def test_identical_instances_rejected(self):
        instance = cycle_instance(4)
        with pytest.raises(SimulationError):
            measure_change_impact(instance, instance, lambda inst: None, horizon=1)

    @pytest.mark.parametrize("R", [2, 3])
    def test_output_changes_are_local(self, R):
        """Changing one coefficient only moves outputs within the local horizon."""
        before = cycle_instance(16)
        after = perturb_coefficient(before, "i0", "v0", 4.0)

        def solver(instance):
            return SpecialFormLocalSolver(R=R).solve(instance).solution

        impact = measure_change_impact(
            before, after, solver, horizon=local_horizon_radius(R)
        )
        assert impact.changed_agents, "the perturbation must affect someone"
        assert impact.is_local, (
            f"outputs changed at distance {impact.max_distance} > horizon {impact.horizon}"
        )

    def test_far_agents_unaffected(self):
        """An agent diametrically across a long cycle keeps its exact output."""
        R = 2
        before = cycle_instance(24)
        after = perturb_coefficient(before, "i0", "v0", 4.0)
        sol_before = SpecialFormLocalSolver(R=R).solve(before).solution
        sol_after = SpecialFormLocalSolver(R=R).solve(after).solution
        far_agent = "v24"  # half-way around the 48-agent cycle
        assert sol_before[far_agent] == pytest.approx(sol_after[far_agent], abs=1e-12)
