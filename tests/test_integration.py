"""End-to-end integration tests across subsystems.

Each test here mirrors one of the experiments ``benchmarks/bench_e*.py`` at
a small scale, so that the benchmark harness can never silently drift away
from a checked property.
"""

from __future__ import annotations

import math

import pytest

from repro.algo.general_solver import LocalMaxMinSolver, theorem1_ratio
from repro.algo.local_solver import SpecialFormLocalSolver
from repro.algo.safe_algorithm import SafeAlgorithm
from repro.analysis import best_local_ratio_bound, compare_algorithms, run_ratio_sweep, worst_case_by
from repro.applications import service_statistics
from repro.core.lp import solve_maxmin_lp
from repro.distributed import ResilientLocalSolver, ResilientSafeSolver
from repro.generators import (
    bandwidth_allocation_instance,
    cycle_instance,
    indistinguishable_cycle_pair,
    objective_ring_instance,
    random_instance,
    sensor_network_instance,
    torus_instance,
)
from repro.transforms import to_special_form

from conftest import assert_feasible, assert_within_guarantee


class TestEndToEndApplications:
    """Experiment E9: realistic workloads end to end."""

    def test_sensor_network_pipeline(self):
        network = sensor_network_instance(18, 5, radius=0.35, seed=11)
        instance = network.instance
        lp = solve_maxmin_lp(instance)
        local = LocalMaxMinSolver(R=3).solve(instance)
        safe = SafeAlgorithm().solve(instance)

        assert_feasible(local.solution)
        assert_feasible(safe)
        assert lp.optimum > 0
        assert_within_guarantee(instance, local.solution, local.certificate.guaranteed_ratio, lp.optimum)

        stats = service_statistics(local.solution)
        assert stats["min"] == pytest.approx(local.utility())
        assert stats["min"] <= lp.optimum + 1e-9

    def test_bandwidth_pipeline(self):
        workload = bandwidth_allocation_instance(12, 6, paths_per_customer=2, seed=13)
        instance = workload.instance
        lp = solve_maxmin_lp(instance)
        local = LocalMaxMinSolver(R=3).solve(instance)
        assert_feasible(local.solution)
        assert_within_guarantee(instance, local.solution, local.certificate.guaranteed_ratio, lp.optimum)
        # Every customer receives some bandwidth under the exact optimum, and
        # the local algorithm guarantees a positive fraction of it.
        if lp.optimum > 0:
            assert local.utility() > 0

    def test_torus_via_full_transformation_pipeline(self):
        instance = torus_instance(4, 4, seed=3)
        result = LocalMaxMinSolver(R=2).solve(instance)
        assert result.status == "local"
        assert result.transform is not None and result.transform.changed
        assert_feasible(result.solution)


class TestDistributedEndToEnd:
    """Experiment E5: the distributed protocol on transformed real workloads."""

    def test_transform_then_distributed_run(self):
        # General workload -> §4 pipeline (centralized, but locally computable)
        # -> distributed §5 protocol -> back-mapping.
        instance = random_instance(16, delta_I=3, delta_K=2, seed=17)
        transform = to_special_form(instance)
        distributed_solution, run = ResilientLocalSolver(R=2).solve(transform.transformed)
        mapped = transform.map_back(distributed_solution)
        assert_feasible(mapped)
        optimum = solve_maxmin_lp(instance).optimum
        guarantee = transform.ratio_factor * 2.0 * (1 - 1 / transform.transformed.delta_K) * 2.0
        assert_within_guarantee(instance, mapped, guarantee, optimum)
        assert run.rounds == ResilientLocalSolver(R=2).local_horizon

    def test_distributed_matches_centralized_on_application(self):
        network = sensor_network_instance(10, 4, radius=0.4, seed=19)
        transform = to_special_form(network.instance)
        special = transform.transformed
        central = SpecialFormLocalSolver(R=2).solve(special)
        distributed, _run = ResilientLocalSolver(R=2).solve(special)
        for v in special.agents:
            assert distributed[v] == pytest.approx(central.solution[v], abs=1e-8)

    def test_safe_protocol_message_budget_smaller_than_local(self):
        instance = cycle_instance(10)
        _s1, run_local = ResilientLocalSolver(R=2).solve(instance)
        _s2, run_safe = ResilientSafeSolver().solve(instance)
        assert run_safe.total_messages < run_local.total_messages
        assert run_safe.rounds < run_local.rounds


class TestTheorem1Experiments:
    """Experiments E1–E4 at test scale."""

    def test_upper_bound_holds_across_families_and_R(self):
        instances = [
            cycle_instance(6, coefficient_range=(0.5, 2.0), seed=1),
            objective_ring_instance(4, 3),
            random_instance(14, delta_I=3, delta_K=3, seed=2),
            torus_instance(3, 3, seed=3),
        ]
        rows = run_ratio_sweep(instances, R_values=(2, 3), include_safe=True)
        summary = worst_case_by(rows, keys=("algorithm",))
        assert all(entry["within_guarantee"] for entry in summary)

    def test_ratio_improves_with_R_on_adversarial_family(self):
        """E3: the guarantee (and on hard instances the measurement) tightens with R."""
        instance = objective_ring_instance(6, 3)
        guarantees = []
        measured = []
        optimum = solve_maxmin_lp(instance).optimum
        for R in (2, 3, 5):
            result = LocalMaxMinSolver(R=R).solve(instance)
            guarantees.append(result.certificate.guaranteed_ratio)
            measured.append(optimum / result.utility())
        assert guarantees == sorted(guarantees, reverse=True)
        assert all(m <= g + 1e-9 for m, g in zip(measured, guarantees))

    def test_guarantee_approaches_threshold(self):
        """E1/E3: ΔI (1 − 1/ΔK)(1 + 1/(R−1)) → ΔI (1 − 1/ΔK) as R grows."""
        threshold = 2 * (1 - 1 / 3)
        assert theorem1_ratio(2, 3, 30) == pytest.approx(threshold, rel=0.04)
        assert theorem1_ratio(2, 3, 30) > threshold

    def test_safe_algorithm_hits_its_gap_while_local_guarantee_is_below_delta_I(self):
        """E4: on the ring family the safe ratio is 2(1−1/ΔK); the local
        algorithm's *guarantee* beats the safe guarantee (ΔI = 2 here) once R
        is moderately large."""
        delta_K = 4
        instance = objective_ring_instance(5, delta_K)
        optimum = solve_maxmin_lp(instance).optimum
        safe = SafeAlgorithm().solve(instance)
        safe_ratio = optimum / safe.utility()
        assert safe_ratio == pytest.approx(2 * (1 - 1 / delta_K), rel=1e-6)
        local = LocalMaxMinSolver(R=8).solve(instance)
        assert local.certificate.guaranteed_ratio < 2.0  # beats the safe guarantee ΔI
        assert optimum / local.utility() <= local.certificate.guaranteed_ratio + 1e-9

    def test_lower_bound_machinery(self):
        """E2: locally indistinguishable pairs force a ratio bounded away from 1."""
        pair = indistinguishable_cycle_pair(10, defect_coefficient=4.0)
        bound_small = best_local_ratio_bound(list(pair), horizon=2)
        assert bound_small.ratio_lower_bound > 1.0
        # The algorithm's achievable guarantee at a comparable horizon can
        # never undercut the computed lower bound on these two instances.
        worst_measured = 1.0
        for instance in pair:
            result = LocalMaxMinSolver(R=2).solve(instance)
            optimum = solve_maxmin_lp(instance).optimum
            worst_measured = max(worst_measured, optimum / result.utility())
        assert worst_measured >= 1.0  # sanity: the gap exists for real algorithms too
