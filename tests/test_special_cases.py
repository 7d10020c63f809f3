"""Special cases called out in paper §1.3 and robustness edge cases.

Prior work handled two restricted families — *bipartite* max-min LPs (every
agent in exactly one constraint and one objective) and {0,1}-coefficient
instances — and the trivial cases ΔI = 1 / ΔK = 1.  The general algorithm of
the reproduced paper must of course cover all of them; these tests pin that
down, together with protocol-level error paths of the distributed runtime.
"""

from __future__ import annotations

import math

import pytest

from repro.algo.general_solver import LocalMaxMinSolver
from repro.algo.local_solver import SpecialFormLocalSolver
from repro.core.builder import InstanceBuilder
from repro.core.lp import solve_maxmin_lp
from repro.analysis.views import build_network
from repro.distributed import ResilientLocalSolver
from repro.distributed.agents import PhaseSchedule
from repro.exceptions import SimulationError
from repro.generators import cycle_instance, random_instance, regular_general_instance
from repro.oracle import distributed as oracle_dist
from repro.oracle.distributed import MaxMinAgentNode, Message
from repro.transforms import to_special_form

from conftest import assert_feasible, assert_within_guarantee


class TestBipartiteMaxMinLPs:
    """§1.3: each column of A and of C has a single non-zero entry."""

    def build(self, seed: int = 0):
        # Cycle instances are bipartite max-min LPs by construction.
        instance = cycle_instance(6, coefficient_range=(0.5, 2.0), seed=seed)
        assert instance.is_bipartite_maxmin()
        return instance

    @pytest.mark.parametrize("R", [2, 3])
    def test_algorithm_covers_bipartite_case(self, R):
        instance = self.build()
        result = LocalMaxMinSolver(R=R).solve(instance)
        assert_feasible(result.solution)
        # Prior work achieved ΔI(1−1/ΔK)+ε on this case; the general
        # algorithm must match that guarantee here (ΔI = ΔK = 2 → 1 + ε).
        assert result.certificate.guaranteed_ratio == pytest.approx(
            2 * (1 - 1 / 2) * (1 + 1 / (R - 1))
        )
        assert_within_guarantee(instance, result.solution, result.certificate.guaranteed_ratio)

    def test_zero_one_bipartite_case(self):
        instance = cycle_instance(8)  # unit coefficients
        assert instance.has_zero_one_coefficients() and instance.is_bipartite_maxmin()
        result = LocalMaxMinSolver(R=3).solve(instance)
        # The symmetric optimum (all 1/2) is recovered exactly.
        assert result.utility() == pytest.approx(1.0, abs=1e-6)


class TestZeroOneCoefficients:
    """§1.3 / [7]: the inapproximability already holds for {0,1} coefficients."""

    @pytest.mark.parametrize("delta_K", [2, 3])
    def test_zero_one_regular_instances(self, delta_K):
        instance = regular_general_instance(12, 3, delta_K, seed=1)
        assert instance.has_zero_one_coefficients()
        result = LocalMaxMinSolver(R=3).solve(instance)
        assert_feasible(result.solution)
        assert_within_guarantee(instance, result.solution, result.certificate.guaranteed_ratio)

    def test_guarantee_is_combinatorial(self):
        """The threshold depends only on ΔI, ΔK — not on the coefficients."""
        unit = cycle_instance(6)
        weighted = cycle_instance(6, coefficient_range=(0.25, 4.0), seed=9)
        r_unit = LocalMaxMinSolver(R=4).solve(unit)
        r_weighted = LocalMaxMinSolver(R=4).solve(weighted)
        assert r_unit.certificate.guaranteed_ratio == pytest.approx(
            r_weighted.certificate.guaranteed_ratio
        )


class TestTrivialDegreeCases:
    """§1: ΔI = 1 or ΔK = 1 can be solved optimally."""

    def test_delta_I_1_exactly_optimal(self):
        builder = InstanceBuilder()
        for j, coeff in enumerate([1.0, 2.0, 4.0]):
            builder.add_constraint_term(f"i{j}", f"v{j}", coeff)
        builder.add_covering_objective("k0", {"v0": 1.0, "v1": 1.0})
        builder.add_covering_objective("k1", {"v1": 1.0, "v2": 3.0})
        instance = builder.build()
        assert instance.delta_I == 1
        result = LocalMaxMinSolver(R=2).solve(instance)
        assert result.status == "trivial-delta-I-1"
        assert result.utility() == pytest.approx(solve_maxmin_lp(instance).optimum)

    def test_delta_K_1_instances_still_covered(self):
        # Objectives of degree one are handled through §4.5; the guarantee is
        # computed with ΔK clamped to 2.
        builder = InstanceBuilder()
        builder.add_packing_constraint("i0", {"v0": 1.0, "v1": 1.0})
        builder.add_packing_constraint("i1", {"v1": 1.0, "v2": 2.0})
        builder.add_covering_objective("k0", {"v0": 1.0})
        builder.add_covering_objective("k1", {"v1": 1.0})
        builder.add_covering_objective("k2", {"v2": 1.0})
        instance = builder.build()
        assert instance.delta_K == 1
        result = LocalMaxMinSolver(R=3).solve(instance)
        assert_feasible(result.solution)
        assert_within_guarantee(instance, result.solution, result.certificate.guaranteed_ratio)


class TestDistributedErrorPaths:
    def test_agent_requires_unique_objective_port(self, general_instance):
        # Building the distributed protocol on a non-special-form instance is
        # rejected by the solver; driving an agent node manually on such an
        # instance fails loudly rather than silently mis-computing.
        network = build_network(general_instance)
        schedule = PhaseSchedule(2)
        agent_node_id = network.agent_nodes()[2]  # v2 has two objectives
        node = MaxMinAgentNode(agent_node_id, network.local_input(agent_node_id), schedule)
        with pytest.raises(SimulationError):
            node._objective_port()

    def test_agent_detects_missing_protocol_messages(self, unit_cycle):
        network = build_network(unit_cycle)
        schedule = PhaseSchedule(2)
        agent_id = network.agent_nodes()[0]
        node = MaxMinAgentNode(agent_id, network.local_input(agent_id), schedule)
        # Fast-forward the node to the round where it expects a sibling sum
        # and hand it an empty inbox.
        node.s_v = 1.0
        node.g_plus[0] = 1.0
        with pytest.raises(SimulationError):
            node.compose(schedule.g_start + 2, {})

    def test_runtime_rejects_too_large_round_budget_gracefully(self, unit_cycle):
        # Running more rounds than the protocol needs is harmless: the extra
        # rounds are silent and outputs are unchanged.
        instance = unit_cycle
        solver = ResilientLocalSolver(R=2)
        expected, _ = solver.solve(instance)
        network = build_network(instance)
        result = oracle_dist.run(
            network,
            oracle_dist.maxmin_node_factory(PhaseSchedule(2)),
            rounds=PhaseSchedule(2).total_rounds + 5,
        )
        for v in instance.agents:
            assert result.outputs[v] == pytest.approx(expected[v], abs=1e-12)

    def test_message_repr_and_phase(self):
        message = Message({"x": 1}, phase="demo")
        assert "demo" in repr(message)
