"""Equivalence suite for the CSR-backed safe baseline and message plane.

Pins three contracts introduced with the vectorized runtime:

* the CSR safe share agrees exactly with the per-node oracle
  :func:`repro.oracle.safe_solution` (identical arithmetic per edge),
  centralized and distributed, across every generator family;
* the message plane reproduces the per-node simulator of
  :mod:`repro.oracle.distributed` for the E5 local protocol — outputs, round
  counts and per-round message statistics;
* a protocol whose agents fail to produce output raises instead of silently
  yielding a "feasible" all-zero solution (regression).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import oracle
from repro._types import NodeType
from repro.algo.local_solver import SpecialFormLocalSolver
from repro.algo.safe_algorithm import SafeAlgorithm, safe_solution
from repro.analysis.views import build_network
from repro.core.solution import Solution
from repro.distributed import MessagePlane, ResilientLocalSolver, ResilientSafeSolver
from repro.distributed import safe_agents as safe_agents_mod
from repro.exceptions import InvalidInstanceError, SimulationError
from repro.oracle import distributed as oracle_dist
from repro.generators import cycle_instance, random_special_form_instance

from conftest import general_family, mid_size_special_form_family, special_form_family


def _nondegenerate_general_family():
    return [inst for inst in general_family() if not inst.is_degenerate()]


class TestSafeBackendEquivalence:
    @pytest.mark.parametrize("variant", ["degree", "delta"])
    def test_centralized_backends_agree_exactly(self, variant):
        for instance in (
            special_form_family() + mid_size_special_form_family() + _nondegenerate_general_family()
        ):
            ref = oracle.safe_solution(instance, variant=variant)
            vec = safe_solution(instance, variant=variant)
            for v in instance.agents:
                assert vec[v] == ref[v]  # identical arithmetic, not just close

    def test_delta_override_agrees(self):
        instance = cycle_instance(6, coefficient_range=(0.5, 2.0), seed=3)
        ref = oracle.safe_solution(instance, variant="delta", delta_I=7)
        vec = safe_solution(instance, variant="delta", delta_I=7)
        for v in instance.agents:
            assert vec[v] == ref[v]

    def test_delta_I_with_wrong_variant_raises(self):
        # Regression: the override used to be silently ignored.
        instance = cycle_instance(4)
        with pytest.raises(ValueError, match="delta_I"):
            safe_solution(instance, variant="degree", delta_I=5)
        with pytest.raises(ValueError, match="delta_I"):
            oracle.safe_solution(instance, variant="degree", delta_I=5)

    def test_safe_algorithm_wrapper_backends_agree(self):
        for instance in _nondegenerate_general_family():
            pre = oracle.preprocess(instance)
            assert not pre.changed  # nondegenerate: the wrapper adds no lift
            ref = oracle.safe_solution(pre.instance)
            vec = SafeAlgorithm().solve(instance)
            for v in instance.agents:
                assert vec[v] == ref[v]

    def test_distributed_matches_centralized_all_families(self):
        for solve in (ResilientSafeSolver().solve, oracle_dist.safe_solve):
            for instance in special_form_family() + _nondegenerate_general_family():
                central = safe_solution(instance, variant="degree")
                distributed, run = solve(instance)
                assert run.rounds == safe_agents_mod.SAFE_ALGORITHM_ROUNDS
                for v in instance.agents:
                    assert distributed[v] == central[v]


class TestMessagePlane:
    def test_reverse_matches_port_numbering(self):
        """The plane's slot scheme is pinned to PortNumbering's convention."""
        instance = random_special_form_instance(12, delta_K=3, constraint_rounds=2, seed=2)
        plane = MessagePlane(instance)
        network = build_network(instance)
        comp = instance.compiled()

        def slot_of(node, port):
            kind, name = node
            if kind is NodeType.AGENT:
                return int(plane.agent_indptr[comp.agent_index[name]]) + port - 1
            if kind is NodeType.CONSTRAINT:
                return plane.con_base + int(comp.cagents_indptr[comp.constraint_index[name]]) + port - 1
            return plane.obj_base + int(comp.oagents_indptr[comp.objective_index[name]]) + port - 1

        for node in network.nodes():
            for port in network.ports.ports(node):
                neighbour, remote_port = network.endpoint(node, port)
                assert plane.reverse[slot_of(node, port)] == slot_of(neighbour, remote_port)

    def test_reverse_is_involution(self):
        instance = cycle_instance(7, coefficient_range=(0.5, 2.0), seed=1)
        plane = MessagePlane(instance)
        assert np.array_equal(plane.reverse[plane.reverse], np.arange(plane.num_slots))


class TestRuntimeEquivalence:
    """Message plane vs the per-node simulator for the E5 local protocol."""

    @pytest.mark.parametrize("R", [2, 3, 4])
    def test_outputs_and_statistics_match_oracle(self, R):
        instances = special_form_family()[:4]
        if R == 2:
            instances += mid_size_special_form_family()
        for instance in instances:
            ref_solution, ref_run = oracle_dist.local_solve(instance, R)
            vec_solution, vec_run = ResilientLocalSolver(R=R).solve(instance)
            assert vec_run.rounds == ref_run.rounds == 12 * (R - 2) + 7
            assert vec_run.total_messages == ref_run.total_messages
            assert [s.messages for s in vec_run.per_round] == [
                s.messages for s in ref_run.per_round
            ]
            for v in instance.agents:
                assert vec_solution[v] == pytest.approx(ref_solution[v], abs=1e-9)

    def test_vectorized_matches_centralized_solver(self):
        for R in (2, 3):
            for instance in special_form_family():
                central = SpecialFormLocalSolver(R=R).solve(instance)
                distributed, _run = ResilientLocalSolver(R=R).solve(instance)
                for v in instance.agents:
                    assert distributed[v] == pytest.approx(central.solution[v], abs=1e-9)

    def test_vectorized_safe_statistics_match_oracle(self):
        for instance in [cycle_instance(5)] + mid_size_special_form_family():
            _s, ref_run = oracle_dist.safe_solve(instance)
            _s, vec_run = ResilientSafeSolver().solve(instance)
            assert vec_run.total_messages == ref_run.total_messages == 2 * instance.num_constraints
            assert [s.messages for s in vec_run.per_round] == [
                s.messages for s in ref_run.per_round
            ]


class TestMissingOutputRegression:
    """A broken protocol must raise, not backfill zeros into a Solution."""

    def test_solution_require_complete(self, tiny_instance):
        # Default behaviour: missing agents are backfilled with 0.0 ...
        assert Solution(tiny_instance, {"a": 0.5})["b"] == 0.0
        # ... but protocol solvers opt into completeness.
        with pytest.raises(InvalidInstanceError, match="require_complete"):
            Solution(tiny_instance, {"a": 0.5}, require_complete=True)

    def test_solution_from_agent_array(self, tiny_instance):
        sol = Solution.from_agent_array(tiny_instance, [0.5, 0.25], label="arr")
        assert sol["a"] == 0.5 and sol["b"] == 0.25
        with pytest.raises(InvalidInstanceError):
            Solution.from_agent_array(tiny_instance, [0.5], label="short")

    def test_safe_solver_raises_on_silent_agents(self, monkeypatch):
        monkeypatch.setattr(oracle_dist.SafeAgentNode, "output", lambda self: None)
        with pytest.raises(SimulationError, match="no\\s+output"):
            oracle_dist.safe_solve(cycle_instance(4))

    def test_local_solver_raises_on_silent_agents(self, monkeypatch):
        monkeypatch.setattr(oracle_dist.MaxMinAgentNode, "output", lambda self: None)
        with pytest.raises(SimulationError, match="no\\s+output"):
            oracle_dist.local_solve(cycle_instance(4), 2)

    def test_partial_outputs_also_rejected(self):
        """Even one silent agent out of many must fail the run."""
        instance = cycle_instance(4)
        outputs = {v: 1.0 for v in instance.agents[:-1]}
        with pytest.raises(InvalidInstanceError, match="missing"):
            Solution(instance, outputs, require_complete=True)
