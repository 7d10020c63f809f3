"""Tests for the fault-tolerant distributed runtime and certified degradation.

Covers the resilience contract end to end: ``AgentFault``/``MessageFault``
plan semantics, retransmit recovery (bitwise-identical under the budget),
locality-bounded degradation beyond it (safe ball, failed agents, exact
outside — spied on with the obs counters), the quiet-stop fix, dict/vectorized
chaos equivalence, and the hypothesis soundness property of the certificate.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.distributed import (
    AGENT_EXACT,
    AGENT_FAILED,
    AGENT_SAFE,
    DistributedLocalSolver,
    DistributedSafeSolver,
    MessagePlane,
    ResilientLocalSolver,
    ResilientRuntime,
    ResilientSafeSolver,
    SynchronousRuntime,
)
from repro.distributed.message import Message
from repro.distributed.network import build_network
from repro.distributed.node import ProtocolNode
from repro.exceptions import EngineError, SimulationError
from repro.faults import AgentFault, FaultPlan, MessageFault
from repro.generators import cycle_instance, random_special_form_instance


@pytest.fixture(scope="module")
def chain80():
    return cycle_instance(80, seed=1)


@pytest.fixture(scope="module")
def chain80_exact(chain80):
    solution, _ = DistributedLocalSolver(R=3).solve(chain80)
    return solution.value_array()


def _counters(fn):
    """Run ``fn`` with obs enabled; return (result, counters delta)."""
    prior = obs.enabled()
    obs.configure(enabled=True)
    try:
        mark = obs.counters_mark()
        result = fn()
        return result, obs.counters_since(mark)
    finally:
        obs.configure(enabled=prior)


# ----------------------------------------------------------------------
# Fault-plan semantics
# ----------------------------------------------------------------------
class TestAgentFaultPlan:
    def test_kind_validation(self):
        with pytest.raises(EngineError):
            AgentFault(kind="explode")
        with pytest.raises(EngineError):
            AgentFault(kind="crash", round_number=0)
        with pytest.raises(EngineError):
            AgentFault(kind="crash", fraction=1.5)

    def test_until_round_only_for_silent(self):
        with pytest.raises(EngineError):
            AgentFault(kind="crash", until_round=5)
        with pytest.raises(EngineError):
            AgentFault(kind="silent", round_number=4, until_round=3)
        fault = AgentFault(kind="silent", round_number=2, until_round=4)
        assert not fault.active_in(1)
        assert fault.active_in(2) and fault.active_in(4)
        assert not fault.active_in(5)

    def test_crash_is_permanent(self):
        fault = AgentFault(kind="crash", round_number=3)
        assert not fault.active_in(2)
        assert fault.active_in(3) and fault.active_in(1000)

    def test_message_fault_attempts_validation(self):
        with pytest.raises(EngineError):
            MessageFault(round_number=1, attempts=(0, -1))
        assert MessageFault(round_number=1).fires_on(0)
        assert not MessageFault(round_number=1).fires_on(1)
        persistent = MessageFault(round_number=1, attempts=None)
        assert persistent.fires_on(0) and persistent.fires_on(7)

    def test_plan_describe_counts_agent_faults(self):
        plan = FaultPlan(agent_faults=(AgentFault(kind="crash"),))
        assert "agents=1" in plan.describe()

    def test_agent_fault_sampling_is_deterministic(self):
        plan = FaultPlan(
            seed=5,
            agent_faults=(AgentFault(kind="crash", round_number=2, fraction=0.3),),
        )
        a = plan.injector().agent_faults(4, 50)
        b = plan.injector().agent_faults(4, 50)
        assert a == b
        assert len(a["crash"]) == 15
        # Stable across rounds: the same agents stay crashed.
        assert plan.injector().agent_faults(9, 50)["crash"] == a["crash"]
        assert plan.injector().agent_faults(1, 50)["crash"] == set()

    def test_persistent_drops_survive_retries(self):
        plan = FaultPlan(
            seed=3,
            message_faults=(MessageFault(round_number=2, fraction=0.2, attempts=None),),
        )
        injector = plan.injector()
        attempt0 = injector.dropped_slots(2, 100, 0)
        assert attempt0 == injector.dropped_slots(2, 100, 3)

    def test_transient_drops_clear_on_retry(self):
        plan = FaultPlan(
            seed=3,
            message_faults=(MessageFault(round_number=2, fraction=0.2),),
        )
        injector = plan.injector()
        assert injector.dropped_slots(2, 100, 0)
        assert injector.dropped_slots(2, 100, 1) is None

    def test_attempt0_key_matches_legacy(self):
        # attempt 0 must reproduce the pre-retransmit sample so existing
        # plans drop the same slots on the plain runtime.
        plan = FaultPlan(
            seed=11,
            message_faults=(MessageFault(round_number=4, fraction=0.1),),
        )
        import random

        rng = random.Random("11:4:200")
        expected = set(rng.sample(range(200), 20))
        assert plan.injector().dropped_slots(4, 200) == expected


# ----------------------------------------------------------------------
# Retransmit recovery: loss under the budget is invisible
# ----------------------------------------------------------------------
class TestRetransmitRecovery:
    def test_transient_loss_recovered_bitwise(self, chain80, chain80_exact):
        plan = FaultPlan(
            seed=7,
            message_faults=(MessageFault(round_number=8, fraction=0.3),),
        )
        solver = ResilientLocalSolver(R=3, faults=plan, retransmit_budget=2)
        (solution, result), seen = _counters(lambda: solver.solve(chain80))
        assert np.array_equal(solution.value_array(), chain80_exact)
        cert = solution.degradation
        assert cert.counts() == {"exact": chain80.num_agents, "safe": 0, "failed": 0}
        assert cert.retransmits > 0
        assert cert.dropped_messages > 0
        assert cert.lost_messages == 0
        assert not cert.clean
        assert seen.get("runtime.retransmits") == cert.retransmits
        assert seen.get("runtime.lost_messages") is None
        assert seen.get("runtime.degraded_agents", 0) == 0

    def test_clean_run_has_clean_certificate(self, chain80, chain80_exact):
        solution, result = ResilientLocalSolver(R=3).solve(chain80)
        assert np.array_equal(solution.value_array(), chain80_exact)
        assert solution.degradation.clean
        assert result.retransmits == 0 and result.events == ()

    def test_zero_budget_loses_every_drop(self, chain80):
        plan = FaultPlan(
            seed=7,
            message_faults=(MessageFault(round_number=8, fraction=0.1),),
        )
        solver = ResilientLocalSolver(R=3, faults=plan, retransmit_budget=0)
        solution, result = solver.solve(chain80)
        assert result.retransmits == 0
        assert result.lost_messages == result.dropped_messages > 0

    def test_negative_budget_rejected(self):
        with pytest.raises(SimulationError):
            ResilientRuntime(plane=None, network=None, retransmit_budget=-1)


# ----------------------------------------------------------------------
# Degradation containment: the (2r+1)-ball pays, nobody else
# ----------------------------------------------------------------------
class TestDegradationContainment:
    def test_persistent_loss_degrades_ball_only(self, chain80, chain80_exact):
        plan = FaultPlan(
            seed=7,
            message_faults=(
                MessageFault(round_number=8, slots=(5,), attempts=None),
            ),
        )
        solver = ResilientLocalSolver(R=3, faults=plan, retransmit_budget=2)
        (solution, result), seen = _counters(lambda: solver.solve(chain80))
        cert = solution.degradation
        values = solution.value_array()

        assert 0 < len(cert.ball) < chain80.num_agents
        safe_pos = cert.positions_with("safe")
        assert np.array_equal(safe_pos, cert.ball)  # no crashes: ball == safe
        outside = np.setdiff1d(np.arange(chain80.num_agents), cert.ball)
        assert np.array_equal(values[outside], chain80_exact[outside])
        assert (cert.statuses[outside] == AGENT_EXACT).all()
        assert solution.check_feasibility().feasible

        # Locality spy: fallback work == ball size, zero outside.
        assert seen.get("resilient.fallback_rows") == len(safe_pos)
        assert seen.get("kernels.confined_safe_rows") == len(safe_pos)
        assert seen.get("runtime.degraded_agents") == len(safe_pos)
        assert seen.get("runtime.lost_messages") == 1
        assert [e.kind for e in cert.events] == ["link_loss"]

    def test_crash_contained_and_failed(self, chain80, chain80_exact):
        plan = FaultPlan(
            seed=1,
            agent_faults=(AgentFault(kind="crash", round_number=2, agents=(10,)),),
        )
        (solution, result), seen = _counters(
            lambda: ResilientLocalSolver(R=3, faults=plan).solve(chain80)
        )
        cert = solution.degradation
        values = solution.value_array()
        assert cert.statuses[10] == AGENT_FAILED
        assert values[10] == 0.0
        assert cert.status_of(chain80.agents[10]) == "failed"
        assert 10 in cert.ball
        outside = np.setdiff1d(np.arange(chain80.num_agents), cert.ball)
        assert len(outside) > 0
        assert np.array_equal(values[outside], chain80_exact[outside])
        assert solution.check_feasibility().feasible
        assert seen.get("runtime.crashed_agents") == 1
        assert [e.kind for e in cert.events] == ["agent_crash"]
        assert result.faulty_agent_positions()["crash"] == (10,)

    def test_babbling_agent_is_quarantined_not_fatal(self, chain80, chain80_exact):
        plan = FaultPlan(
            seed=1,
            agent_faults=(AgentFault(kind="babbling", round_number=3, agents=(20,)),),
        )
        solution, result = ResilientLocalSolver(R=3, faults=plan).solve(chain80)
        cert = solution.degradation
        assert cert.statuses[20] == AGENT_FAILED
        assert solution.value_array()[20] == 0.0
        outside = np.setdiff1d(np.arange(chain80.num_agents), cert.ball)
        assert np.array_equal(solution.value_array()[outside], chain80_exact[outside])
        assert [e.kind for e in cert.events] == ["agent_babbling"]

    def test_silent_agent_degrades_to_safe_not_failed(self, chain80):
        plan = FaultPlan(
            seed=1,
            agent_faults=(
                AgentFault(kind="silent", round_number=7, agents=(30,), until_round=9),
            ),
        )
        solution, _ = ResilientLocalSolver(R=3, faults=plan).solve(chain80)
        cert = solution.degradation
        assert cert.statuses[30] == AGENT_SAFE
        assert cert.counts()["failed"] == 0
        assert solution.check_feasibility().feasible

    def test_certificate_as_dict_is_json_ready(self, chain80):
        import json

        plan = FaultPlan(
            seed=2,
            agent_faults=(AgentFault(kind="crash", round_number=1, agents=(0,)),),
        )
        solution, _ = ResilientLocalSolver(R=3, faults=plan).solve(chain80)
        payload = solution.degradation.as_dict()
        json.dumps(payload)
        assert payload["counts"]["failed"] == 1
        assert payload["events"][0]["kind"] == "agent_crash"
        assert "certificate:" in solution.degradation.summary()

    def test_status_of_unknown_agent_raises(self, chain80):
        solution, _ = ResilientLocalSolver(R=3).solve(chain80)
        with pytest.raises(SimulationError):
            solution.degradation.status_of("no-such-agent")
        with pytest.raises(SimulationError):
            solution.degradation.positions_with("broken")


# ----------------------------------------------------------------------
# Resilient safe baseline
# ----------------------------------------------------------------------
class TestResilientSafeSolver:
    def test_clean_run_matches_safe_protocol(self, chain80):
        base, _ = DistributedSafeSolver().solve(chain80)
        solution, _ = ResilientSafeSolver().solve(chain80)
        assert np.array_equal(solution.value_array(), base.value_array())
        assert solution.degradation.clean

    def test_lost_degree_degrades_receiver_only(self):
        inst = random_special_form_instance(num_agents=40, seed=3)
        base, _ = DistributedSafeSolver().solve(inst)
        plan = FaultPlan(
            seed=2,
            message_faults=(MessageFault(round_number=1, fraction=0.05, attempts=None),),
        )
        solution, result = ResilientSafeSolver(faults=plan).solve(inst)
        cert = solution.degradation
        assert cert.counts()["safe"] > 0
        values = solution.value_array()
        outside = np.setdiff1d(np.arange(inst.num_agents), cert.ball)
        assert np.array_equal(values[outside], base.value_array()[outside])
        # Degraded shares only shrink (Δ_I ≥ |V_i|), so feasibility holds.
        for pos in cert.positions_with("safe"):
            assert values[pos] <= base.value_array()[pos] + 1e-15
        assert solution.check_feasibility().feasible

    def test_crashed_agent_fails_with_zero(self, chain80):
        plan = FaultPlan(
            seed=0,
            agent_faults=(AgentFault(kind="crash", round_number=1, agents=(4,)),),
        )
        solution, _ = ResilientSafeSolver(faults=plan).solve(chain80)
        assert solution.degradation.statuses[4] == AGENT_FAILED
        assert solution.value_array()[4] == 0.0
        assert solution.check_feasibility().feasible

    def test_silent_agent_stays_exact(self, chain80):
        # Agents never send in the safe protocol; silence costs nothing.
        plan = FaultPlan(
            seed=0,
            agent_faults=(AgentFault(kind="silent", round_number=1, agents=(4,)),),
        )
        base, _ = DistributedSafeSolver().solve(chain80)
        solution, _ = ResilientSafeSolver(faults=plan).solve(chain80)
        assert solution.degradation.statuses[4] == AGENT_SAFE or (
            solution.degradation.statuses[4] == AGENT_EXACT
        )
        assert solution.check_feasibility().feasible


# ----------------------------------------------------------------------
# Satellite: stop_when_silent vs dropped rounds
# ----------------------------------------------------------------------
class _PingPongNode(ProtocolNode):
    """Echoes every received message forever; silent only when starved."""

    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        if round_number == 1:
            return {p: Message(1.0, phase="ping") for p in range(1, self.degree + 1)}
        return {p: Message(m.payload, phase="ping") for p, m in inbox.items()}


class TestQuietStopFix:
    def _run_dict(self, instance, faults=None):
        network = build_network(instance)
        runtime = SynchronousRuntime(network, faults=faults)
        return runtime.run(
            lambda net, node: _PingPongNode(node, net.local_input(node)),
            rounds=10,
            stop_when_silent=True,
        )

    def test_pingpong_never_stops_without_faults(self, chain80):
        assert self._run_dict(chain80).rounds == 10

    def test_all_dropped_round_does_not_fake_convergence(self, chain80):
        num_slots = MessagePlane(chain80).num_slots
        plan = FaultPlan(
            seed=0,
            message_faults=(MessageFault(round_number=2, fraction=1.0),),
        )
        result, seen = _counters(lambda: self._run_dict(chain80, faults=plan))
        # Round 3 is quiet only because round 2 was eaten; the stop is
        # suppressed once, then round 4's genuine silence ends the run.
        assert result.rounds == 4
        assert seen.get("runtime.suppressed_quiet_stops") == 1
        assert seen.get("faults.dropped_messages") == result.per_round[1].messages

    def test_vectorized_path_suppresses_identically(self, chain80):
        class _VecPingPong:
            def begin(self, plane):
                pass

            def compose(self, round_number, inbox_mask, inbox_values, plane):
                mask, values = plane.empty_round()
                if round_number == 1:
                    mask[:] = True
                    values[:] = 1.0
                else:
                    mask[:] = inbox_mask
                    values[:] = np.where(inbox_mask, inbox_values, 0.0)
                return mask, values

            def outputs(self, plane):
                return np.full(plane.num_agents, np.nan)

        plan = FaultPlan(
            seed=0,
            message_faults=(MessageFault(round_number=2, fraction=1.0),),
        )
        runtime = SynchronousRuntime(plane=MessagePlane(chain80), faults=plan)
        result, seen = _counters(
            lambda: runtime.run_vectorized(_VecPingPong(), 10, stop_when_silent=True)
        )
        assert result.rounds == 4
        assert seen.get("runtime.suppressed_quiet_stops") == 1


# ----------------------------------------------------------------------
# Satellite: dict-path fault injection + chaos equivalence
# ----------------------------------------------------------------------
class TestChaosEquivalence:
    def test_smoothing_drops_identical_on_both_paths(self):
        inst = cycle_instance(24, seed=4)
        plan = FaultPlan(
            seed=9,
            message_faults=(MessageFault(round_number=8, fraction=0.3),),
        )
        schedule = DistributedLocalSolver(R=3).schedule
        # Drive both through runtimes with the same plan (smoothing-phase
        # drops are non-fatal: the min-flood just converges differently).
        network = build_network(inst)
        from repro.distributed.agents import (
            VectorizedMaxMinProtocol,
            maxmin_node_factory,
        )

        rounds = schedule.total_rounds
        ref_rt = SynchronousRuntime(network, faults=plan)
        ref_result, ref_seen = _counters(
            lambda: ref_rt.run(maxmin_node_factory(schedule), rounds)
        )
        vec_rt = SynchronousRuntime(plane=MessagePlane(inst), faults=plan)
        vec_result, vec_seen = _counters(
            lambda: vec_rt.run_vectorized(
                VectorizedMaxMinProtocol(schedule), rounds
            )
        )
        assert ref_result.outputs == vec_result.outputs
        assert ref_seen.get("faults.dropped_messages") == vec_seen.get(
            "faults.dropped_messages"
        )
        assert [s.messages for s in ref_result.per_round] == [
            s.messages for s in vec_result.per_round
        ]

    def test_gphase_drop_raises_with_agent_and_port_on_both_paths(self):
        inst = cycle_instance(24, seed=4)
        schedule_rounds = DistributedLocalSolver(R=3).schedule
        plane = MessagePlane(inst)
        # Drop one objective→agent sibling sum.  The objective sends it in
        # round g_start+1; the agent's offset-2 round then starves.
        g_start = schedule_rounds.g_start
        target = int(plane.agent_obj_slots[3])
        victim_slot = int(plane.reverse[target])  # the objective's send slot
        kind, victim_agent, port = plane.slot_owner(target)
        assert kind == "agent"
        plan = FaultPlan(
            seed=0,
            message_faults=(
                MessageFault(round_number=g_start + 1, slots=(victim_slot,)),
            ),
        )
        from repro.distributed.agents import (
            VectorizedMaxMinProtocol,
            maxmin_node_factory,
        )

        vec_rt = SynchronousRuntime(plane=plane, faults=plan)
        with pytest.raises(SimulationError) as vec_err:
            vec_rt.run_vectorized(
                VectorizedMaxMinProtocol(schedule_rounds),
                schedule_rounds.total_rounds,
            )
        ref_rt = SynchronousRuntime(build_network(inst), faults=plan)
        with pytest.raises(SimulationError) as ref_err:
            ref_rt.run(maxmin_node_factory(schedule_rounds), schedule_rounds.total_rounds)
        # Both errors are diagnosable: they name the starved agent and a port.
        assert repr(victim_agent) in str(vec_err.value)
        assert "port" in str(vec_err.value)
        assert repr(victim_agent) in str(ref_err.value)
        assert "port" in str(ref_err.value)

    def test_safe_protocol_drop_names_agent_on_both_paths(self):
        inst = cycle_instance(16, seed=0)
        plane = MessagePlane(inst)
        target = int(plane.agent_con_slots[0])
        sender_slot = int(plane.reverse[target])
        _, victim_agent, _ = plane.slot_owner(target)
        plan = FaultPlan(
            seed=0,
            message_faults=(MessageFault(round_number=1, slots=(sender_slot,)),),
        )
        from repro.distributed.safe_agents import (
            SAFE_ALGORITHM_ROUNDS,
            VectorizedSafeProtocol,
            _safe_node_factory,
        )

        vec_rt = SynchronousRuntime(plane=plane, faults=plan)
        with pytest.raises(SimulationError) as vec_err:
            vec_rt.run_vectorized(VectorizedSafeProtocol(), SAFE_ALGORITHM_ROUNDS)
        ref_rt = SynchronousRuntime(build_network(inst), faults=plan)
        with pytest.raises(SimulationError) as ref_err:
            ref_rt.run(_safe_node_factory, SAFE_ALGORITHM_ROUNDS)
        assert repr(victim_agent) in str(vec_err.value)
        assert repr(victim_agent) in str(ref_err.value)

    def test_slot_owner_roundtrip(self):
        inst = cycle_instance(12, seed=0)
        plane = MessagePlane(inst)
        kinds = set()
        for slot in range(plane.num_slots):
            kind, node, port = plane.slot_owner(slot)
            kinds.add(kind)
            assert port >= 1
            assert "->" in plane.describe_slot(slot)
        assert kinds == {"agent", "constraint", "objective"}
        with pytest.raises(ValueError):
            plane.slot_owner(plane.num_slots)


# ----------------------------------------------------------------------
# Satellite: hypothesis soundness property of the certificate
# ----------------------------------------------------------------------
@st.composite
def fault_plans(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    message_faults = ()
    if draw(st.booleans()):
        message_faults = (
            MessageFault(
                round_number=draw(st.integers(min_value=1, max_value=19)),
                fraction=draw(
                    st.floats(min_value=0.0, max_value=0.15, allow_nan=False)
                ),
                attempts=draw(st.sampled_from([(0,), (0, 1), None])),
            ),
        )
    agent_faults = ()
    if draw(st.booleans()):
        agent_faults = (
            AgentFault(
                kind=draw(st.sampled_from(["crash", "silent", "babbling"])),
                round_number=draw(st.integers(min_value=1, max_value=19)),
                agents=tuple(
                    draw(
                        st.lists(
                            st.integers(min_value=0, max_value=35),
                            max_size=3,
                            unique=True,
                        )
                    )
                ),
            ),
        )
    return FaultPlan(seed=seed, message_faults=message_faults, agent_faults=agent_faults)


class TestDegradationSoundness:
    INSTANCE = cycle_instance(36, seed=2)
    EXACT = DistributedLocalSolver(R=3).solve(INSTANCE)[0].value_array()

    @settings(max_examples=20, deadline=None)
    @given(plan=fault_plans())
    def test_certificate_is_sound(self, plan):
        solution, result = ResilientLocalSolver(
            R=3, faults=plan, retransmit_budget=1
        ).solve(self.INSTANCE)
        cert = solution.degradation
        values = solution.value_array()
        # 1. exact agents are bitwise-identical to the fault-free run
        exact_pos = cert.positions_with("exact")
        assert np.array_equal(values[exact_pos], self.EXACT[exact_pos])
        # 2. the whole mixed solution is feasible on the original instance
        report = solution.check_feasibility()
        assert report.feasible, report
        # 3. failed agents contribute nothing
        assert (values[cert.positions_with("failed")] == 0.0).all()
        # 4. the certificate partitions the agents
        counts = cert.counts()
        assert len(exact_pos) + counts["safe"] + counts["failed"] == self.INSTANCE.num_agents
