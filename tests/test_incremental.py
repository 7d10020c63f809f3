"""Incremental re-solve: delta-edited compiles, confined kernels, dynamics.

The contracts pinned here:

* ``CompiledDelta.apply()`` produces an instance/compile **bitwise identical**
  (all thirteen CSR arrays, digest, hash) to declaring the edited instance
  from scratch — checked by hand-written cases and a hypothesis sweep over
  random edit scripts;
* ``IncrementalSolveState.apply_delta`` matches a from-scratch vectorized
  solve bit for bit on every family × R, and a locality spy confirms the
  kernels only touch the dirty r-ball;
* ``DynamicNetwork`` streams churn with the verify oracle on, and the CLI
  ``dynamics`` command runs end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs, oracle
from repro.algo.kernels import agent_hop_balls
from repro.algo.local_solver import IncrementalSolveState, SpecialFormLocalSolver
from repro.cli import main
from repro.core.compiled import CompiledInstance
from repro.core.instance import MaxMinInstance
from repro.core.preprocess import preprocess
from repro.distributed.dynamics import (
    DynamicNetwork,
    changed_agent_positions,
    changed_sites,
    local_horizon_radius,
    random_churn_delta,
)
from repro.exceptions import SimulationError
from repro.generators import (
    cycle_instance,
    objective_ring_instance,
    random_special_form_instance,
)
from repro.generators.regular import regular_special_form_instance
from repro.io.serialization import instance_digest

@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test leaves tracing disabled and the counter buffer empty."""
    yield
    obs.configure(enabled=False)
    obs.reset()


COMPILED_ARRAYS = (
    "con_indptr",
    "con_indices",
    "con_coeff",
    "obj_indptr",
    "obj_indices",
    "obj_coeff",
    "cagents_indptr",
    "cagents_indices",
    "cagents_coeff",
    "oagents_indptr",
    "oagents_indices",
    "oagents_coeff",
    "capacity",
)


def assert_compiles_identical(a: CompiledInstance, b: CompiledInstance) -> None:
    """All thirteen derived arrays bitwise equal, with matching dtypes."""
    for attr in COMPILED_ARRAYS:
        left, right = getattr(a, attr), getattr(b, attr)
        assert left.dtype == right.dtype, attr
        assert np.array_equal(left, right), attr
    assert a.agents == b.agents
    assert a.constraints == b.constraints
    assert a.objectives == b.objectives


def assert_delta_matches_fresh(result, expected: MaxMinInstance) -> None:
    assert result.instance == expected
    assert hash(result.instance) == hash(expected)
    assert instance_digest(result.instance) == instance_digest(expected)
    assert_compiles_identical(result.compiled, expected.compiled())


# ----------------------------------------------------------------------
# MaxMinInstance.from_arrays / CompiledInstance.from_arrays
# ----------------------------------------------------------------------


class TestFromArrays:
    def test_round_trip_equals_declared_instance(self):
        inst = random_special_form_instance(30, seed=2)
        comp = inst.compiled()
        rebuilt = MaxMinInstance.from_arrays(
            inst.agents,
            inst.constraints,
            inst.objectives,
            comp.con_indptr,
            comp.con_indices,
            comp.con_coeff,
            comp.obj_indptr,
            comp.obj_indices,
            comp.obj_coeff,
            name=inst.name,
        )
        assert rebuilt == inst
        assert hash(rebuilt) == hash(inst)
        assert instance_digest(rebuilt) == instance_digest(inst)
        assert_compiles_identical(rebuilt.compiled(), comp)

    def test_adjacency_queries_match(self):
        inst = random_special_form_instance(20, seed=4)
        comp = inst.compiled()
        rebuilt = MaxMinInstance.from_arrays(
            inst.agents,
            inst.constraints,
            inst.objectives,
            comp.con_indptr,
            comp.con_indices,
            comp.con_coeff,
            comp.obj_indptr,
            comp.obj_indices,
            comp.obj_coeff,
            name=inst.name,
        )
        for v in inst.agents:
            assert rebuilt.constraints_of_agent(v) == inst.constraints_of_agent(v)
            assert rebuilt.objectives_of_agent(v) == inst.objectives_of_agent(v)
        for i in inst.constraints:
            assert rebuilt.agents_of_constraint(i) == inst.agents_of_constraint(i)
        assert rebuilt.a_coefficients == inst.a_coefficients
        assert rebuilt.c_coefficients == inst.c_coefficients


# ----------------------------------------------------------------------
# CompiledDelta — hand-written cases
# ----------------------------------------------------------------------


class TestCompiledDelta:
    def test_identity_delta(self):
        inst = random_special_form_instance(12, seed=0)
        result = inst.compiled().delta().apply()
        assert result.identity
        assert result.instance is inst
        assert len(result.dirty_agents) == 0

    def test_coefficient_edit_bitwise(self):
        inst = random_special_form_instance(24, seed=1)
        i = inst.constraints[3]
        v = inst.agents_of_constraint(i)[0]
        delta = inst.compiled().delta()
        delta.set_constraint_coefficient(i, v, 2.5)
        result = delta.apply()
        assert not result.structural

        a = dict(inst.a_coefficients)
        a[(i, v)] = 2.5
        expected = MaxMinInstance(
            inst.agents, inst.constraints, inst.objectives, a, inst.c_coefficients, name=inst.name
        )
        assert_delta_matches_fresh(result, expected)
        # both members of the edited constraint are dirty
        dirty_ids = {result.instance.agents[int(p)] for p in result.dirty_agents}
        assert set(inst.agents_of_constraint(i)) <= dirty_ids

    def test_structural_edit_bitwise(self):
        inst = regular_special_form_instance(6, 3, seed=7)
        delta = inst.compiled().delta()
        anchor = inst.agents[1]
        k = inst.objectives_of_agent(anchor)[0]
        delta.add_agent("~x")
        delta.set_objective_coefficient(k, "~x", 1.0)
        delta.set_constraint_coefficient("~i", "~x", 1.0)
        delta.set_constraint_coefficient("~i", anchor, 1.0)
        result = delta.apply()
        assert result.structural

        a = dict(inst.a_coefficients)
        a[("~i", "~x")] = 1.0
        a[("~i", anchor)] = 1.0
        c = dict(inst.c_coefficients)
        c[(k, "~x")] = 1.0
        expected = MaxMinInstance(
            list(inst.agents) + ["~x"],
            list(inst.constraints) + ["~i"],
            inst.objectives,
            a,
            c,
            name=inst.name,
        )
        assert_delta_matches_fresh(result, expected)

    def test_remove_agent_and_constraints(self):
        inst = regular_special_form_instance(8, 3, seed=5)
        victim = next(
            v
            for v in inst.agents
            if len(inst.agents_of_objective(inst.objectives_of_agent(v)[0])) >= 3
        )
        delta = inst.compiled().delta()
        doomed = inst.constraints_of_agent(victim)
        for i in doomed:
            delta.remove_constraint(i)
        delta.remove_agent(victim)
        result = delta.apply()

        a = {key: val for key, val in inst.a_coefficients.items() if key[0] not in doomed}
        c = {key: val for key, val in inst.c_coefficients.items() if key[1] != victim}
        expected = MaxMinInstance(
            [v for v in inst.agents if v != victim],
            [i for i in inst.constraints if i not in doomed],
            inst.objectives,
            a,
            c,
            name=inst.name,
        )
        assert_delta_matches_fresh(result, expected)

    def test_edit_errors(self):
        inst = random_special_form_instance(12, seed=3)
        delta = inst.compiled().delta()
        with pytest.raises(Exception):
            delta.set_constraint_coefficient(inst.constraints[0], inst.agents[0], -1.0)
        with pytest.raises(Exception):
            delta.add_agent(inst.agents[0])
        with pytest.raises(Exception):
            delta.remove_constraint_edge(inst.constraints[0], "no-such-agent")


# ----------------------------------------------------------------------
# CompiledDelta — hypothesis sweep over random edit scripts
# ----------------------------------------------------------------------


@st.composite
def delta_scripts(draw):
    """A base instance plus an edit script mirrored into expected dicts.

    The script is applied twice in the test: once through
    :class:`CompiledDelta` and once to plain agent/constraint/objective
    lists + coefficient dicts, which then declare the expected instance via
    ``MaxMinInstance.__init__``.  New nodes are appended after the
    survivors, matching the delta's documented ordering.
    """
    base = random_special_form_instance(draw(st.integers(8, 24)), seed=draw(st.integers(0, 4)))
    agents = list(base.agents)
    cons = list(base.constraints)
    objs = list(base.objectives)
    a = dict(base.a_coefficients)
    c = dict(base.c_coefficients)
    base_agents = set(agents)
    base_cons = set(cons)
    base_objs = set(objs)
    ops = []
    fresh = 0
    for _ in range(draw(st.integers(1, 10))):
        kinds = ["set_a", "set_c", "add_agent", "new_con_edge"]
        if a:
            kinds.append("del_a_edge")
        if c:
            kinds.append("del_c_edge")
        removable_cons = [i for i in cons if i in base_cons]
        if removable_cons:
            kinds.append("del_con")
        removable_objs = [k for k in objs if k in base_objs]
        if removable_objs:
            kinds.append("del_obj")
        removable_agents = [v for v in agents if v in base_agents]
        if len(removable_agents) > 2:
            kinds.append("del_agent")
        kind = draw(st.sampled_from(sorted(set(kinds))))
        coeff = draw(st.floats(min_value=0.1, max_value=4.0, allow_nan=False))

        if kind == "set_a":
            i = draw(st.sampled_from(cons)) if cons else None
            if i is None:
                continue
            v = draw(st.sampled_from(agents))
            ops.append(("set_a", i, v, coeff))
            a[(i, v)] = coeff
        elif kind == "new_con_edge":
            i = f"+con{fresh}"
            fresh += 1
            v = draw(st.sampled_from(agents))
            cons.append(i)
            ops.append(("set_a", i, v, coeff))
            a[(i, v)] = coeff
        elif kind == "set_c":
            k = draw(st.sampled_from(objs)) if objs else None
            if k is None:
                continue
            v = draw(st.sampled_from(agents))
            ops.append(("set_c", k, v, coeff))
            c[(k, v)] = coeff
        elif kind == "add_agent":
            v = f"+agent{fresh}"
            fresh += 1
            agents.append(v)
            ops.append(("add_agent", v))
            if cons:
                i = draw(st.sampled_from(cons))
                ops.append(("set_a", i, v, coeff))
                a[(i, v)] = coeff
        elif kind == "del_a_edge":
            key = draw(st.sampled_from(sorted(a)))
            ops.append(("del_a_edge", key[0], key[1]))
            del a[key]
        elif kind == "del_c_edge":
            key = draw(st.sampled_from(sorted(c)))
            ops.append(("del_c_edge", key[0], key[1]))
            del c[key]
        elif kind == "del_con":
            i = draw(st.sampled_from(removable_cons))
            ops.append(("del_con", i))
            cons.remove(i)
            for key in [key for key in a if key[0] == i]:
                del a[key]
        elif kind == "del_obj":
            k = draw(st.sampled_from(removable_objs))
            ops.append(("del_obj", k))
            objs.remove(k)
            for key in [key for key in c if key[0] == k]:
                del c[key]
        elif kind == "del_agent":
            v = draw(st.sampled_from(removable_agents))
            ops.append(("del_agent", v))
            agents.remove(v)
            for key in [key for key in a if key[1] == v]:
                del a[key]
            for key in [key for key in c if key[1] == v]:
                del c[key]
    return base, ops, agents, cons, objs, a, c


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(delta_scripts())
def test_random_edit_scripts_bitwise_identical(script):
    base, ops, agents, cons, objs, a, c = script
    delta = base.compiled().delta()
    for op in ops:
        if op[0] == "set_a":
            delta.set_constraint_coefficient(op[1], op[2], op[3])
        elif op[0] == "set_c":
            delta.set_objective_coefficient(op[1], op[2], op[3])
        elif op[0] == "add_agent":
            delta.add_agent(op[1])
        elif op[0] == "del_a_edge":
            delta.remove_constraint_edge(op[1], op[2])
        elif op[0] == "del_c_edge":
            delta.remove_objective_edge(op[1], op[2])
        elif op[0] == "del_con":
            delta.remove_constraint(op[1])
        elif op[0] == "del_obj":
            delta.remove_objective(op[1])
        elif op[0] == "del_agent":
            delta.remove_agent(op[1])
    result = delta.apply()
    expected = MaxMinInstance(agents, cons, objs, a, c, name=base.name)
    assert_delta_matches_fresh(result, expected)


# ----------------------------------------------------------------------
# Incremental solve parity + locality spy
# ----------------------------------------------------------------------

FAMILIES = [
    lambda: random_special_form_instance(40, seed=6),
    lambda: cycle_instance(24, seed=0),
    lambda: objective_ring_instance(8, 3),
    # Larger instances, at R = 3 only.
    lambda: cycle_instance(100, seed=0),
    lambda: random_special_form_instance(80, seed=0),
]

KERNEL_ARRAYS = ("t", "s", "x", "g_plus", "g_minus")


@pytest.mark.parametrize(
    "R,family_index",
    [pytest.param(R, index, id=f"{R}-{index}") for R in (2, 3, 5) for index in range(3)]
    + [pytest.param(3, index, id=f"3-{index}") for index in range(3, len(FAMILIES))],
)
def test_incremental_matches_scratch_solve(family_index, R):
    inst = FAMILIES[family_index]()
    solver = SpecialFormLocalSolver(R)
    state = IncrementalSolveState(solver, inst)
    rng = np.random.default_rng(100 * family_index + R)
    for _ in range(4):
        delta = random_churn_delta(state.instance, rng, edits=2, structural_prob=0.4)
        state.apply_delta(delta.apply())
        fresh = IncrementalSolveState(solver, state.instance)
        for attr in KERNEL_ARRAYS:
            assert np.array_equal(getattr(state, attr), getattr(fresh, attr)), attr


def test_incremental_solve_locality_spy():
    """No kernel work outside the dirty r-ball.

    The spy reads the kernel counters: tree construction must run on
    exactly the ``2r+1``-ball of the dirty seeds, smoothing and the ``g``
    recursion on exactly the ``6r+3``-ball — never on all ``n`` agents.
    """
    inst = cycle_instance(60, seed=1)
    solver = SpecialFormLocalSolver(3)
    r = solver.r
    state = IncrementalSolveState(solver, inst)

    i = inst.constraints[10]
    v = inst.agents_of_constraint(i)[0]
    delta = state.comp.delta()
    delta.set_constraint_coefficient(i, v, 1.7)
    result = delta.apply()

    t_ball, out_ball = agent_hop_balls(
        result.compiled, result.dirty_agents, [2 * r + 1, 6 * r + 3]
    )
    assert len(out_ball) < state.comp.num_agents  # the spy has something to see

    prior = obs.enabled()
    obs.configure(enabled=True)
    try:
        mark = obs.counters_mark()
        recomputed = state.apply_delta(result)
        seen = obs.counters_since(mark)
    finally:
        obs.configure(enabled=prior)

    assert np.array_equal(recomputed, out_ball)
    assert seen.get("kernels.trees_total") == len(t_ball)
    assert seen.get("kernels.confined_smooth_rows") == len(out_ball)
    assert seen.get("kernels.confined_g_columns") == len(out_ball)
    assert seen.get("solver.incremental_recomputed") == len(out_ball)
    assert seen.get("solver.incremental_reused") == state.comp.num_agents - len(out_ball)

    # the recomputed region stays within the paper's locality horizon:
    # 6r+3 smoothing hops == local_horizon_radius(R) graph edges
    assert 2 * (6 * r + 3) == local_horizon_radius(solver.R)


def test_incremental_state_rejects_foreign_delta():
    inst_a = cycle_instance(12, seed=0)
    inst_b = cycle_instance(14, seed=0)
    solver = SpecialFormLocalSolver(3)
    state = IncrementalSolveState(solver, inst_a)
    delta = inst_b.compiled().delta()
    i = inst_b.constraints[0]
    v = inst_b.agents_of_constraint(i)[0]
    delta.set_constraint_coefficient(i, v, 1.5)
    with pytest.raises(Exception):
        state.apply_delta(delta.apply())


# ----------------------------------------------------------------------
# changed_sites / changed_agent_positions
# ----------------------------------------------------------------------


class TestChangedSites:
    def test_equal_topology_coefficient_change(self):
        inst = random_special_form_instance(20, seed=8)
        delta = inst.compiled().delta()
        i = inst.constraints[2]
        v = inst.agents_of_constraint(i)[1]
        delta.set_constraint_coefficient(i, v, 3.0)
        after = delta.apply().instance

        positions = changed_agent_positions(inst, after)
        sites = changed_sites(inst, after)
        assert {after.agents[int(p)] for p in positions} == {nid for _, nid in sites}
        assert v in {after.agents[int(p)] for p in positions}

    def test_membership_change(self):
        inst = regular_special_form_instance(6, 3, seed=2)
        delta = inst.compiled().delta()
        i = inst.constraints[0]
        v = inst.agents_of_constraint(i)[0]
        delta.remove_constraint_edge(i, v)
        after = delta.apply().instance

        positions = changed_agent_positions(inst, after)
        assert v in {after.agents[int(p)] for p in positions}

    def test_node_set_change_falls_back(self):
        inst = regular_special_form_instance(6, 3, seed=3)
        delta = inst.compiled().delta()
        anchor = inst.agents[0]
        k = inst.objectives_of_agent(anchor)[0]
        delta.add_agent("~y")
        delta.set_objective_coefficient(k, "~y", 1.0)
        delta.set_constraint_coefficient("~j", "~y", 1.0)
        delta.set_constraint_coefficient("~j", anchor, 1.0)
        after = delta.apply().instance

        ids = {after.agents[int(p)] for p in changed_agent_positions(inst, after)}
        assert "~y" in ids and anchor in ids

    def test_identical_instances(self):
        inst = cycle_instance(10, seed=0)
        assert len(changed_agent_positions(inst, inst)) == 0
        with pytest.raises(SimulationError):
            from repro.distributed.dynamics import measure_change_impact

            measure_change_impact(inst, inst, lambda x: None, 6)


# ----------------------------------------------------------------------
# DynamicNetwork streaming workload
# ----------------------------------------------------------------------


class TestDynamicNetwork:
    def test_verified_tick_loop(self):
        for instance in (random_special_form_instance(30, seed=12), cycle_instance(100, seed=0)):
            net = DynamicNetwork(instance, R=3, verify=True)
            rng = np.random.default_rng(0)
            for expected_tick in range(1, 6):
                tick = net.random_tick(rng, edits=2, structural_prob=0.4)
                assert tick.tick == expected_tick
                assert tick.max_error == 0.0  # bitwise, not just 1e-9
                assert tick.is_local
                assert tick.reused_agents == tick.num_agents - len(tick.recomputed_agents)
            assert net.ticks == 5

    def test_structural_churn_keeps_special_form(self):
        net = DynamicNetwork(regular_special_form_instance(8, 3, seed=1), R=2)
        rng = np.random.default_rng(7)
        for _ in range(6):
            net.random_tick(rng, edits=1, structural_prob=1.0)
        assert net.instance.is_special_form()

    def test_explicit_delta_and_counters(self):
        net = DynamicNetwork(cycle_instance(30, seed=2), R=3)
        delta = net.begin_delta()
        inst = net.instance
        i = inst.constraints[4]
        v = inst.agents_of_constraint(i)[0]
        delta.set_constraint_coefficient(i, v, 1.9)

        prior = obs.enabled()
        obs.configure(enabled=True)
        try:
            mark = obs.counters_mark()
            tick = net.apply(delta)
            seen = obs.counters_since(mark)
        finally:
            obs.configure(enabled=prior)

        assert seen.get("dynamics.ticks") == 1
        assert seen.get("dynamics.dirty_agents") == len(tick.dirty_agents)
        assert seen.get("dynamics.reused_agents") == tick.reused_agents
        assert seen.get("compiled.delta_edits") == 1

    def test_solution_matches_scratch_solver(self):
        net = DynamicNetwork(objective_ring_instance(8, 3), R=3)
        rng = np.random.default_rng(5)
        for _ in range(3):
            net.random_tick(rng, edits=1, structural_prob=0.0)
        fresh = SpecialFormLocalSolver(3).solve(net.instance).solution
        streamed = net.solution
        for v in net.instance.agents:
            assert streamed[v] == pytest.approx(fresh[v], abs=1e-9)


# ----------------------------------------------------------------------
# Preprocess array-level materialisation
# ----------------------------------------------------------------------


def test_preprocess_array_materialisation_matches_sub_instance():
    agents = ["a", "b", "c", "d", "e"]
    cons = ["i1", "i2", "i3"]
    objs = ["k1", "k2", "k3"]
    a = {("i1", "a"): 1.0, ("i1", "b"): 2.0, ("i2", "b"): 1.0, ("i2", "c"): 1.0}
    c = {
        ("k1", "a"): 1.0,
        ("k1", "b"): 1.0,
        ("k2", "c"): 1.0,
        ("k2", "d"): 1.0,
        ("k3", "e"): 1.0,
    }
    inst = MaxMinInstance(agents, cons, objs, a, c, name="degen")
    pre = preprocess(inst)
    ref = oracle.preprocess(inst)
    assert pre.instance == ref.instance
    assert instance_digest(pre.instance) == instance_digest(ref.instance)
    sub = inst.sub_instance(
        list(pre.instance.agents),
        list(pre.instance.constraints),
        list(pre.instance.objectives),
        name=pre.instance.name,
    )
    assert pre.instance == sub
    assert hash(pre.instance) == hash(sub)
    assert instance_digest(pre.instance) == instance_digest(sub)
    assert_compiles_identical(pre.instance.compiled(), sub.compiled())


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestDynamicsCli:
    def test_smoke(self, capsys):
        assert (
            main(
                [
                    "dynamics",
                    "special-form",
                    "--size",
                    "24",
                    "--ticks",
                    "3",
                    "--churn",
                    "1",
                    "--seed",
                    "0",
                    "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ticks: 3" in out
        assert "verified bitwise + local" in out

    def test_rejects_non_special_form(self, capsys):
        assert main(["dynamics", "random", "--size", "12", "--ticks", "1"]) == 2
        assert "special form" in capsys.readouterr().err
