"""Unit tests for :mod:`repro.core.instance`."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import oracle
from repro._types import NodeType, agent_node, constraint_node, objective_node
from repro.core.builder import InstanceBuilder
from repro.core.instance import MaxMinInstance
from repro.exceptions import InvalidInstanceError
from repro.generators import cycle_instance, objective_ring_instance, random_instance
from repro.io.serialization import instance_digest

from conftest import (
    build_degenerate_instance,
    build_general_instance,
    build_tiny_instance,
    general_family,
    special_form_family,
    spy_view_builds,
)


class TestConstruction:
    def test_basic_counts(self, tiny_instance):
        assert tiny_instance.num_agents == 2
        assert tiny_instance.num_constraints == 1
        assert tiny_instance.num_objectives == 1
        assert tiny_instance.num_nodes == 4
        assert tiny_instance.num_edges == 4

    def test_duplicate_agent_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a", "a"], [], [], {}, {})

    def test_duplicate_constraint_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], ["i", "i"], [], {}, {})

    def test_duplicate_objective_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], [], ["k", "k"], {}, {})

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], ["i"], ["k"], {("i", "a"): 0.0}, {("k", "a"): 1.0})
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], ["i"], ["k"], {("i", "a"): 1.0}, {("k", "a"): -2.0})

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], ["i"], ["k"], {("i", "a"): math.inf}, {("k", "a"): 1.0})

    def test_unknown_node_in_coefficient_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], ["i"], ["k"], {("i", "zzz"): 1.0}, {})
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], ["i"], ["k"], {("nope", "a"): 1.0}, {})
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(["a"], ["i"], ["k"], {}, {("nope", "a"): 1.0})


class TestAccessors:
    def test_coefficient_lookup(self, general_instance):
        assert general_instance.a("i0", "v1") == 2.0
        assert general_instance.a("i0", "v3") == 0.0
        assert general_instance.c("k1", "v1") == 2.0
        assert general_instance.c("k1", "v4") == 0.0

    def test_adjacency(self, general_instance):
        assert set(general_instance.agents_of_constraint("i0")) == {"v0", "v1", "v2"}
        assert set(general_instance.constraints_of_agent("v2")) == {"i0", "i2"}
        assert set(general_instance.objectives_of_agent("v2")) == {"k1", "k2"}
        assert set(general_instance.agents_of_objective("k0")) == {"v0", "v3"}

    def test_adjacency_unknown_node_raises(self, general_instance):
        with pytest.raises(InvalidInstanceError):
            general_instance.agents_of_constraint("nope")
        with pytest.raises(InvalidInstanceError):
            general_instance.constraints_of_agent("nope")

    def test_other_agent(self, tiny_instance):
        assert tiny_instance.other_agent("i1", "a") == "b"
        assert tiny_instance.other_agent("i1", "b") == "a"

    def test_other_agent_requires_degree_two(self, general_instance):
        with pytest.raises(InvalidInstanceError):
            general_instance.other_agent("i0", "v0")

    def test_other_agent_requires_membership(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            MaxMinInstance(
                ["a", "b", "c"],
                ["i"],
                ["k"],
                {("i", "a"): 1.0, ("i", "b"): 1.0},
                {("k", "c"): 1.0},
            ).other_agent("i", "c")

    def test_unique_objective(self, tiny_instance, general_instance):
        assert tiny_instance.unique_objective("a") == "k1"
        with pytest.raises(InvalidInstanceError):
            general_instance.unique_objective("v2")

    def test_objective_siblings(self, tiny_instance):
        assert tiny_instance.objective_siblings("a") == ("b",)

    def test_agent_capacity(self, general_instance):
        # v1 appears in i0 (coeff 2) and i1 (coeff 1): capacity = min(1/2, 1/1).
        assert general_instance.agent_capacity("v1") == pytest.approx(0.5)

    def test_capacity_unconstrained_is_infinite(self):
        inst = MaxMinInstance(["a"], [], ["k"], {}, {("k", "a"): 1.0})
        assert math.isinf(inst.agent_capacity("a"))

    def test_trivial_upper_bound(self, tiny_instance):
        assert tiny_instance.trivial_upper_bound() == pytest.approx(2.0)

    def test_membership_predicates(self, tiny_instance):
        assert tiny_instance.has_agent("a")
        assert not tiny_instance.has_agent("i1")
        assert tiny_instance.has_constraint("i1")
        assert tiny_instance.has_objective("k1")


class TestDegreesAndPredicates:
    def test_delta_values(self, general_instance):
        assert general_instance.delta_I == 3
        assert general_instance.delta_K == 2

    def test_delta_empty(self):
        inst = MaxMinInstance(["a"], [], [], {}, {})
        assert inst.delta_I == 0
        assert inst.delta_K == 0

    def test_degree_statistics(self, general_instance):
        stats = general_instance.degree_statistics()
        assert stats.delta_I == 3
        assert stats.delta_K == 2
        assert stats.max_agent_constraint_degree == 2
        assert stats.max_agent_objective_degree == 2
        assert stats.as_dict()["delta_I"] == 3

    def test_special_form_detection(self, tiny_instance, general_instance, unit_cycle):
        assert tiny_instance.is_special_form()
        assert unit_cycle.is_special_form()
        assert not general_instance.is_special_form()
        assert general_instance.special_form_violations()

    def test_zero_one_detection(self, unit_cycle, special_form_cycle):
        assert unit_cycle.has_zero_one_coefficients()
        assert not special_form_cycle.has_zero_one_coefficients()

    def test_bipartite_detection(self, unit_cycle, general_instance):
        assert unit_cycle.is_bipartite_maxmin()
        assert not general_instance.is_bipartite_maxmin()

    def test_degeneracies(self, degenerate_instance, tiny_instance):
        assert not tiny_instance.is_degenerate()
        cats = degenerate_instance.degeneracies()
        assert "isolated_constraints" in cats
        assert "isolated_objectives" in cats
        assert "non_contributing_agents" in cats
        assert "unconstrained_agents" in cats


class TestGraphViews:
    def test_communication_graph(self, tiny_instance):
        graph = tiny_instance.communication_graph()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 4
        assert graph.nodes[agent_node("a")]["kind"] is NodeType.AGENT
        assert graph.edges[constraint_node("i1"), agent_node("a")]["coeff"] == 1.0

    def test_neighbours(self, tiny_instance):
        assert set(tiny_instance.neighbours(agent_node("a"))) == {
            constraint_node("i1"),
            objective_node("k1"),
        }
        assert set(tiny_instance.neighbours(constraint_node("i1"))) == {
            agent_node("a"),
            agent_node("b"),
        }
        assert set(tiny_instance.neighbours(objective_node("k1"))) == {
            agent_node("a"),
            agent_node("b"),
        }

    def test_connectivity(self, tiny_instance):
        assert tiny_instance.is_connected()
        two = MaxMinInstance(
            ["a", "b"],
            ["i1", "i2"],
            ["k1", "k2"],
            {("i1", "a"): 1.0, ("i2", "b"): 1.0},
            {("k1", "a"): 1.0, ("k2", "b"): 1.0},
        )
        assert not two.is_connected()
        components = two.connected_components()
        assert len(components) == 2
        assert {c.num_agents for c in components} == {1}

    def test_sub_instance(self, general_instance):
        sub = general_instance.sub_instance(["v0", "v1"], ["i0"], ["k0"])
        assert sub.num_agents == 2
        assert sub.num_constraints == 1
        assert sub.a("i0", "v0") == 1.0
        assert sub.a("i0", "v2") == 0.0  # dropped agent


def connected_per_networkx(instance: MaxMinInstance) -> bool:
    """The oracle: networkx's verdict on the instance's communication graph."""
    import networkx as nx

    return nx.is_connected(instance.communication_graph())


@st.composite
def disjoint_blocks(draw):
    """One to four blocks of random edges on disjoint nodes, plus optional
    agent-less constraints and objectives: mostly disconnected instances."""
    builder = InstanceBuilder(name="blocks")
    for b in range(draw(st.integers(min_value=1, max_value=4))):
        agents = [f"b{b}v{j}" for j in range(draw(st.integers(min_value=1, max_value=5)))]
        for v in agents:
            builder.add_agent(v)
        edges = draw(
            st.sets(
                st.tuples(
                    st.sampled_from("ik"), st.integers(0, 2), st.sampled_from(agents)
                ),
                max_size=8,
            )
        )
        for kind, row, v in sorted(edges):
            if kind == "i":
                builder.add_constraint_term(f"b{b}i{row}", v, 1.0)
            else:
                builder.add_objective_term(f"b{b}k{row}", v, 1.0)
    for j in range(draw(st.integers(min_value=0, max_value=2))):
        builder.add_constraint(f"lone-i{j}")
    for j in range(draw(st.integers(min_value=0, max_value=2))):
        builder.add_objective(f"lone-k{j}")
    return builder.build()


class TestConnectivity:
    """``is_connected`` reads the CSR arrays and agrees with networkx."""

    @pytest.mark.parametrize(
        "instance",
        general_family()
        + special_form_family()
        + [
            build_degenerate_instance(),
            random_instance(60, delta_I=2, delta_K=2, seed=4),
            cycle_instance(50),
            objective_ring_instance(6, 3),
        ],
        ids=lambda instance: instance.name,
    )
    def test_matches_networkx_on_generator_families(self, instance):
        assert instance.is_connected() == connected_per_networkx(instance)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(disjoint_blocks())
    def test_matches_networkx_on_drawn_components(self, instance):
        assert instance.is_connected() == connected_per_networkx(instance)

    def test_agentless_nodes(self):
        lone = InstanceBuilder(name="lone")
        lone.add_constraint("i")
        assert lone.build().is_connected() == connected_per_networkx(lone.build()) is True
        lone.add_objective("k")
        assert lone.build().is_connected() == connected_per_networkx(lone.build()) is False
        degenerate = build_degenerate_instance()
        assert degenerate.is_connected() is connected_per_networkx(degenerate) is False

    def test_empty_instance_is_connected(self):
        assert MaxMinInstance([], [], [], {}, {}).is_connected() is True

    def test_builds_no_graph(self):
        instance = random_instance(40, delta_I=3, delta_K=3, seed=3)
        assert instance.is_connected() is instance.is_connected()
        assert instance._graph_cache is None


class TestEqualityAndSerialization:
    def test_equality_and_hash(self):
        first = build_tiny_instance()
        second = build_tiny_instance()
        assert first == second
        assert hash(first) == hash(second)
        assert first != build_general_instance()
        assert first != "not an instance"

    def test_structural_equality_with_tolerance(self, tiny_instance):
        perturbed = MaxMinInstance(
            tiny_instance.agents,
            tiny_instance.constraints,
            tiny_instance.objectives,
            {key: val + 1e-12 for key, val in tiny_instance.a_coefficients.items()},
            tiny_instance.c_coefficients,
        )
        assert tiny_instance.structurally_equal(perturbed, tol=1e-9)
        assert not tiny_instance.structurally_equal(perturbed, tol=0.0)

    def test_repr(self, general_instance):
        text = repr(general_instance)
        assert "MaxMinInstance" in text and "deltaI=3" in text


# ----------------------------------------------------------------------
# One representation: dict declarations lowered to the checked CSR arrays
# ----------------------------------------------------------------------
def assert_matches_lowering(instance: MaxMinInstance, ref: dict) -> None:
    """Every compiled array (values and dtype), view and digest input agree."""
    comp = instance.compiled()
    arrays = [name for name, value in ref.items() if isinstance(value, np.ndarray)]
    assert len(arrays) == 13
    for attr in arrays:
        got, want = getattr(comp, attr), ref[attr]
        assert got.dtype == want.dtype, attr
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), attr
    for v in instance.agents:
        assert instance.constraints_of_agent(v) == ref["constraints_of_agent"][v]
        assert instance.objectives_of_agent(v) == ref["objectives_of_agent"][v]
    for i in instance.constraints:
        assert instance.agents_of_constraint(i) == ref["agents_of_constraint"][i]
    for k in instance.objectives:
        assert instance.agents_of_objective(k) == ref["agents_of_objective"][k]
    for got, want in ((instance.a_coefficients, ref["a"]), (instance.c_coefficients, ref["c"])):
        assert got == want
        # The digest and hash inputs: items sorted by repr, key objects included.
        assert repr(sorted(got.items(), key=repr)) == repr(sorted(want.items(), key=repr))
    assert hash(instance) == hash(
        (
            instance.agents,
            instance.constraints,
            instance.objectives,
            tuple(sorted(ref["a"].items(), key=repr)),
            tuple(sorted(ref["c"].items(), key=repr)),
        )
    )


def _declare_both(agents, constraints, objectives, a, c):
    instance = MaxMinInstance(agents, constraints, objectives, a, c, name="declared")
    return instance, oracle.lower(agents, constraints, objectives, a, c)


@st.composite
def declarations(draw, max_nodes: int = 7):
    """Raw dict declarations: mixed id types, edges inserted in any order."""
    ids = st.one_of(
        st.integers(-3, 20), st.text("abxy", min_size=1, max_size=3), st.tuples(st.integers(0, 3), st.just("t"))
    )
    agents = draw(st.lists(ids, min_size=1, max_size=max_nodes, unique=True))
    constraints = draw(st.lists(ids, max_size=max_nodes, unique=True))
    objectives = draw(st.lists(ids, max_size=max_nodes, unique=True))
    coeff = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)

    def edges(members):
        if not members:
            return {}
        keys = draw(st.lists(st.tuples(st.sampled_from(members), st.sampled_from(agents)), unique=True, max_size=20))
        return {key: draw(coeff) for key in keys}

    return agents, constraints, objectives, edges(constraints), edges(objectives)


class TestArraysFirst:
    @pytest.mark.parametrize(
        "instance",
        general_family() + special_form_family() + [build_general_instance(), build_tiny_instance()],
        ids=lambda inst: inst.name,
    )
    def test_families_match_oracle_lowering(self, instance):
        # Re-declared with the edges inserted back to front: the lowering
        # must not depend on the insertion order.
        a = dict(reversed(list(instance.a_coefficients.items())))
        c = dict(reversed(list(instance.c_coefficients.items())))
        redeclared, ref = _declare_both(instance.agents, instance.constraints, instance.objectives, a, c)
        assert_matches_lowering(redeclared, ref)
        assert_matches_lowering(instance, ref)
        assert redeclared == instance

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(declarations())
    def test_declarations_match_oracle_lowering(self, declaration):
        instance, ref = _declare_both(*declaration)
        assert_matches_lowering(instance, ref)

    def test_random_10k_matches_oracle_lowering(self):
        instance = random_instance(10_000, delta_I=3, delta_K=3, seed=3)
        a, c = instance.a_coefficients, instance.c_coefficients
        redeclared, ref = _declare_both(instance.agents, instance.constraints, instance.objectives, a, c)
        assert_matches_lowering(redeclared, ref)

    def test_equal_but_distinct_keys_use_the_declared_objects(self):
        instance, ref = _declare_both(
            ["a", "b"], ["i"], ["k"], {("i", np.str_("a")): 1.0, (np.str_("i"), "b"): 2.0}, {("k", "a"): 1.0}
        )
        assert_matches_lowering(instance, ref)
        assert all(type(x) is str for key in instance.a_coefficients for x in key)

    @pytest.mark.parametrize(
        "con, match",
        [
            (([0, 1, 2], [0, 0], [1.0, 0.0]), "must be positive and finite"),
            (([0, 1, 2], [0, 0], [1.0, np.nan]), "must be positive and finite"),
            (([0, 1, 2], [0, 5], [1.0, 1.0]), "unknown constraint position 5"),
            (([0, 1, 2], [-1, 0], [1.0, 1.0]), "unknown constraint position -1"),
            (([0, 2, 2], [0, 0], [1.0, 1.0]), r"duplicate constraint coefficient for \('i0', 'v0'\)"),
            (([0, 2, 2], [1, 0], [1.0, 1.0]), "constraint row of agent 'v0' is not in canonical order"),
            (([0, 2], [0, 1], [1.0, 1.0]), "malformed constraint rows"),
            (([0, 2, 1], [0, 1], [1.0, 1.0]), "malformed constraint rows"),
            (([0, 1, 2], [0, 1], [1.0]), "malformed constraint rows"),
        ],
        ids=["zero", "nan", "past-end", "negative", "duplicate", "unsorted", "short-indptr", "decreasing", "short-coeff"],
    )
    def test_from_arrays_checks_its_arrays(self, con, match):
        obj = ([0, 1, 2], [0, 0], [1.0, 1.0])
        with pytest.raises(InvalidInstanceError, match=match):
            MaxMinInstance.from_arrays(["v0", "v1"], ["i0", "i1"], ["k0"], *con, *obj)

    @pytest.mark.parametrize("kind", ["agent", "constraint", "objective"])
    def test_from_arrays_rejects_duplicate_ids(self, kind):
        nodes = {"agent": ["v0", "v1"], "constraint": ["i0", "i1"], "objective": ["k0", "k1"]}
        nodes[kind] = [nodes[kind][0]] * 2
        empty = ([0, 0, 0], [], [])
        with pytest.raises(InvalidInstanceError, match=f"duplicate {kind} identifiers"):
            MaxMinInstance.from_arrays(nodes["agent"], nodes["constraint"], nodes["objective"], *empty, *empty)

    def test_pickle_round_trip(self, general_instance):
        import pickle

        restored = pickle.loads(pickle.dumps(general_instance))
        assert restored == general_instance and restored.name == general_instance.name
        assert restored.compiled().instance is restored

    def test_unreferenced_instance_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            instance = random_instance(40, seed=1)
            instance.compiled()
            ref = weakref.ref(instance)
            del instance
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_equality_is_identity_first(self, monkeypatch, general_instance):
        def compared(*args, **kwargs):
            raise AssertionError("an instance was compared with itself")

        monkeypatch.setattr(MaxMinInstance, "structurally_equal", compared)
        assert general_instance == general_instance
        assert not general_instance != general_instance

    def test_equality_ignores_declaration_order(self, tiny_instance):
        swapped = MaxMinInstance(
            list(reversed(tiny_instance.agents)),
            tiny_instance.constraints,
            tiny_instance.objectives,
            tiny_instance.a_coefficients,
            tiny_instance.c_coefficients,
            name="swapped",
        )
        assert swapped == tiny_instance
        assert instance_digest(swapped) != instance_digest(tiny_instance)
