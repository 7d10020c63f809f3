"""Property-based tests (hypothesis) for the core invariants.

These tests generate random max-min LP instances from scratch (not via the
library's own generators, to avoid shared blind spots) and check the
properties the paper proves:

* the local algorithm's output is always feasible (Lemma 11);
* its utility is within the Theorem 1 factor of the exact optimum;
* ``t_u`` upper-bounds the optimum (Lemma 2) and equals the tree optimum
  (Lemma 3);
* the ``g±`` tables are monotone and sign-bounded (Lemmata 5–7);
* the §4 transformations preserve feasibility through the back-mapping and
  reach the special form;
* serialization round-trips, and the solution writer's template gives
  exactly the text of ``json.dumps(payload, indent=2, allow_nan=False)``.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algo.alternating_tree import build_alternating_tree
from repro.algo.general_solver import LocalMaxMinSolver
from repro.algo.local_solver import SpecialFormLocalSolver
from repro.algo.safe_algorithm import SafeAlgorithm
from repro.algo.upper_bound import tree_optimum_binary_search, tree_optimum_lp
from repro.core.builder import InstanceBuilder
from repro.core.lp import solve_maxmin_lp
from repro.core.preprocess import preprocess
from repro.core.instance import MaxMinInstance
from repro.core.solution import Solution
from repro.io.serialization import _encode_id, instance_from_json, instance_to_json, solution_to_json
from repro.transforms import to_special_form

from conftest import assert_feasible, assert_within_guarantee

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

coefficients = st.floats(min_value=0.1, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def general_instances(draw, max_agents: int = 10):
    """Random connected-ish non-degenerate general instances."""
    n = draw(st.integers(min_value=2, max_value=max_agents))
    agents = [f"v{j}" for j in range(n)]
    builder = InstanceBuilder(name="hypothesis-general")

    # Covering constraints: group consecutive agents (sizes 1..3).
    idx = 0
    constraint_id = 0
    while idx < n:
        size = draw(st.integers(min_value=1, max_value=3))
        group = agents[idx : idx + size]
        for v in group:
            builder.add_constraint_term(f"i{constraint_id}", v, draw(coefficients))
        constraint_id += 1
        idx += size

    # Covering objectives: another random grouping.
    idx = 0
    objective_id = 0
    while idx < n:
        size = draw(st.integers(min_value=1, max_value=3))
        group = agents[idx : idx + size]
        for v in group:
            builder.add_objective_term(f"k{objective_id}", v, draw(coefficients))
        objective_id += 1
        idx += size

    # A few extra random rows to create overlaps and |K_v| > 1.
    extra = draw(st.integers(min_value=0, max_value=3))
    for e in range(extra):
        members = draw(
            st.lists(st.sampled_from(agents), min_size=1, max_size=3, unique=True)
        )
        kind = draw(st.booleans())
        for v in members:
            if kind:
                builder.add_constraint_term(f"ix{e}", v, draw(coefficients))
            else:
                builder.add_objective_term(f"kx{e}", v, draw(coefficients))
    return builder.build()


@st.composite
def special_form_instances(draw, max_pairs: int = 6):
    """Random special-form instances built as cycles with chords of matchings."""
    pairs = draw(st.integers(min_value=2, max_value=max_pairs))
    n = 2 * pairs
    agents = [f"v{j}" for j in range(n)]
    builder = InstanceBuilder(name="hypothesis-special")
    # Objectives: consecutive pairs (degree 2, coefficient 1).
    for j in range(pairs):
        builder.add_objective_term(f"k{j}", agents[2 * j], 1.0)
        builder.add_objective_term(f"k{j}", agents[2 * j + 1], 1.0)
    # Constraints: a shifted pairing so that every agent gets at least one.
    shift = draw(st.integers(min_value=1, max_value=n - 1))
    for j in range(pairs):
        a = agents[(2 * j + shift) % n]
        b = agents[(2 * j + 1 + shift) % n]
        if a == b:  # cannot happen, but stay safe
            b = agents[(2 * j + 2 + shift) % n]
        builder.add_constraint_term(f"i{j}", a, draw(coefficients))
        builder.add_constraint_term(f"i{j}", b, draw(coefficients))
    # Optionally one extra matching round.
    if draw(st.booleans()):
        for j in range(pairs):
            a = agents[2 * j]
            b = agents[(2 * j + 3) % n]
            if a != b:
                builder.add_constraint_term(f"m{j}", a, draw(coefficients))
                builder.add_constraint_term(f"m{j}", b, draw(coefficients))
    instance = builder.build()
    return instance


slow_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Properties of the core solvers
# ----------------------------------------------------------------------


@slow_settings
@given(general_instances())
def test_local_solver_feasible_and_within_guarantee(instance):
    solver = LocalMaxMinSolver(R=2)
    result = solver.solve(instance)
    assert_feasible(result.solution)
    lp = solve_maxmin_lp(instance)
    if math.isfinite(lp.optimum):
        assert_within_guarantee(
            instance, result.solution, result.certificate.guaranteed_ratio, optimum=lp.optimum
        )


@slow_settings
@given(general_instances())
def test_safe_algorithm_feasible_and_within_delta_I(instance):
    solution = SafeAlgorithm().solve(instance)
    assert_feasible(solution)
    lp = solve_maxmin_lp(instance)
    if math.isfinite(lp.optimum):
        assert_within_guarantee(instance, solution, max(instance.delta_I, 1), optimum=lp.optimum)


@slow_settings
@given(special_form_instances(), st.integers(min_value=2, max_value=4))
def test_special_form_solver_properties(instance, R):
    solver = SpecialFormLocalSolver(R=R)
    result = solver.solve(instance)
    assert_feasible(result.solution)
    optimum = solve_maxmin_lp(instance).optimum
    assert_within_guarantee(instance, result.solution, result.guaranteed_ratio, optimum=optimum)
    # Lemmata 2+3: every smoothed bound dominates the optimum.
    for v in instance.agents:
        assert result.smoothed_bounds[v] >= optimum - 1e-6
    # Lemmata 5–7 on the g tables.
    g = result.g
    for v in instance.agents:
        for d in range(g.r + 1):
            assert g.plus(v, d) >= -1e-9
            assert g.minus(v, d) >= 0.0
            if d >= 1:
                assert g.minus(v, d) >= g.minus(v, d - 1) - 1e-9
                assert g.plus(v, d) <= g.plus(v, d - 1) + 1e-9


@slow_settings
@given(special_form_instances(), st.integers(min_value=0, max_value=1))
def test_tree_optimum_binary_search_equals_lp(instance, r):
    u = instance.agents[0]
    tree = build_alternating_tree(instance, u, r)
    bs = tree_optimum_binary_search(tree, tol=1e-11)
    lp = tree_optimum_lp(tree)
    assert bs == pytest.approx(lp, rel=1e-5, abs=1e-6)
    # Lemma 2: t_u dominates the global optimum.
    assert bs >= solve_maxmin_lp(instance).optimum - 1e-6


# ----------------------------------------------------------------------
# Properties of the transformations and preprocessing
# ----------------------------------------------------------------------


@slow_settings
@given(general_instances())
def test_transform_pipeline_properties(instance):
    pre = preprocess(instance)
    if pre.optimum_is_zero or pre.optimum_is_unbounded or pre.instance.num_agents == 0:
        return
    clean = pre.instance
    result = to_special_form(clean)
    assert result.transformed.is_special_form()
    # Back-mapping an optimal transformed solution stays feasible and within
    # the ΔI/2 accounting of the original optimum.
    lp_t = solve_maxmin_lp(result.transformed)
    mapped = result.map_back(lp_t.solution)
    assert_feasible(mapped)
    original_opt = solve_maxmin_lp(clean).optimum
    assert mapped.utility() <= original_opt + 1e-6
    assert original_opt <= result.ratio_factor * mapped.utility() + 1e-6


@slow_settings
@given(general_instances())
def test_preprocess_lift_preserves_feasibility(instance):
    pre = preprocess(instance)
    assert not pre.instance.is_degenerate()
    if pre.instance.num_agents == 0:
        return
    zero_inner = Solution(pre.instance, {v: 0.0 for v in pre.instance.agents})
    lifted = pre.lift(zero_inner, target_utility=1.0)
    assert_feasible(lifted)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------


@slow_settings
@given(general_instances())
def test_json_roundtrip(instance):
    assert instance_from_json(instance_to_json(instance)) == instance


@slow_settings
@given(special_form_instances())
def test_solution_average_preserves_feasibility(instance):
    # Convexity of the feasible region, exercised through Solution.average.
    lp = solve_maxmin_lp(instance)
    safe = SafeAlgorithm().solve(instance)
    mix = Solution.average([lp.solution, safe])
    assert_feasible(mix)
    assert mix.utility() >= min(lp.optimum, safe.utility()) - 1e-9


# ----------------------------------------------------------------------
# Solution writer
# ----------------------------------------------------------------------

#: Every node id kind the format writes: str (quotes, backslashes,
#: newlines and non-ASCII characters among them), int, bool, float
#: (``-0.0`` and ``inf`` among them) and nested tuples of those.
node_ids = st.recursive(
    st.one_of(
        st.text(),
        st.sampled_from(['"', "\\", 'a"b\\c', "naïve €", "\u2028\n\t"]),
        st.integers(),
        st.booleans(),
        st.floats(allow_nan=False),
        st.sampled_from([-0.0, math.inf, -math.inf]),
    ),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)

texts = st.one_of(st.text(), st.sampled_from(["line\nbreak", "naïve €", ""]))


@st.composite
def solutions(draw):
    """A solution of an instance whose one constraint (and, if drawn, one
    objective) covers every agent; its values are any finite floats."""
    agents = draw(st.lists(node_ids, min_size=1, max_size=6, unique_by=lambda v: v))
    objectives = ["k"] if draw(st.booleans()) else []
    instance = MaxMinInstance(
        agents,
        ["i"],
        objectives,
        {("i", v): 1.0 for v in agents},
        {(k, v): 1.0 for k in objectives for v in agents},
        name=draw(texts),
    )
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, 5e-324, 1e300])
    )
    x = draw(st.lists(values, min_size=len(agents), max_size=len(agents)))
    return Solution.from_agent_array(instance, x, label=draw(texts))


def reference_solution_json(solution: Solution, include_diagnostics: bool) -> str:
    """The writer's specification: its document through ``json.dumps``."""
    values = solution.value_array().tolist()
    payload = {
        "format": "repro.maxmin-solution",
        "version": 1,
        "label": solution.label,
        "instance": solution.instance.name,
        "values": [
            {"agent": _encode_id(v), "value": x}
            for v, x in zip(solution.instance.agents, values)
        ],
    }
    if include_diagnostics:
        utility = solution.utility()
        payload["utility"] = utility if math.isfinite(utility) else None
        payload["feasible"] = solution.is_feasible()
    return json.dumps(payload, indent=2, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(solutions(), st.booleans())
def test_solution_writer_matches_json_dumps(solution, include_diagnostics):
    assert solution_to_json(solution, include_diagnostics) == reference_solution_json(
        solution, include_diagnostics
    )


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_solution_writer_refuses_a_non_finite_value(bad):
    instance = MaxMinInstance(["u", "v"], ["i"], [], {("i", "u"): 1.0, ("i", "v"): 1.0}, {})
    solution = Solution.from_agent_array(instance, [0.5, bad])
    with pytest.raises(ValueError) as expected:
        reference_solution_json(solution, True)
    with pytest.raises(ValueError) as refused:
        solution_to_json(solution)
    assert str(refused.value) == str(expected.value)
