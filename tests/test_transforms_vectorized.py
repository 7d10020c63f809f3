"""Equivalence property suite for the compiled §4 transformation pipeline.

The contract that lets the array pipeline be the one production path of
:func:`repro.transforms.to_special_form`:

* the transformed instance is **digest-identical** to the output of the
  per-stage oracle :func:`repro.oracle.to_special_form` — same node ids in the same canonical order,
  bitwise-equal coefficients (so ``==`` holds exactly and the engine's
  content-addressed cache keys coincide);
* the composed ratio factor and the per-stage metadata agree;
* back-mapped solutions agree within 1e-12 (the array back-map composes the
  §4.3/§4.6 scales in one product instead of two chained operations, which
  costs at most a few ulp);
* the output, built straight from the stage arrays through the checked
  ``MaxMinInstance.from_arrays``, is indistinguishable from the same
  instance declared through ``MaxMinInstance(...)`` — and those array
  checks reject corrupted stage output.

Checked across every generator family and over hypothesis-generated
instances that are built from scratch (not via the library's generators, to
avoid shared blind spots).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.transforms.vectorized as vec_mod
from repro import obs, oracle
from repro.algo.general_solver import LocalMaxMinSolver
from repro.algo.local_solver import SpecialFormLocalSolver
from repro.core.builder import InstanceBuilder
from repro.core.instance import MaxMinInstance
from repro.core.lp import solve_maxmin_lp
from repro.core.preprocess import preprocess
from repro.core.solution import Solution
from repro.exceptions import DegenerateInstanceError, InvalidInstanceError
from repro.generators import (
    cycle_instance,
    objective_ring_instance,
    random_instance,
    sensor_network_instance,
    torus_instance,
)
from repro.io.serialization import instance_digest, instance_to_json
from repro.transforms import CompiledTransformResult, to_special_form
from repro.transforms.vectorized import vectorized_to_special_form

from conftest import assert_feasible, build_general_instance, general_family, spy_view_builds

BACKMAP_TOL = 1e-12

coefficients = st.floats(min_value=0.1, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def general_instances(draw, max_agents: int = 12):
    """Random non-degenerate-ish general instances (grouped rows + overlaps)."""
    n = draw(st.integers(min_value=2, max_value=max_agents))
    agents = [f"v{j}" for j in range(n)]
    builder = InstanceBuilder(name="hypothesis-vectorized")

    idx = 0
    constraint_id = 0
    while idx < n:
        size = draw(st.integers(min_value=1, max_value=4))
        for v in agents[idx : idx + size]:
            builder.add_constraint_term(f"i{constraint_id}", v, draw(coefficients))
        constraint_id += 1
        idx += size

    idx = 0
    objective_id = 0
    while idx < n:
        size = draw(st.integers(min_value=1, max_value=3))
        for v in agents[idx : idx + size]:
            builder.add_objective_term(f"k{objective_id}", v, draw(coefficients))
        objective_id += 1
        idx += size

    extra = draw(st.integers(min_value=0, max_value=4))
    for e in range(extra):
        members = draw(st.lists(st.sampled_from(agents), min_size=1, max_size=4, unique=True))
        kind = draw(st.booleans())
        for v in members:
            if kind:
                builder.add_constraint_term(f"ix{e}", v, draw(coefficients))
            else:
                builder.add_objective_term(f"kx{e}", v, draw(coefficients))
    return builder.build()


def clean_cases():
    """Non-degenerate instances of every general family (id, clean instance)."""
    raw = general_family() + [
        random_instance(40, delta_I=4, delta_K=4, extra_constraints=5, extra_objectives=5, seed=99),
        random_instance(35, delta_I=6, delta_K=5, extra_constraints=10, extra_objectives=6, seed=3),
        sensor_network_instance(16, 5, seed=31).instance,
        torus_instance(4, 4, coefficient_range=(0.5, 2.0), seed=17),
        cycle_instance(9, coefficient_range=(0.5, 2.0), seed=2),  # already special form
        objective_ring_instance(4, 3),
        random_instance(80, delta_I=3, delta_K=3, extra_constraints=4, extra_objectives=4, seed=0),
    ]
    cases = []
    for instance in raw:
        pre = preprocess(instance)
        if pre.optimum_is_zero or pre.optimum_is_unbounded or pre.instance.num_agents == 0:
            continue
        cases.append((instance.name, pre.instance))
    return cases


CASES = clean_cases()
CASE_IDS = [case_id for case_id, _ in CASES]


def _both_pipelines(clean):
    return oracle.to_special_form(clean), to_special_form(clean)


#: Every array of a compiled view (the 12 CSR arrays plus the capacities).
COMPILED_ARRAYS = tuple(
    f"{family}_{part}"
    for family in ("con", "obj", "cagents", "oagents")
    for part in ("indptr", "indices", "coeff")
) + ("capacity",)


def _assert_matches_declared(transformed):
    """The output equals the same instance declared through ``__init__``.

    Same digest and ``hash``, bitwise-equal compiled arrays (values and
    dtypes) and equal adjacency tuples.
    """
    declared = MaxMinInstance(
        agents=transformed.agents,
        constraints=transformed.constraints,
        objectives=transformed.objectives,
        a=transformed.a_coefficients,
        c=transformed.c_coefficients,
        name=transformed.name,
    )
    assert instance_digest(transformed) == instance_digest(declared)
    assert hash(transformed) == hash(declared)
    got, want = transformed.compiled(), declared.compiled()
    for attr in COMPILED_ARRAYS:
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype, attr
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), attr
    for v in declared.agents:
        assert transformed.constraints_of_agent(v) == declared.constraints_of_agent(v)
        assert transformed.objectives_of_agent(v) == declared.objectives_of_agent(v)
    for i in declared.constraints:
        assert transformed.agents_of_constraint(i) == declared.agents_of_constraint(i)
    for k in declared.objectives:
        assert transformed.agents_of_objective(k) == declared.agents_of_objective(k)


class TestDigestIdentity:
    @pytest.mark.parametrize("case_id,clean", CASES, ids=CASE_IDS)
    def test_instances_digest_identical(self, case_id, clean):
        ref, vec = _both_pipelines(clean)
        assert instance_digest(instance_to_json(vec.transformed)) == instance_digest(
            instance_to_json(ref.transformed)
        )
        # Digest identity implies bitwise structural equality.
        assert vec.transformed == ref.transformed
        assert vec.ratio_factor == ref.ratio_factor
        assert vec.metadata["stages"] == ref.metadata["stages"]
        assert vec.metadata["stage_ratio_factors"] == ref.metadata["stage_ratio_factors"]

    @pytest.mark.parametrize("case_id,clean", CASES, ids=CASE_IDS)
    def test_output_matches_declared_instance(self, case_id, clean):
        _assert_matches_declared(to_special_form(clean).transformed)

    @pytest.mark.parametrize("case_id,clean", CASES, ids=CASE_IDS)
    def test_back_mapped_solutions_agree(self, case_id, clean):
        ref, vec = _both_pipelines(clean)
        lp = solve_maxmin_lp(ref.transformed)
        mapped_ref = ref.map_back(lp.solution)
        mapped_vec = vec.map_back(
            Solution(vec.transformed, lp.solution.as_dict(), label=lp.solution.label)
        )
        assert mapped_ref.label == mapped_vec.label
        for v in clean.agents:
            assert mapped_vec[v] == pytest.approx(mapped_ref[v], abs=BACKMAP_TOL)
        assert_feasible(mapped_vec)

    def test_noop_pipeline_returns_same_instance(self):
        special = cycle_instance(8)
        result = to_special_form(special)
        assert result.transformed is special
        assert not result.changed
        sol = Solution(special, {v: 0.1 for v in special.agents}, label="probe")
        assert result.map_back(sol).label == "probe"


class TestHypothesisEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(instance=general_instances())
    def test_pipeline_equivalence(self, instance):
        pre = preprocess(instance)
        assume(not pre.optimum_is_zero and not pre.optimum_is_unbounded)
        assume(pre.instance.num_agents > 0)
        clean = pre.instance
        ref, vec = _both_pipelines(clean)
        assert instance_digest(instance_to_json(vec.transformed)) == instance_digest(
            instance_to_json(ref.transformed)
        )
        _assert_matches_declared(vec.transformed)
        lp = solve_maxmin_lp(ref.transformed)
        mapped_ref = ref.map_back(lp.solution)
        mapped_vec = vec.map_back(
            Solution(vec.transformed, lp.solution.as_dict(), label=lp.solution.label)
        )
        for v in clean.agents:
            assert mapped_vec[v] == pytest.approx(mapped_ref[v], abs=BACKMAP_TOL)


def _set(field, pos, value):
    """A corruption writing ``value`` at ``pos`` of a copy of a stage array."""

    def corrupt(st):
        arr = getattr(st, field).copy()
        arr[pos] = value
        setattr(st, field, arr)

    return corrupt


def _duplicate_edge(field):
    """A corruption making row 0 list its first agent twice."""

    def corrupt(st):
        arr = getattr(st, field).copy()
        arr[1] = arr[0]
        setattr(st, field, arr)

    return corrupt


def _duplicate_id(field):
    def corrupt(st):
        ids = list(getattr(st, field))
        ids[1] = ids[0]
        setattr(st, field, ids)

    return corrupt


class TestArrayConstruction:
    """The output is built from the stage arrays and checked as arrays."""

    @pytest.fixture
    def clean(self):
        clean = preprocess(build_general_instance()).instance
        clean.compiled()
        return clean

    def test_output_is_never_lowered_through_dicts(self, clean, monkeypatch):
        views = spy_view_builds(monkeypatch)
        obs.configure(enabled=True)
        try:
            mark = obs.counters_mark()
            result = vectorized_to_special_form(clean)
            delta = obs.counters_since(mark)
        finally:
            obs.configure(enabled=False)
            obs.reset()
        assert result.transformed is not clean
        assert views == []
        assert delta.get("compile.builds") == 1

    @pytest.mark.parametrize(
        "corrupt,match",
        [
            (_set("con_coeff", 0, 0.0), "must be positive and finite"),
            (_set("con_coeff", 3, -1.0), "must be positive and finite"),
            (_set("obj_coeff", 0, np.nan), "must be positive and finite"),
            (_set("con_coeff", 2, np.inf), "must be positive and finite"),
            (_set("con_agents", 0, 10**6), "unknown agent position"),
            (_set("obj_agents", 1, -1), "unknown agent position"),
            (_duplicate_edge("con_agents"), "duplicate constraint coefficient"),
            (_duplicate_edge("obj_agents"), "duplicate objective coefficient"),
            (_duplicate_id("agents"), "duplicate agent identifiers"),
            (_duplicate_id("constraints"), "duplicate constraint identifiers"),
            (_duplicate_id("objectives"), "duplicate objective identifiers"),
        ],
        ids=[
            "zero", "negative", "nan", "inf", "agent-past-end", "agent-negative",
            "duplicate-constraint-edge", "duplicate-objective-edge",
            "duplicate-agent-id", "duplicate-constraint-id", "duplicate-objective-id",
        ],
    )
    def test_corrupted_stage_output_is_rejected(self, clean, monkeypatch, corrupt, match):
        real = vec_mod._stage_normalise_coefficients

        def corrupted_stage(st):
            real(st)
            corrupt(st)

        monkeypatch.setattr(vec_mod, "_stage_normalise_coefficients", corrupted_stage)
        with pytest.raises(InvalidInstanceError, match=match):
            vectorized_to_special_form(clean)


class TestCompiledTransformResult:
    def test_map_back_array_matches_map_back(self):
        clean = preprocess(build_general_instance()).instance
        vec = to_special_form(clean)
        assert isinstance(vec, CompiledTransformResult)
        lp = solve_maxmin_lp(vec.transformed)
        x = np.asarray([lp.solution[v] for v in vec.transformed.agents])
        mapped_arr = vec.map_back_array(x)
        mapped_sol = vec.map_back(lp.solution)
        for pos, v in enumerate(clean.agents):
            assert mapped_arr[pos] == mapped_sol[v]

    def test_back_map_segments_cover_every_agent(self):
        clean = preprocess(build_general_instance()).instance
        vec = vectorized_to_special_form(clean)
        assert len(vec.bm_indptr) == clean.num_agents + 1
        assert (np.diff(vec.bm_indptr) >= 1).all()
        assert (vec.bm_scale > 0.0).all()
        assert vec.bm_idx.max() < vec.transformed.num_agents

    def test_rejects_degenerate(self, degenerate_instance):
        with pytest.raises(DegenerateInstanceError):
            to_special_form(degenerate_instance)
        with pytest.raises(DegenerateInstanceError):
            oracle.to_special_form(degenerate_instance)


class TestSolverIntegration:
    @pytest.mark.parametrize("case_id,clean", CASES[:6], ids=CASE_IDS[:6])
    def test_transform_backends_agree_end_to_end(self, case_id, clean):
        """A §5 solve behind the oracle's §4 pipeline matches the solver's."""
        ref = oracle.to_special_form(clean)
        inner = SpecialFormLocalSolver(R=3).solve(ref.transformed)
        mapped = ref.map_back(inner.solution)
        vec = LocalMaxMinSolver(R=3).solve(clean)
        assert vec.status == "local"
        assert vec.certificate.guaranteed_ratio == ref.ratio_factor * inner.guaranteed_ratio
        for v in clean.agents:
            assert vec.solution[v] == pytest.approx(mapped[v], abs=1e-9)

    def test_solve_many_matches_solve(self):
        instances = [clean for _, clean in CASES[:5]]
        solver = LocalMaxMinSolver(R=3)
        many = solver.solve_many(instances)
        for instance, batched in zip(instances, many):
            solo = solver.solve(instance)
            assert batched.status == solo.status
            for v in instance.agents:
                assert batched.solution[v] == solo.solution[v]

    def test_solve_many_handles_trivial_paths(self):
        builder = InstanceBuilder(name="trivial-dI1")
        builder.add_constraint_term("i", "a", 2.0)
        builder.add_objective_term("k", "a", 1.0)
        trivial = builder.build()
        normal = preprocess(build_general_instance()).instance
        solver = LocalMaxMinSolver(R=3)
        results = solver.solve_many([trivial, normal])
        assert results[0].status == "trivial-delta-I-1"
        assert results[1].status == "local"
        assert results[0].solution["a"] == pytest.approx(0.5)

    def test_solve_batch_bitwise_equal(self):
        instances = [
            cycle_instance(8),
            cycle_instance(9, coefficient_range=(0.5, 2.0), seed=3),
            objective_ring_instance(5, 3),
            cycle_instance(40, coefficient_range=(0.5, 2.0), seed=0),
        ]
        solver = SpecialFormLocalSolver(R=3)
        batch = solver.solve_batch(instances)
        for instance, batched in zip(instances, batch):
            solo = solver.solve(instance)
            for v in instance.agents:
                assert batched.solution[v] == solo.solution[v]
                assert batched.upper_bounds[v] == solo.upper_bounds[v]
                assert batched.smoothed_bounds[v] == solo.smoothed_bounds[v]

    def test_solve_batch_empty(self):
        assert SpecialFormLocalSolver(R=3).solve_batch([]) == []
