"""Equivalence suite for the compiled record path (PR 5).

Pins the contracts of the vectorized evaluation-and-preparation layer:

* ``preprocess`` produces identical removed sets, flags, cleaned instances
  and lift behaviour to the per-node oracle :func:`repro.oracle.preprocess` —
  over the shared generator families, hand-built degenerate instances,
  empty instances and hypothesis-generated random (possibly degenerate)
  instances;
* array-backed :class:`~repro.core.solution.Solution` evaluation is
  *bitwise* identical to the oracle's dict evaluation (loads, utilities, objective
  values) with identical feasibility verdicts, and the cached passes are
  shared (utility + bottleneck = one objective pass, repeated feasibility
  checks = one load pass);
* §4 transform results are cached on the instance in one slot — an
  R-sweep over one instance runs the pipeline exactly once, and cached
  transforms never leak across content digests in the engine;
* a :class:`~repro.core.solution.Solution` is its value vector: both
  constructors, per-agent reads and the arithmetic helpers agree bit for
  bit with the per-agent dict formulas;
* mid-search active-set compaction is bitwise-neutral;
* an instance's dict view is built once under threads; the solve,
  evaluate, save, sweep, serve, delta and resilient paths never build an
  instance's dict views or read a solution agent by agent.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.algo.kernels as kernels_mod
import repro.transforms.vectorized as vectorized_mod
from repro import oracle
from repro.algo.kernels import _COMPACT_MIN_DROP, batched_upper_bounds
from repro.analysis.ratios import compare_algorithms
from repro.core.builder import InstanceBuilder
from repro.core.compiled import stack_compiled
from repro.core.instance import MaxMinInstance
from repro.core.preprocess import preprocess
from repro.core.solution import Solution
from repro.generators import cycle_instance, random_instance, random_special_form_instance
from repro.transforms.pipeline import to_special_form

from conftest import (
    build_degenerate_instance,
    build_general_instance,
    build_tiny_instance,
    general_family,
    special_form_family,
    spy_solution_reads,
    spy_view_builds,
)

# ----------------------------------------------------------------------
# Strategies: random instances where every kind of degeneracy can occur.
# ----------------------------------------------------------------------

coefficients = st.floats(min_value=0.1, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def possibly_degenerate_instances(draw, max_agents: int = 8):
    """Instances with arbitrary (possibly empty) rows and columns."""
    n = draw(st.integers(min_value=0, max_value=max_agents))
    m_con = draw(st.integers(min_value=0, max_value=max_agents))
    m_obj = draw(st.integers(min_value=0, max_value=max_agents))
    agents = [f"v{j}" for j in range(n)]
    constraints = [f"i{j}" for j in range(m_con)]
    objectives = [f"k{j}" for j in range(m_obj)]
    a = {}
    c = {}
    if agents:
        for i in constraints:
            members = draw(st.lists(st.sampled_from(agents), max_size=3, unique=True))
            for v in members:
                a[(i, v)] = draw(coefficients)
        for k in objectives:
            members = draw(st.lists(st.sampled_from(agents), max_size=3, unique=True))
            for v in members:
                c[(k, v)] = draw(coefficients)
    return MaxMinInstance(agents, constraints, objectives, a, c, name="hyp-degenerate")


def degeneracy_rich_instance(n: int, seed: int) -> MaxMinInstance:
    """A random general instance salted with every §4 degeneracy kind.

    Per injection: an isolated constraint, an unconstrained agent whose
    objective cascades a victim agent into forced-zero (and the victim's
    constraint into removal), and a non-contributing agent — so the fixed
    point runs all four phases plus the cascade rounds.
    """
    base = random_instance(
        n, delta_I=3, delta_K=3, extra_constraints=n // 20, extra_objectives=n // 20, seed=seed
    )
    a, c = base.a_coefficients, base.c_coefficients
    agents, constraints = list(base.agents), list(base.constraints)
    objectives = list(base.objectives)
    for j in range(max(1, n // 10)):
        unc, victim, nc = f"unc{j}", f"victim{j}", f"nc{j}"
        agents += [unc, victim, nc]
        constraints += [f"iso_i{j}", f"i_vict{j}", f"i_nc{j}"]
        objectives.append(f"k_unc{j}")
        c[(f"k_unc{j}", unc)] = 1.0
        c[(f"k_unc{j}", victim)] = 1.0
        a[(f"i_vict{j}", victim)] = 1.0
        a[(f"i_nc{j}", nc)] = 1.0
    return MaxMinInstance(agents, constraints, objectives, a, c, name=f"degenerate-rich-{n}")


def fixed_instances():
    return (
        general_family()
        + special_form_family()
        + [
            build_tiny_instance(),
            build_general_instance(),
            build_degenerate_instance(),
            MaxMinInstance([], [], [], {}, {}, name="empty"),
            MaxMinInstance(["a"], [], ["k"], {}, {("k", "a"): 1.0}, name="unbounded"),
            MaxMinInstance(["a"], ["i"], [], {("i", "a"): 1.0}, {}, name="no-objectives"),
            degeneracy_rich_instance(120, seed=0),
            cycle_instance(120, coefficient_range=(0.5, 2.0), seed=0),
        ]
    )


def assert_preprocess_equivalent(instance: MaxMinInstance) -> None:
    ref = oracle.preprocess(instance)
    vec = preprocess(instance)
    # In order, not as sets: the lift walks the removed objectives in order.
    assert ref.forced_zero_agents == vec.forced_zero_agents
    assert ref.unconstrained_agents == vec.unconstrained_agents
    assert ref.removed_constraints == vec.removed_constraints
    assert ref.removed_objectives == vec.removed_objectives
    assert ref.optimum_is_zero == vec.optimum_is_zero
    assert ref.optimum_is_unbounded == vec.optimum_is_unbounded
    assert ref.changed == vec.changed
    assert ref.instance == vec.instance
    # Lift behaviour: the same inner solution lifts to the same values.
    if not ref.optimum_is_zero and ref.instance.num_agents:
        inner_values = {
            v: 0.1 * (idx + 1) for idx, v in enumerate(ref.instance.agents)
        }
        lifted_ref = ref.lift(Solution(ref.instance, inner_values))
        lifted_vec = vec.lift(Solution(vec.instance, inner_values))
        assert lifted_ref.as_dict() == lifted_vec.as_dict()


class TestVectorizedPreprocess:
    @pytest.mark.parametrize(
        "instance", fixed_instances(), ids=lambda inst: inst.name
    )
    def test_backend_equivalence_families(self, instance):
        assert_preprocess_equivalent(instance)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=possibly_degenerate_instances())
    def test_backend_equivalence_hypothesis(self, instance):
        assert_preprocess_equivalent(instance)

    def test_removal_order_is_canonical(self):
        """Three unconstrained agents free two objectives in one round.

        Walking the agents lists k2 first (v0 frees k2 before v3 frees k0),
        and walking a set gives an order that follows ``PYTHONHASHSEED``;
        either lifts a different solution.  Both fixed points list each
        round in canonical order.
        """
        instance = MaxMinInstance(
            ["v0", "v1", "v2", "v3"],
            ["i0"],
            ["k0", "k1", "k2"],
            {("i0", "v2"): 1.0},
            {("k0", "v3"): 0.5, ("k1", "v2"): 1.0, ("k2", "v0"): 1.0, ("k2", "v3"): 2.0, ("k2", "v1"): 0.5},
            name="canonical-removals",
        )
        for pre in (oracle.preprocess(instance), preprocess(instance)):
            assert pre.unconstrained_agents == ("v0", "v1", "v3")
            assert pre.removed_objectives == ("k0", "k2")
        assert_preprocess_equivalent(instance)

    def test_unchanged_instance_returned_as_is(self, tiny_instance):
        for pre in (preprocess(tiny_instance), oracle.preprocess(tiny_instance)):
            assert not pre.changed
            assert pre.instance is tiny_instance

    def test_degenerate_instance_cleaned(self, degenerate_instance):
        pre = preprocess(degenerate_instance)
        assert pre.changed
        assert not pre.instance.is_degenerate()
        assert pre.optimum_is_zero
        assert "i_isolated" in pre.removed_constraints
        assert "c" in pre.forced_zero_agents
        assert "d" in pre.unconstrained_agents
        assert "k_unc" in pre.removed_objectives

    def test_cascading_removal_vectorized(self):
        builder = InstanceBuilder("cascade")
        builder.add_constraint_term("i", "a", 1.0)
        builder.add_objective_term("k1", "a", 1.0)
        builder.add_constraint_term("ib", "b", 1.0)
        builder.add_objective_term("k2", "b", 1.0)
        builder.add_objective_term("k2", "free", 1.0)
        pre = preprocess(builder.build())
        assert "free" in pre.unconstrained_agents
        assert "b" in pre.forced_zero_agents
        assert "ib" in pre.removed_constraints
        assert not pre.instance.is_degenerate()


class TestArrayBackedSolution:
    @pytest.mark.parametrize(
        "instance", fixed_instances(), ids=lambda inst: inst.name
    )
    def test_bitwise_family_equivalence(self, instance):
        rng = np.random.default_rng(hash(instance.name) % (2**32))
        values = {v: float(rng.uniform(-0.2, 1.5)) for v in instance.agents}
        arr_sol = Solution(instance, values)
        dict_sol = Solution(instance, values)
        self._assert_bitwise(instance, arr_sol, dict_sol)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=possibly_degenerate_instances(), seed=st.integers(0, 2**16))
    def test_bitwise_hypothesis(self, instance, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.2, 1.5, size=instance.num_agents)
        values = dict(zip(instance.agents, x.tolist()))
        arr_sol = Solution.from_agent_array(instance, x)
        dict_sol = Solution(instance, values)
        self._assert_bitwise(instance, arr_sol, dict_sol)
        self._assert_one_store(instance, rng)

    def test_average_of_inf_minus_inf_and_nan(self):
        """One agent draws (inf, -inf, nan) across the three vectors."""
        instance = cycle_instance(4)
        draws = [np.full(instance.num_agents, 0.25) for _ in range(3)]
        for x, special in zip(draws, (math.inf, -math.inf, math.nan)):
            x[1] = special
        self._assert_one_store(instance, np.random.default_rng(0), draws)

    @staticmethod
    def _assert_one_store(instance, rng, draws=None):
        """Both constructors, per-agent reads and the arithmetic helpers
        match the per-agent dict formulas bit for bit, specials included.
        ``draws`` (three value vectors) defaults to a random draw."""

        def bits(numbers):
            return np.asarray(list(numbers), dtype=np.float64).view(np.uint64).tolist()

        agents = instance.agents
        specials = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, -1e-300, 5e-324])
        if draws is None:
            draws = [
                np.where(rng.random(len(agents)) < 0.3, rng.choice(specials, len(agents)),
                         rng.uniform(-0.2, 1.5, len(agents)))
                for _ in range(3)
            ]
        dicts = [dict(zip(agents, x.tolist())) for x in draws]
        sols = [Solution.from_agent_array(instance, x) for x in draws]

        # One store: per-agent reads and as_dict return the input values.
        sol, values = sols[0], dicts[0]
        assert bits(sol.value_array()) == bits(draws[0])
        assert bits(sol[v] for v in agents) == bits(values.values())
        assert bits(sol.get(v) for v in agents) == bits(values.values())
        assert all(type(sol[v]) is float for v in agents)
        assert list(sol.as_dict()) == list(agents)
        assert bits(sol.as_dict().values()) == bits(values.values())
        assert bits(Solution(instance, values).value_array()) == bits(draws[0])
        # A partial mapping fills zeros.
        partial = {v: x for j, (v, x) in enumerate(values.items()) if j % 2}
        filled = Solution(instance, partial)
        assert bits(filled[v] for v in agents) == bits(partial.get(v, 0.0) for v in agents)

        factor = float(rng.choice([2.5, -1.0, 0.0, 1e-3]))
        with np.errstate(invalid="ignore"):  # 0 · inf and inf − inf, like the floats
            scaled = sol.scaled(factor).value_array()
            averaged = Solution.average(sols).value_array()
        assert bits(scaled) == bits(factor * x for x in values.values())
        # A sum of inf, -inf and nan adds two NaNs, and IEEE 754 leaves open
        # which one comes out: numpy keeps the first (0xfff8…), CPython the
        # second (0x7ff8…).  So NaNs compare by position, the rest by bits.
        expected = np.array([sum(d[v] for d in dicts) / len(dicts) for v in agents])
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(averaged), nan)
        assert bits(averaged[~nan]) == bits(expected[~nan])
        assert bits(sol.clipped_nonnegative().value_array()) == bits(
            (x if x > 0.0 else 0.0) for x in values.values()
        )

    @staticmethod
    def _assert_bitwise(instance, arr_sol, dict_sol):
        # Loads: bitwise per constraint.
        loads = arr_sol.constraint_loads()
        assert len(loads) == instance.num_constraints
        for j, i in enumerate(instance.constraints):
            assert loads[j] == dict_sol.constraint_load(i)
        # Objective values and utility: bitwise.
        assert arr_sol.objective_values() == oracle.objective_values(dict_sol)
        assert arr_sol.utility() == oracle.utility(dict_sol)
        # Feasibility: identical verdicts, violations and max violation.
        for tol in (1e-9, 0.0, 0.5):
            ra = arr_sol.check_feasibility(tol)
            rd = oracle.check_feasibility(dict_sol, tol)
            assert ra.feasible == rd.feasible
            assert ra.max_violation == rd.max_violation
            assert set(ra.violated_constraints) == set(rd.violated_constraints)
            assert set(ra.negative_agents) == set(rd.negative_agents)
        # Bottlenecks: identical (both in canonical objective order).
        assert arr_sol.bottleneck_objectives() == oracle.bottleneck_objectives(dict_sol)

    @pytest.mark.parametrize("case", ["all-nan", "one-nan", "nan-and-inf"])
    def test_nan_is_a_violation(self, case):
        """A NaN value fails ``x ≥ −tol`` and its loads fail ``load ≤ 1 + tol``;
        the CSR check and the oracle agree on every report field."""
        instance = cycle_instance(8, seed=0)
        x = np.full(instance.num_agents, 0.1)
        if case == "all-nan":
            x[:] = math.nan
        else:
            x[3] = math.nan
        if case == "nan-and-inf":
            x[9] = math.inf
        solution = Solution.from_agent_array(instance, x)

        def bits(value):
            return np.float64(value).view(np.uint64)

        def fields(report):
            return (
                report.feasible,
                report.max_violation,
                [(i, bits(load)) for i, load in report.violated_constraints],
                [(v, bits(value)) for v, value in report.negative_agents],
                report.tol,
            )

        for tol in (1e-9, 0.0, 0.5):
            report = solution.check_feasibility(tol)
            assert fields(report) == fields(oracle.check_feasibility(solution, tol))
            assert not report.feasible and report.max_violation == math.inf
            assert [v for v, _ in report.negative_agents] == [
                v for v, value in zip(instance.agents, x) if math.isnan(value)
            ]

    def test_equal_instance_in_another_agent_order(self):
        """Instances compare equal whatever their agent order, so a solution
        of a reordered twin is accepted by ``average``, ``map_back`` and
        ``lift``; each must align its values by agent, not by position."""

        def reordered(instance):
            twin = MaxMinInstance(
                list(reversed(instance.agents)), instance.constraints, instance.objectives,
                instance.a_coefficients, instance.c_coefficients, name=instance.name,
            )
            assert twin == instance and twin.agents != instance.agents
            return twin

        def on(instance, values, label="x"):
            return Solution(instance, {v: values[v] for v in instance.agents}, label=label)

        rng = np.random.default_rng(5)
        general = build_general_instance()
        values = {v: float(rng.uniform(0.0, 1.0)) for v in general.agents}
        averaged = Solution.average([on(general, values), on(reordered(general), values)])
        assert averaged.as_dict() == values

        transform = to_special_form(general)
        special = transform.transformed
        x = {v: float(rng.uniform(0.0, 1.0)) for v in special.agents}
        expected = transform.map_back(on(special, x)).as_dict()
        assert transform.map_back(on(reordered(special), x)).as_dict() == expected
        assert transform.map_back(on(reordered(special), x), label="y").as_dict() == expected

        pre = preprocess(build_degenerate_instance())
        clean = pre.instance
        y = {v: float(rng.uniform(0.0, 1.0)) for v in clean.agents}
        lifted = pre.lift(on(clean, y)).as_dict()
        assert pre.lift(on(reordered(clean), y)).as_dict() == lifted

    def test_empty_instance(self):
        inst = MaxMinInstance([], [], [], {}, {}, name="empty")
        sol = Solution(inst, {})
        assert sol.utility() == math.inf
        assert sol.is_feasible()
        assert sol.bottleneck_objectives() == ()
        assert len(sol.constraint_loads()) == 0

    def test_from_agent_array_seeds_dense_cache(self, tiny_instance):
        x = np.array([0.5, 0.25])
        sol = Solution.from_agent_array(tiny_instance, x, label="arr")
        dense = sol.value_array()
        assert np.array_equal(dense, x)
        assert dense is not x  # decoupled copy
        assert sol.utility() == 0.75

    def test_utility_and_bottleneck_share_one_objective_pass(self, general_instance, monkeypatch):
        from repro.core.compiled import CompiledInstance

        calls = []
        real = CompiledInstance.objective_values

        def counting(self, values):
            calls.append(1)
            return real(self, values)

        monkeypatch.setattr(CompiledInstance, "objective_values", counting)
        sol = Solution(general_instance, {v: 0.1 for v in general_instance.agents})
        sol.utility()
        sol.bottleneck_objectives()
        sol.objective_values()
        assert len(calls) == 1

    def test_feasibility_checks_share_one_load_pass(self, general_instance, monkeypatch):
        from repro.core.compiled import CompiledInstance

        calls = []
        real = CompiledInstance.constraint_loads

        def counting(self, values):
            calls.append(1)
            return real(self, values)

        monkeypatch.setattr(CompiledInstance, "constraint_loads", counting)
        sol = Solution(general_instance, {v: 0.1 for v in general_instance.agents})
        sol.is_feasible()
        sol.check_feasibility(1e-6)
        sol.constraint_loads()
        assert len(calls) == 1


def _count_pipeline_runs(monkeypatch):
    """Spy on the vectorized §4 pipeline entry point; returns the call list."""
    calls = []
    real = vectorized_mod.vectorized_to_special_form

    def counting(instance, **kwargs):
        calls.append(instance)
        return real(instance, **kwargs)

    monkeypatch.setattr(vectorized_mod, "vectorized_to_special_form", counting)
    return calls


class TestTransformCache:
    def test_repeated_calls_hit_cache(self, monkeypatch, general_instance):
        calls = _count_pipeline_runs(monkeypatch)
        first = to_special_form(general_instance)
        second = to_special_form(general_instance)
        assert first is second
        assert len(calls) == 1

    def test_one_cached_slot_and_the_oracle_never_caches(self, general_instance):
        """The instance holds one transform result; the oracle never caches."""
        a = to_special_form(general_instance)
        c = oracle.to_special_form(general_instance, verify=True)
        assert a is not c
        assert a is to_special_form(general_instance)
        assert c is not oracle.to_special_form(general_instance, verify=True)
        assert general_instance._transform_cache is a

    def test_r_sweep_runs_pipeline_once(self, monkeypatch):
        """The acceptance criterion: zero §4 re-runs across a warm R-sweep."""
        sweeps = [
            (build_general_instance(), (2, 3, 4)),
            (
                random_instance(
                    120, delta_I=3, delta_K=3, extra_constraints=6, extra_objectives=6, seed=0
                ),
                (2, 3, 4, 5),
            ),
        ]
        calls = _count_pipeline_runs(monkeypatch)
        for instance, R_values in sweeps:
            assert not preprocess(instance).changed  # cache must live on `instance`
            calls.clear()
            rows = compare_algorithms(instance, R_values=R_values, include_safe=False)
            assert len(rows) == len(R_values)
            assert len(calls) == 1

    def test_no_leak_across_digests_in_engine(self, monkeypatch):
        """One pipeline run per content digest: sibling R-jobs of one digest
        share a run, distinct digests never share a cached transform."""
        from repro.engine.job import make_jobs_for_instance
        from repro.engine.registry import _instance_and_lp, execute_job
        from repro.generators import random_instance

        calls = _count_pipeline_runs(monkeypatch)
        _instance_and_lp.cache_clear()
        inst_a = build_general_instance()
        inst_b = random_instance(
            12, delta_I=3, delta_K=2, extra_constraints=2, extra_objectives=1, seed=5
        )
        jobs = make_jobs_for_instance(
            inst_a, R_values=(2, 3), include_safe=False
        ) + make_jobs_for_instance(inst_b, R_values=(2, 3), include_safe=False)
        for job in jobs:
            execute_job(job)
        # Two digests, four local jobs -> exactly two pipeline runs, on two
        # distinct (per-digest) instance objects.
        assert len(calls) == 2
        assert calls[0] is not calls[1]
        _instance_and_lp.cache_clear()


def _race(work, threads_n: int = 8) -> list:
    """Run ``work(slot)`` on ``threads_n`` threads released together by a
    barrier under a 1 µs switch interval; returns the errors raised."""
    import sys
    import threading

    barrier = threading.Barrier(threads_n)
    errors = []

    def run(slot: int) -> None:
        try:
            barrier.wait(timeout=30)
            work(slot)
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestCachesUnderThreads:
    def test_concurrent_solves_of_one_cold_instance(self):
        """Server threads solving one resident instance race on its lazily
        filled caches (preprocess slot, transform slot).

        8 threads (more than the cores) start together behind a barrier with
        a 1 µs switch interval, so they interleave inside the cache fills;
        every answer must be bitwise the serial one, and the instance must
        end up holding one preprocess result and one transform result.
        """
        from repro.algo.general_solver import LocalMaxMinSolver
        from repro.core.preprocess import PreprocessResult
        from repro.generators import random_instance
        from repro.io.serialization import instance_from_json, instance_to_json
        from repro.transforms.base import TransformResult

        text = instance_to_json(
            random_instance(300, extra_constraints=15, extra_objectives=15, seed=7)
        )
        serial = LocalMaxMinSolver(R=3).solve(instance_from_json(text))
        assert serial.status == "local" and not serial.preprocessing.changed
        expected = serial.solution.value_array().tobytes()

        instance = instance_from_json(text)
        assert instance._preprocess_cache is None and instance._transform_cache is None
        outputs = [None] * 8

        def work(slot: int) -> None:
            result = LocalMaxMinSolver(R=3).solve(instance)
            outputs[slot] = result.solution.value_array().tobytes()

        assert _race(work) == []
        assert outputs == [expected] * 8
        assert isinstance(instance._preprocess_cache, PreprocessResult)
        assert isinstance(instance._transform_cache, TransformResult)

    def test_first_touch_of_the_dict_views(self, monkeypatch):
        """Threads touching a fresh instance's dict views first through
        different accessors all read one set of views, built once."""
        from repro.generators import random_instance
        from repro.io.serialization import instance_from_json, instance_to_json

        text = instance_to_json(
            random_instance(1000, extra_constraints=50, extra_objectives=50, seed=7)
        )

        def answers(instance):
            return (
                instance.a_coefficients,
                [instance.agents_of_constraint(i) for i in instance.constraints],
                hash(instance),
                instance_to_json(instance),
            )

        expected = answers(instance_from_json(text))
        assert expected[3] == text
        views = spy_view_builds(monkeypatch)
        for _ in range(5):
            views.clear()
            instance = instance_from_json(text)
            firsts = (
                lambda: instance.a_coefficients,
                lambda: instance.agents_of_constraint(instance.constraints[-1]),
                lambda: hash(instance),
                lambda: instance_to_json(instance),
            )
            outputs = [None] * 8

            def work(slot: int) -> None:
                firsts[slot % len(firsts)]()
                outputs[slot] = answers(instance)

            assert _race(work) == []
            assert outputs == [expected] * 8
            assert views == [instance.name]


class TestSolvePathsReadArraysOnly:
    """The production paths read the CSR arrays and solution vectors: they
    never build an instance's dict views or read a solution agent by agent."""

    def test_general_solve_evaluate_and_save(self, monkeypatch, tmp_path):
        from repro.algo.general_solver import LocalMaxMinSolver
        from repro.generators import random_instance
        from repro.io.serialization import load_instance, save_instance, save_solution

        path = save_instance(
            random_instance(10_000, delta_I=3, delta_K=3, seed=3), tmp_path / "random.json"
        )
        views = spy_view_builds(monkeypatch)
        reads = spy_solution_reads(monkeypatch)
        result = LocalMaxMinSolver(R=3).solve(load_instance(path))
        assert result.status == "local" and result.transform is not None
        assert result.solution.is_feasible() and result.solution.utility() > 0.0
        save_solution(result.solution, tmp_path / "solution.json")
        assert views == []
        assert reads == []

    def test_sweep_records_with_safe_row(self, monkeypatch):
        from repro.engine.batch import ratio_sweep_batch, run_batch
        from repro.generators import random_instance

        instances = [cycle_instance(8, seed=0), random_instance(60, delta_I=3, delta_K=3, seed=1)]
        batch = ratio_sweep_batch(instances, R_values=(2, 3), include_safe=True)
        reads = spy_solution_reads(monkeypatch)
        result = run_batch(batch)
        assert result.executed_jobs == 6
        assert [rec["algorithm"] for rec in result.records].count("safe-degree") == 2
        assert reads == []

    def test_serve_solve_with_values(self, monkeypatch):
        from repro.generators import random_instance
        from repro.serve import ServeConfig, ServerHandle

        instance = random_instance(300, delta_I=3, delta_K=3, seed=5)
        with ServerHandle(ServeConfig(workers=1)) as handle:
            reads = spy_solution_reads(monkeypatch)
            status, payload = handle.client(timeout_s=30).solve(
                instance=instance, include_values=True
            )
        assert status == 200 and payload["algorithm"] == "local-R3"
        assert len(payload["result"]["values"]) == instance.num_agents
        assert reads == []

    @pytest.mark.parametrize("structural", [False, True], ids=["coefficient", "structural"])
    def test_delta_ticks(self, monkeypatch, structural):
        from repro.distributed.dynamics import DynamicNetwork, random_churn_delta

        net = DynamicNetwork(random_special_form_instance(300, delta_K=3, seed=2), R=3)
        rng = np.random.default_rng(0)
        views = spy_view_builds(monkeypatch)
        for _ in range(4):
            delta = random_churn_delta(
                net.instance, rng, edits=2, structural_prob=1.0 if structural else 0.0
            )
            views.clear()  # the delta generator reads the views; the tick must not
            result = delta.apply()
            tick = net.apply(result)
            assert result.structural == structural == tick.structural
            assert views == []

    def test_resilient_solve(self, monkeypatch):
        from repro.distributed import ResilientLocalSolver

        instance = random_special_form_instance(300, delta_K=3, seed=4)
        views = spy_view_builds(monkeypatch)
        reads = spy_solution_reads(monkeypatch)
        solution, _ = ResilientLocalSolver(R=3).solve(instance)
        assert solution.is_feasible()
        assert views == []
        assert reads == []


class TestBisectionCompaction:
    def _stacked(self):
        parts = [
            cycle_instance(30, coefficient_range=(0.5, 2.0), seed=s) for s in range(3)
        ] + [random_special_form_instance(24, delta_K=3, constraint_rounds=2, seed=8)]
        return stack_compiled([inst.compiled() for inst in parts])

    @staticmethod
    def _scale_heterogeneous():
        """Cycles whose coefficient scales span orders of magnitude: small
        instances converge early, so compaction drops their trees mid-search."""
        parts = [
            cycle_instance(60, coefficient_range=(0.5 * 3.0**j, 2.0 * 3.0**j), seed=j)
            for j in range(4)
        ]
        return stack_compiled([inst.compiled() for inst in parts])

    @pytest.mark.parametrize(
        "r,build",
        [pytest.param(r, "_stacked", id=str(r)) for r in (0, 1, 2)]
        + [pytest.param(1, "_scale_heterogeneous", id="1-scale-heterogeneous")],
    )
    def test_compaction_is_bitwise_neutral(self, r, build, monkeypatch):
        stacked = getattr(self, build)()
        compacted = batched_upper_bounds(stacked, r)
        monkeypatch.setattr(kernels_mod, "_COMPACT_FRACTION", 0.0)  # never compacts
        plain = batched_upper_bounds(stacked, r)
        assert np.array_equal(plain, compacted)

    @pytest.mark.parametrize("r", [0, 1])
    def test_forced_compaction_is_bitwise_neutral(self, r, monkeypatch):
        """Drop the compaction floor so the path actually triggers."""
        stacked = self._stacked()
        monkeypatch.setattr(kernels_mod, "_COMPACT_FRACTION", 0.0)
        plain = batched_upper_bounds(stacked, r)
        monkeypatch.setattr(kernels_mod, "_COMPACT_MIN_DROP", 1)
        monkeypatch.setattr(kernels_mod, "_COMPACT_FRACTION", 0.99)
        compacted = batched_upper_bounds(stacked, r)
        assert np.array_equal(plain, compacted)

    def test_min_drop_floor_is_sane(self):
        assert _COMPACT_MIN_DROP >= 1

    def test_solve_batch_matches_solo_with_compaction(self):
        from repro.algo.local_solver import SpecialFormLocalSolver

        instances = [
            cycle_instance(20, coefficient_range=(0.5, 2.0), seed=s) for s in range(3)
        ]
        solver = SpecialFormLocalSolver(R=3)
        solo = [solver.solve(inst) for inst in instances]
        batch = solver.solve_batch(instances)
        for a, b, inst in zip(solo, batch, instances):
            for v in inst.agents:
                assert a.solution[v] == b.solution[v]
