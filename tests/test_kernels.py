"""Oracle-equivalence and unit tests for the vectorized solver kernels.

The solver (``repro.algo.kernels`` over a
:class:`~repro.core.compiled.CompiledInstance`) must agree with the
per-node oracle :func:`repro.oracle.special_form_solve` on every quantity
the §5 pipeline produces: the per-agent bounds ``t_u``, the smoothed bounds
``s_v``, the output vector ``x`` and its utility — within 1e-9, across every
generator family — and with the oracle's exact tree LP (Lemma 3) within
1e-7.  These tests are the contract that lets the kernels be the one
production path.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.algo.kernels as kernels_mod
from repro.algo.kernels import (
    DEFAULT_BISECTION_TOL,
    _recursion_margins,
    batched_upper_bounds,
    build_batched_trees,
    g_recursion_kernel,
    output_kernel,
    smooth_bounds_kernel,
)
from repro import obs, oracle
from repro.algo.local_solver import SpecialFormLocalSolver
from repro.algo.upper_bound import compute_upper_bounds, smooth_upper_bounds
from repro.core.builder import InstanceBuilder
from repro.core.compiled import _segment_gather, stack_compiled
from repro.core.preprocess import preprocess
from repro.distributed.dynamics import (
    local_horizon_radius,
    measure_change_impact,
    random_churn_delta,
)
from repro.exceptions import NotSpecialFormError, SolverError
from repro.generators import (
    cycle_instance,
    indistinguishable_cycle_pair,
    objective_ring_instance,
    perturb_coefficient,
    random_instance,
    random_special_form_instance,
    regular_special_form_instance,
    torus_instance,
)
from repro.transforms import to_special_form

from conftest import build_general_instance, mid_size_special_form_family

TOL = 1e-9


def special_form_cases():
    """Seeded instances of every special-form family (id, instance)."""
    grid = to_special_form(torus_instance(4, 3, coefficient_range=(0.5, 2.0), seed=6)).transformed
    return [
        ("cycle-unit", cycle_instance(8)),
        ("cycle-random", cycle_instance(9, coefficient_range=(0.5, 2.0), seed=3)),
        ("sf-random", random_special_form_instance(18, delta_K=3, constraint_rounds=2, seed=5)),
        ("regular-unit", regular_special_form_instance(6, 3, constraint_rounds=2, seed=7)),
        (
            "regular-random",
            regular_special_form_instance(
                6, 3, constraint_rounds=2, coefficient_range=(0.5, 2.0), seed=8
            ),
        ),
        ("ring", objective_ring_instance(5, 3)),
        ("grid", grid),
    ]


CASES = special_form_cases()
CASE_IDS = [case_id for case_id, _ in CASES]


def tree_signatures(bt):
    """Per tree, its content as bytes: capacities, child counts and both edge
    coefficient arrays of every level, the folded leaves' capacity sums and
    their minimum, each chunk length-prefixed.

    Trees with equal signatures have identical ``f±`` recursions, hence
    the same ``t_u``.  Node identities are left out, so a cycle's ``n``
    rotated trees share one signature.
    """
    capacity = bt.comp.capacity
    per_level_parts = []
    for level in bt.levels:
        parts = [capacity[level.nodes]]
        if level.child_indptr is not None:
            parts.append(np.diff(level.child_indptr))
        if level.a_self is not None:
            parts += [level.a_self, level.a_partner]
        per_level_parts.append(parts)
    per_level_parts[-1].append(bt.leaf_sums)
    signatures = []
    for t in range(bt.num_trees):
        leaf_min = bt.leaf_min[t : t + 1].tobytes()
        chunks = [len(leaf_min).to_bytes(8, "little"), leaf_min]
        for level, parts in zip(bt.levels, per_level_parts):
            lo, hi = level.root_indptr[t], level.root_indptr[t + 1]
            for arr in parts:
                payload = arr[lo:hi].tobytes()
                # Raw float bytes may hold any separator byte: the length
                # prefix keeps the encoding injective across level shapes.
                chunks += [len(payload).to_bytes(8, "little"), payload]
        signatures.append(b"".join(chunks))
    return signatures


def assert_equal_trees_get_equal_bits(comp, r, targets=None):
    """Every class of equal trees gets one ``t_u`` bit pattern; returns the
    number of trees that share their class with an earlier tree."""
    bt = build_batched_trees(comp, r, targets)
    t = batched_upper_bounds(comp, r, targets=targets)
    first = {}
    repeats = 0
    for tree, signature in enumerate(tree_signatures(bt)):
        ref = first.setdefault(signature, tree)
        if ref != tree:
            repeats += 1
            assert t[tree].tobytes() == t[ref].tobytes(), (tree, ref)
    return repeats


def search_upper_limits(bt):
    """The search's ``hi0``: the root objective's capacity sum per tree.

    At ``r = 0`` the root's siblings are the folded leaves.
    """
    capacity = bt.comp.capacity
    if bt.r == 0:
        return capacity[bt.levels[0].nodes] + bt.leaf_sums
    level = bt.levels[1]
    return capacity[bt.levels[0].nodes] + np.add.reduceat(
        capacity[level.nodes], level.root_indptr[:-1]
    )


def unfolded_leaf_level(bt):
    """The leaf level that ``bt`` folds, expanded as the unfolded build did:
    each deepest node's objective members, minus itself by an owner mask.

    Returns the leaves and their per-node and per-tree boundaries.
    """
    comp = bt.comp
    deepest = bt.levels[-1]
    rows = comp.obj_of_agent[deepest.nodes]
    deg = np.diff(comp.oagents_indptr)[rows]
    members = comp.oagents_indices[_segment_gather(comp.oagents_indptr[rows], deg)]
    leaves = members[members != np.repeat(deepest.nodes, deg)]
    leaf_indptr = np.zeros(len(deg) + 1, dtype=np.int64)
    np.cumsum(deg - 1, out=leaf_indptr[1:])
    return leaves, leaf_indptr, leaf_indptr[deepest.root_indptr]


def unfolded_margins(bt, omega):
    """:func:`_recursion_margins` on the unfolded trees: every call sweeps
    the leaves as ``f⁺`` nodes, as the kernel did before the fold."""
    capacity = bt.comp.capacity
    leaves, leaf_indptr, leaf_root_indptr = unfolded_leaf_level(bt)
    vals = capacity[leaves]
    min_fp = np.minimum.reduceat(vals, leaf_root_indptr[:-1])
    for j in range(len(bt.levels) - 1, -1, -1):
        level = bt.levels[j]
        child_indptr = leaf_indptr if j == len(bt.levels) - 1 else level.child_indptr
        if level.kind == "minus":
            sums = np.add.reduceat(vals, child_indptr[:-1])
            vals = np.maximum(0.0, omega[level.tree_of_node] - sums)
        else:
            child = bt.levels[j + 1]
            cand = (1.0 - child.a_partner * vals) / child.a_self
            vals = np.minimum.reduceat(cand, child_indptr[:-1])
            np.minimum(min_fp, np.minimum.reduceat(vals, level.root_indptr[:-1]), out=min_fp)
    root_slack = capacity[bt.levels[0].nodes] - vals
    return np.minimum(min_fp, root_slack)


def search_run(comp, r, targets=None):
    """``t`` and the search counters of one ``batched_upper_bounds`` call."""
    obs.configure(enabled=True)
    try:
        mark = obs.counters_mark()
        t = batched_upper_bounds(comp, r, targets=targets)
        counters = obs.counters_since(mark)
    finally:
        obs.configure(enabled=False)
        obs.reset()
    searched = {
        key: value
        for key, value in counters.items()
        if key.startswith("kernels.bisection_") or key == "kernels.trees_total"
    }
    return t, searched


def assert_fold_is_bitwise(comp, r, targets=None):
    """The folded sweep equals the unfolded one bit for bit: at ``ω = 0``,
    at ``hi0``, at random ``ω`` and at every probe of the search, which then
    returns the same ``t`` after the same sweeps."""
    bt = build_batched_trees(comp, r, targets)
    hi0 = search_upper_limits(bt)
    if r == 0:
        leaves, _, leaf_root_indptr = unfolded_leaf_level(bt)
        unfolded_hi0 = comp.capacity[bt.roots] + np.add.reduceat(
            comp.capacity[leaves], leaf_root_indptr[:-1]
        )
        assert hi0.tobytes() == unfolded_hi0.tobytes()
    rng = np.random.default_rng(bt.num_trees + r)
    draws = [rng.uniform(0.0, 1.0, bt.num_trees) * hi0 for _ in range(3)]
    for omega in [np.zeros(bt.num_trees), hi0] + draws:
        assert _recursion_margins(bt, omega).tobytes() == unfolded_margins(bt, omega).tobytes()

    folded = search_run(comp, r, targets)
    probes = []

    def unfolded_checked(probe_bt, omega):
        margins = unfolded_margins(probe_bt, omega)
        assert _recursion_margins(probe_bt, omega).tobytes() == margins.tobytes()
        probes.append(len(omega))
        return margins

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels_mod, "_recursion_margins", unfolded_checked)
        unfolded = search_run(comp, r, targets)
    assert probes
    assert folded[0].tobytes() == unfolded[0].tobytes()
    assert folded[1] == unfolded[1]


def assert_sibling_slots(comp):
    """Each smoothing-adjacency row lists the agent's constraint partners,
    then its objective's members minus itself, in canonical order."""
    indptr, indices = comp.smoothing_adjacency
    for v in range(comp.num_agents):
        k = comp.obj_of_agent[v]
        members = comp.oagents_indices[comp.oagents_indptr[k] : comp.oagents_indptr[k + 1]]
        partners = comp.con_partner[comp.con_indptr[v] : comp.con_indptr[v + 1]]
        expected = partners.tolist() + [w for w in members.tolist() if w != v]
        assert indices[indptr[v] : indptr[v + 1]].tolist() == expected


@st.composite
def special_form_instances_with_repeats(draw, max_pairs: int = 8):
    """Cycles with chords whose coefficients come from a 3-value set.

    Few coefficient values make many trees equal, and equal trees must
    get bitwise-equal ``t_u``.
    """
    pairs = draw(st.integers(min_value=2, max_value=max_pairs))
    n = 2 * pairs
    coefficient = st.sampled_from([0.5, 1.0, 2.0])
    agents = [f"v{j}" for j in range(n)]
    builder = InstanceBuilder(name="hypothesis-repeats")
    for j in range(pairs):
        builder.add_objective_term(f"k{j}", agents[2 * j], 1.0)
        builder.add_objective_term(f"k{j}", agents[2 * j + 1], 1.0)
    shift = draw(st.integers(min_value=1, max_value=n - 1))
    for j in range(pairs):
        builder.add_constraint_term(f"i{j}", agents[(2 * j + shift) % n], draw(coefficient))
        builder.add_constraint_term(f"i{j}", agents[(2 * j + 1 + shift) % n], draw(coefficient))
    if draw(st.booleans()):
        for j in range(pairs):
            a, b = agents[2 * j], agents[(2 * j + 3) % n]
            builder.add_constraint_term(f"m{j}", a, draw(coefficient))
            builder.add_constraint_term(f"m{j}", b, draw(coefficient))
    return builder.build()


def stacked_cases():
    """A multi-instance batch mixing symmetric and perturbed families."""
    return stack_compiled(
        [
            cycle_instance(12).compiled(),
            cycle_instance(9, coefficient_range=(0.5, 2.0), seed=3).compiled(),
            regular_special_form_instance(6, 3, constraint_rounds=2, seed=7).compiled(),
            objective_ring_instance(5, 3).compiled(),
            cycle_instance(8).compiled(),
        ]
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "R,instance",
        [
            pytest.param(R, instance, id=f"{R}-{case_id}")
            for R in (2, 3, 5)
            for case_id, instance in CASES
        ]
        + [
            pytest.param(3, instance, id=f"3-{instance.name}")
            for instance in mid_size_special_form_family()
        ],
    )
    def test_recursion_backend_equivalence(self, R, instance):
        """The kernels and the oracle agree on t_u, s_v, x and utility (1e-9)."""
        ref = oracle.special_form_solve(instance, R)
        vec = SpecialFormLocalSolver(R=R).solve(instance)
        assert vec.utility() == pytest.approx(ref.utility(), abs=TOL)
        for v in instance.agents:
            assert vec.upper_bounds[v] == pytest.approx(ref.upper_bounds[v], abs=TOL)
            assert vec.smoothed_bounds[v] == pytest.approx(ref.smoothed_bounds[v], abs=TOL)
            assert vec.solution[v] == pytest.approx(ref.solution[v], abs=TOL)

    @pytest.mark.parametrize(
        "R,instance",
        [
            pytest.param(R, instance, id=f"{R}-{case_id}")
            for case_id, instance in CASES[:4]
            for R in (2, 3)
        ]
        + [
            pytest.param(
                3, random_special_form_instance(12, delta_K=3, seed=13), id="3-sf-random-12"
            )
        ],
    )
    def test_lp_backend_equivalence(self, R, instance):
        """Lemma 3: the production ``f±`` recursion finds each tree's LP optimum.

        The oracle solves every alternating tree's LP exactly; the kernels'
        search over the recursion must give the same ``t_u``, and so the
        same ``s_v`` and ``x``, within the LP's tolerance.
        """
        ref = oracle.special_form_solve(instance, R, tu_method="lp")
        vec = SpecialFormLocalSolver(R=R).solve(instance)
        for v in instance.agents:
            assert vec.upper_bounds[v] == pytest.approx(ref.upper_bounds[v], abs=1e-7)
            assert vec.smoothed_bounds[v] == pytest.approx(ref.smoothed_bounds[v], abs=1e-7)
            assert vec.solution[v] == pytest.approx(ref.solution[v], abs=1e-7)

    @pytest.mark.parametrize("R", [2, 3])
    def test_g_tables_match(self, R):
        """The full g± tables agree entry-wise, not just their Eq. 18 sum."""
        instance = random_special_form_instance(16, delta_K=3, constraint_rounds=2, seed=11)
        ref = oracle.special_form_solve(instance, R)
        vec = SpecialFormLocalSolver(R=R).solve(instance)
        for d in range(ref.g.r + 1):
            for v in instance.agents:
                assert vec.g.plus(v, d) == pytest.approx(ref.g.plus(v, d), abs=TOL)
                assert vec.g.minus(v, d) == pytest.approx(ref.g.minus(v, d), abs=TOL)


class TestBracketedSearch:
    """The ``t_u`` search contract: a feasible ``ω`` within ``tol`` of the
    largest one, bitwise independent of the batch a tree runs in."""

    @pytest.mark.parametrize("case_id,instance", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("R", [2, 3, 5])
    def test_certificate(self, case_id, instance, R):
        """Each t is hi0 itself, or feasible with t + tol infeasible."""
        comp = instance.compiled()
        bt = build_batched_trees(comp, R - 2)
        t = batched_upper_bounds(comp, R - 2)
        at_limit = t == search_upper_limits(bt)
        assert np.all(at_limit | (_recursion_margins(bt, t) >= 0.0))
        assert np.all(at_limit | (_recursion_margins(bt, t + DEFAULT_BISECTION_TOL) < 0.0))

    @pytest.mark.parametrize("case_id,instance", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("R", [2, 3, 5])
    def test_tree_bitwise_independent_of_batch(self, case_id, instance, R, monkeypatch):
        r = R - 2
        comp = instance.compiled()
        full = batched_upper_bounds(comp, r)
        other = random_special_form_instance(10, delta_K=3, seed=1).compiled()
        stacked = stack_compiled([other, comp, other])
        lo = other.num_agents
        in_stack = batched_upper_bounds(stacked, r)[lo : lo + comp.num_agents]
        assert np.array_equal(in_stack, full)
        monkeypatch.setattr(kernels_mod, "_COMPACT_MIN_DROP", 1)
        monkeypatch.setattr(kernels_mod, "_COMPACT_FRACTION", 0.99)
        compacted = batched_upper_bounds(comp, r)
        assert np.array_equal(compacted, full)
        step = max(1, comp.num_agents // 8)
        for u in range(0, comp.num_agents, step):
            solo = batched_upper_bounds(comp, r, targets=np.asarray([u], dtype=np.int64))
            assert solo[0] == full[u]

    @pytest.mark.parametrize(
        "build,R,reversed_subset,force_compaction",
        [
            pytest.param(instance.compiled, R, False, False, id=f"{R}-{case_id}")
            for case_id, instance in CASES
            for R in (2, 3, 5)
        ]
        + [pytest.param(stacked_cases, R, False, False, id=f"{R}-stacked") for R in (2, 3, 4)]
        + [pytest.param(stacked_cases, R, True, False, id=f"{R}-stacked-targets") for R in (2, 3)]
        + [
            pytest.param(stacked_cases, R, False, True, id=f"{R}-stacked-compacted")
            for R in (2, 3, 4)
        ],
    )
    def test_equal_trees_get_bitwise_equal_bounds(
        self, build, R, reversed_subset, force_compaction, monkeypatch
    ):
        """Equal trees get one ``t_u`` bit pattern without sharing a search.

        Each tree's search reads only its own margins, so the stacked unit
        cycles 12 and 8, whose trees are all equal, agree across instances,
        in a reversed ``targets=`` subset and under forced compaction too.
        """
        comp = build()
        targets = None
        if reversed_subset:
            targets = np.arange(0, comp.num_agents, 3, dtype=np.int64)[::-1].copy()
        if force_compaction:
            monkeypatch.setattr(kernels_mod, "_COMPACT_MIN_DROP", 1)
            monkeypatch.setattr(kernels_mod, "_COMPACT_FRACTION", 0.99)
        repeats = assert_equal_trees_get_equal_bits(comp, R - 2, targets)
        if build is stacked_cases:
            assert repeats > 0

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(special_form_instances_with_repeats(), st.integers(min_value=0, max_value=2))
    def test_equal_trees_get_bitwise_equal_bounds_with_repeats(self, instance, r):
        assert_equal_trees_get_equal_bits(instance.compiled(), r)

    @pytest.mark.parametrize("R", [2, 3, 4])
    @pytest.mark.parametrize("batched", [False, True], ids=["solo", "solve_batch"])
    @pytest.mark.parametrize("pair", ["unit-cycle", "random-cycle"])
    def test_locality_is_bitwise(self, pair, R, batched):
        """§1.3 locality bit for bit: a tightened constraint moves no output
        beyond the local horizon, not even by an ulp, whether the cycle and
        its edited copy are solved apart or in one stacked batch.

        On the unit cycle every search ends on the same root whatever path
        it takes; on the random cycle the last feasible probe depends on
        the whole trajectory, so a search coupled across trees shows here.
        """
        if pair == "unit-cycle":
            plain, defect = indistinguishable_cycle_pair(40, defect_coefficient=4.0)
        else:
            plain = cycle_instance(40, coefficient_range=(0.5, 2.0), seed=5)
            defect = perturb_coefficient(plain, "i0", "v0", 4.0)
        solver = SpecialFormLocalSolver(R)
        stacked = {}
        if batched:
            stacked = dict(zip((id(plain), id(defect)), solver.solve_batch([plain, defect])))

        def solve(instance):
            result = stacked[id(instance)] if batched else solver.solve(instance)
            return result.solution

        impact = measure_change_impact(
            plain, defect, solve, horizon=local_horizon_radius(R), tol=0.0
        )
        assert impact.changed_agents
        assert impact.is_local, impact.distances

    def test_sweeps_at_most_half_of_bisection(self):
        """Guard: a bisection from the capacity-sum limit to 1e-10 takes 36
        sweeps on this instance at R = 3; the search may take at most 18."""
        instance = random_special_form_instance(500, delta_K=3, seed=1)
        obs.configure(enabled=True)
        try:
            mark = obs.counters_mark()
            batched_upper_bounds(instance.compiled(), 1)
            counters = obs.counters_since(mark)
        finally:
            obs.configure(enabled=False)
            obs.reset()
        assert counters["kernels.trees_total"] == 500
        assert 0 < counters["kernels.bisection_sweeps"] <= 18


#: Objectives of up to five agents: with three or more siblings, a leaf sum
#: added in another order than the canonical one changes its bits.
WIDE_OBJECTIVES = random_special_form_instance(24, delta_K=5, constraint_rounds=2, seed=5)


class TestLeafFold:
    """The folded leaf level against the unfolded sweep, bit for bit."""

    @pytest.mark.parametrize(
        "build,R,reversed_subset,force_compaction",
        [
            pytest.param(instance.compiled, R, False, False, id=f"{R}-{case_id}")
            for case_id, instance in CASES + [("sf-wide", WIDE_OBJECTIVES)]
            for R in (2, 3, 5)
        ]
        + [pytest.param(stacked_cases, R, False, False, id=f"{R}-stacked") for R in (2, 3, 4)]
        + [pytest.param(stacked_cases, R, True, False, id=f"{R}-stacked-targets") for R in (2, 3)]
        + [
            pytest.param(stacked_cases, R, False, True, id=f"{R}-stacked-compacted")
            for R in (2, 3, 4)
        ],
    )
    def test_fold_matches_unfolded_sweep(
        self, build, R, reversed_subset, force_compaction, monkeypatch
    ):
        comp = build()
        targets = None
        if reversed_subset:
            targets = np.arange(0, comp.num_agents, 3, dtype=np.int64)[::-1].copy()
        if force_compaction:
            monkeypatch.setattr(kernels_mod, "_COMPACT_MIN_DROP", 1)
            monkeypatch.setattr(kernels_mod, "_COMPACT_FRACTION", 0.99)
        assert_fold_is_bitwise(comp, R - 2, targets)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(special_form_instances_with_repeats(), st.integers(min_value=0, max_value=2))
    def test_fold_matches_unfolded_sweep_with_repeats(self, instance, r):
        assert_fold_is_bitwise(instance.compiled(), r)

    def test_folded_leaves_are_not_built(self):
        """Levels stop at ``2r``; ``total_nodes`` still counts the leaves."""
        comp = CASES[2][1].compiled()
        for r in (0, 1, 2):
            bt = build_batched_trees(comp, r)
            leaves, leaf_indptr, _ = unfolded_leaf_level(bt)
            assert len(bt.levels) == 2 * r + 1 and bt.levels[-1].child_indptr is None
            assert len(bt.leaf_sums) == len(bt.levels[-1].nodes)
            assert bt.total_nodes() == sum(len(level.nodes) for level in bt.levels) + len(leaves)


class TestSiblingSlots:
    """``smoothing_adjacency`` lists partners, then siblings: the tree build
    expands objectives from those slots."""

    @pytest.mark.parametrize("case_id,instance", CASES, ids=CASE_IDS)
    def test_compiled_instance(self, case_id, instance):
        assert_sibling_slots(instance.compiled())

    def test_compiled_batch(self):
        assert_sibling_slots(stacked_cases())

    @pytest.mark.parametrize("structural_prob", [0.0, 1.0])
    def test_delta_edited_view(self, structural_prob):
        instance = random_special_form_instance(30, delta_K=4, constraint_rounds=2, seed=2)
        rng = np.random.default_rng(5)
        for _ in range(4):
            delta = random_churn_delta(instance, rng, edits=3, structural_prob=structural_prob)
            instance = delta.apply().instance
            assert_sibling_slots(instance.compiled())


class TestCompiledInstance:
    def test_cached_on_instance(self):
        instance = cycle_instance(4)
        assert instance.compiled() is instance.compiled()

    def test_csr_matches_accessors(self):
        instance = random_special_form_instance(14, delta_K=3, constraint_rounds=2, seed=9)
        comp = instance.compiled()
        for idx, v in enumerate(comp.agents):
            assert comp.capacity[idx] == instance.agent_capacity(v)
            lo, hi = comp.con_indptr[idx], comp.con_indptr[idx + 1]
            for e in range(lo, hi):
                i = comp.constraints[comp.con_indices[e]]
                assert comp.con_coeff[e] == instance.a(i, v)
                partner = instance.other_agent(i, v)
                assert comp.agents[comp.con_partner[e]] == partner
                assert comp.con_partner_coeff[e] == instance.a(i, partner)
            assert comp.objectives[comp.obj_of_agent[idx]] == instance.unique_objective(v)

    def test_sibling_sums(self):
        instance = objective_ring_instance(4, 3)
        comp = instance.compiled()
        values = np.arange(1.0, comp.num_agents + 1)
        sums = comp.sibling_sums(values)
        for idx, v in enumerate(comp.agents):
            expected = sum(values[comp.agent_index[w]] for w in instance.objective_siblings(v))
            assert sums[idx] == pytest.approx(expected, abs=1e-12)

    def test_special_view_rejects_general_instances(self):
        comp = build_general_instance().compiled()
        with pytest.raises(NotSpecialFormError):
            comp.obj_of_agent

    def test_communication_graph_cached_and_copied_by_mutators(self):
        from repro.core.solution import Solution

        instance = cycle_instance(4)
        g = instance.communication_graph()
        assert instance.communication_graph() is g
        nodes, edges = g.number_of_nodes(), g.number_of_edges()
        # measure_change_impact adds the vanished nodes of the old topology
        # (v8, v9 and their rows) to a copy of the new instance's graph,
        # never to the cached object itself.
        before = cycle_instance(5)
        measure_change_impact(before, instance, lambda inst: Solution(inst, {}), horizon=1)
        assert instance.communication_graph() is g
        assert (g.number_of_nodes(), g.number_of_edges()) == (nodes, edges)
        assert nodes < before.communication_graph().number_of_nodes()


class TestBatchedTrees:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_tree_sizes_match_reference(self, r):
        """The flat layout enumerates exactly the agent nodes of every A_u."""
        from repro._types import NodeType
        from repro.algo.alternating_tree import build_alternating_tree

        instance = random_special_form_instance(12, delta_K=3, constraint_rounds=2, seed=4)
        comp = instance.compiled()
        bt = build_batched_trees(comp, r)
        deepest = bt.levels[-1]
        # Each deepest node's folded leaves are its objective siblings.
        leaf_counts = np.diff(comp.oagents_indptr)[comp.obj_of_agent[deepest.nodes]] - 1
        for t, v in enumerate(comp.agents):
            tree = build_alternating_tree(instance, v, r, validate=False)
            expected = sum(1 for node in tree.nodes if node.kind is NodeType.AGENT)
            actual = sum(
                int(level.root_indptr[t + 1] - level.root_indptr[t]) for level in bt.levels
            )
            actual += int(leaf_counts[deepest.root_indptr[t] : deepest.root_indptr[t + 1]].sum())
            assert actual == expected

    def test_symmetric_family_collapses(self):
        """On the unit cycle every alternating tree has the same content."""
        comp = cycle_instance(12).compiled()
        bt = build_batched_trees(comp, 1)
        assert len(set(tree_signatures(bt))) == 1


class TestSmoothingKernels:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_matches_bfs_smoothing(self, r):
        instance = random_special_form_instance(15, delta_K=3, constraint_rounds=2, seed=13)
        comp = instance.compiled()
        rng = np.random.default_rng(0)
        t_values = rng.uniform(0.5, 3.0, comp.num_agents)
        bounds = dict(zip(comp.agents, t_values.tolist()))
        expected = smooth_upper_bounds(instance, bounds, r)
        smoothed = smooth_bounds_kernel(comp, t_values, r)
        for idx, v in enumerate(comp.agents):
            assert smoothed[idx] == pytest.approx(expected[v], abs=0.0)

    def test_smooth_upper_bounds_skips_agents_without_bound(self):
        """Regression: an agents= subset used to KeyError inside the ball."""
        instance = cycle_instance(6, coefficient_range=(0.5, 2.0), seed=17)
        subset = list(instance.agents)[:3]
        partial = compute_upper_bounds(instance, 1, agents=subset)
        smoothed = smooth_upper_bounds(instance, partial, 1)
        assert set(smoothed) == set(instance.agents)
        for v in subset:
            assert smoothed[v] <= partial[v] + 1e-12

    def test_smooth_upper_bounds_empty_bounds_is_inf(self):
        import math

        instance = cycle_instance(4)
        smoothed = smooth_upper_bounds(instance, {}, 1)
        assert all(math.isinf(s) for s in smoothed.values())


class TestKernelPieces:
    def test_g_recursion_and_output_match_reference_methods(self):
        instance = regular_special_form_instance(4, 3, constraint_rounds=2, seed=19)
        comp = instance.compiled()
        R, r = 4, 2
        ref = oracle.special_form_solve(instance, R)
        g_ref = oracle.g_recursion(instance, ref.smoothed_bounds, r)
        s_vec = np.asarray([ref.smoothed_bounds[v] for v in comp.agents])
        g_plus, g_minus = g_recursion_kernel(comp, s_vec, r)
        for d in range(r + 1):
            for idx, v in enumerate(comp.agents):
                assert g_plus[d][idx] == pytest.approx(g_ref.plus(v, d), abs=TOL)
                assert g_minus[d][idx] == pytest.approx(g_ref.minus(v, d), abs=TOL)
        x = output_kernel(g_plus, g_minus, R)
        for idx, v in enumerate(comp.agents):
            assert x[idx] == pytest.approx(ref.solution[v], abs=TOL)

    def test_targets_subset(self):
        instance = random_special_form_instance(12, delta_K=3, constraint_rounds=2, seed=23)
        comp = instance.compiled()
        full = batched_upper_bounds(comp, 1)
        subset = np.asarray([0, 5, 7], dtype=np.int64)
        partial = batched_upper_bounds(comp, 1, targets=subset)
        np.testing.assert_allclose(partial, full[subset], atol=0.0)


class TestTreeNodeLimit:
    """A build that would pass ``MAX_TREE_NODES`` is refused before it allocates.

    The limit is lowered to 10,000 nodes so the test never allocates much;
    the special form of ``random_instance(50, seed=1)`` has 539 tree nodes
    at R = 3 and 13,934 at R = 6.
    """

    LIMIT = 10_000

    @staticmethod
    def special_form():
        general = random_instance(50, delta_I=3, delta_K=3, seed=1)
        return to_special_form(preprocess(general).instance).transformed

    def test_large_R_is_refused_within_the_limit(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "MAX_TREE_NODES", self.LIMIT)
        held = []

        class CountingLevel(kernels_mod.TreeLevel):
            def __init__(self, nodes, kind, root_counts):
                held.append(len(nodes))
                super().__init__(nodes, kind, root_counts)

        monkeypatch.setattr(kernels_mod, "TreeLevel", CountingLevel)
        comp = self.special_form().compiled()
        with pytest.raises(SolverError) as exc:
            batched_upper_bounds(comp, 40 - 2)
        message = str(exc.value)
        assert "R=40" in message and f"limit of {self.LIMIT} tree nodes" in message
        built = int(re.search(r"(\d+) nodes built", message).group(1))
        assert built == sum(held) <= self.LIMIT

    def test_tree_nodes_counts_the_built_levels(self):
        """``kernels.tree_nodes`` counts the built levels, not the folded leaves."""
        comp = self.special_form().compiled()
        bt = build_batched_trees(comp, 1)
        obs.configure(enabled=True)
        try:
            mark = obs.counters_mark()
            batched_upper_bounds(comp, 1)
            counters = obs.counters_since(mark)
        finally:
            obs.configure(enabled=False)
            obs.reset()
        built = sum(len(level.nodes) for level in bt.levels)
        assert counters["kernels.tree_nodes"] == built < bt.total_nodes() == 539

    def test_small_R_still_solves(self, monkeypatch):
        instance = self.special_form()
        expected = SpecialFormLocalSolver(R=3).solve(instance)
        assert build_batched_trees(instance.compiled(), 1).total_nodes() == 539
        monkeypatch.setattr(kernels_mod, "MAX_TREE_NODES", self.LIMIT)
        result = SpecialFormLocalSolver(R=3).solve(instance)
        assert result.t.tobytes() == expected.t.tobytes()
        assert result.solution.value_array().tobytes() == expected.solution.value_array().tobytes()
