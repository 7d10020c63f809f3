"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

# Make the benchmark harness (benchmarks/_harness.py and friends) importable
# from tests, mirroring how pytest resolves it when the benchmarks themselves
# run (rootdir-relative, no package).
_BENCHMARKS_DIR = str(Path(__file__).resolve().parents[1] / "benchmarks")
if _BENCHMARKS_DIR not in sys.path:
    sys.path.insert(0, _BENCHMARKS_DIR)

from repro.core.builder import InstanceBuilder
from repro.core.instance import MaxMinInstance
from repro.core.lp import solve_maxmin_lp
from repro.core.solution import Solution
from repro.generators import (
    cycle_instance,
    objective_ring_instance,
    random_instance,
    random_special_form_instance,
    regular_special_form_instance,
    sensor_network_instance,
    torus_instance,
)

# ----------------------------------------------------------------------
# Tiny hand-built instances
# ----------------------------------------------------------------------


def build_tiny_instance() -> MaxMinInstance:
    """Two agents sharing one constraint and one objective (optimum 1)."""
    builder = InstanceBuilder(name="tiny")
    builder.add_constraint_term("i1", "a", 1.0)
    builder.add_constraint_term("i1", "b", 1.0)
    builder.add_objective_term("k1", "a", 1.0)
    builder.add_objective_term("k1", "b", 1.0)
    return builder.build()


def build_general_instance() -> MaxMinInstance:
    """A small general instance with ΔI = 3, ΔK = 2 and |K_v| up to 2."""
    builder = InstanceBuilder(name="small-general")
    builder.add_packing_constraint("i0", {"v0": 1.0, "v1": 2.0, "v2": 1.0})
    builder.add_packing_constraint("i1", {"v1": 1.0, "v3": 1.0})
    builder.add_packing_constraint("i2", {"v2": 0.5, "v4": 1.5})
    builder.add_covering_objective("k0", {"v0": 1.0, "v3": 0.5})
    builder.add_covering_objective("k1", {"v1": 2.0, "v2": 1.0})
    builder.add_covering_objective("k2", {"v2": 1.0, "v4": 1.0})
    return builder.build()


def build_degenerate_instance() -> MaxMinInstance:
    """An instance with every kind of degeneracy §4 mentions."""
    builder = InstanceBuilder(name="degenerate")
    # Normal core.
    builder.add_constraint_term("i_core", "a", 1.0)
    builder.add_constraint_term("i_core", "b", 1.0)
    builder.add_objective_term("k_core", "a", 1.0)
    builder.add_objective_term("k_core", "b", 1.0)
    # Isolated constraint and isolated objective.
    builder.add_constraint("i_isolated")
    builder.add_objective("k_isolated")
    # Non-contributing agent (constraint but no objective).
    builder.add_constraint_term("i_nc", "c", 1.0)
    builder.add_constraint_term("i_nc", "a", 1.0)
    # Unconstrained agent (objective but no constraint).
    builder.add_objective_term("k_unc", "d", 2.0)
    return builder.build()


# ----------------------------------------------------------------------
# Pytest fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def tiny_instance() -> MaxMinInstance:
    return build_tiny_instance()


@pytest.fixture
def general_instance() -> MaxMinInstance:
    return build_general_instance()


@pytest.fixture
def degenerate_instance() -> MaxMinInstance:
    return build_degenerate_instance()


@pytest.fixture
def special_form_cycle() -> MaxMinInstance:
    return cycle_instance(6, coefficient_range=(0.5, 2.0), seed=11)


@pytest.fixture
def unit_cycle() -> MaxMinInstance:
    return cycle_instance(6)


@pytest.fixture
def ring_instance() -> MaxMinInstance:
    return objective_ring_instance(4, 3)


@pytest.fixture
def random_general() -> MaxMinInstance:
    return random_instance(18, delta_I=3, delta_K=3, extra_constraints=2, extra_objectives=2, seed=7)


@pytest.fixture
def random_special() -> MaxMinInstance:
    return random_special_form_instance(14, delta_K=3, constraint_rounds=2, seed=9)


def special_form_family():
    """A small family of special-form instances used by several test modules."""
    return [
        cycle_instance(5, coefficient_range=(0.5, 2.0), seed=1),
        cycle_instance(8),
        random_special_form_instance(12, delta_K=3, constraint_rounds=1, seed=3),
        random_special_form_instance(16, delta_K=4, constraint_rounds=2, seed=4),
        regular_special_form_instance(4, 3, constraint_rounds=2, seed=5),
        objective_ring_instance(4, 3),
    ]


def mid_size_special_form_family():
    """Two 60-agent special-form instances, larger than any in
    :func:`special_form_family`, for the oracle-equivalence suites."""
    return [
        cycle_instance(30, coefficient_range=(0.5, 2.0), seed=0),
        regular_special_form_instance(20, 3, constraint_rounds=2, seed=0),
    ]


def general_family():
    """A small family of general instances used by several test modules."""
    return [
        build_general_instance(),
        random_instance(15, delta_I=3, delta_K=2, extra_constraints=2, extra_objectives=1, seed=21),
        random_instance(20, delta_I=4, delta_K=3, extra_constraints=3, extra_objectives=3, seed=22),
        torus_instance(3, 4, seed=23),
        sensor_network_instance(12, 4, seed=24).instance,
        objective_ring_instance(3, 4),
    ]


# ----------------------------------------------------------------------
# Assertion helpers
# ----------------------------------------------------------------------


def invalid_instance_documents():
    """``(id, text)`` pairs: valid JSON instance documents that describe no
    valid instance (duplicate agent ids, a zero coefficient, a coefficient
    that is no number)."""
    import json

    from repro.io.serialization import instance_to_json

    docs = []
    for case in ("duplicate-agent", "zero-coefficient", "non-numeric-coefficient"):
        doc = json.loads(instance_to_json(build_tiny_instance()))
        if case == "duplicate-agent":
            doc["agents"] = [doc["agents"][0]] * 2
        else:
            doc["a"][0]["coefficient"] = 0.0 if case == "zero-coefficient" else "abc"
        docs.append((case, json.dumps(doc)))
    return docs


def repeated_edge_documents():
    """``(family, text, message)`` triples: the tiny instance's document with
    its first ``a`` (or ``c``) row listed again under another coefficient,
    and the refusal the loader must give."""
    import json

    from repro.io.serialization import instance_to_json

    docs = []
    for family, kind in (("a", "constraint"), ("c", "objective")):
        doc = json.loads(instance_to_json(build_tiny_instance()))
        first = doc[family][0]
        doc[family].insert(1, dict(first, coefficient=5.0))
        message = f"duplicate {kind} coefficient for ({first[kind]!r}, {first['agent']!r})"
        docs.append((family, json.dumps(doc), message))
    return docs


def spy_view_builds(monkeypatch) -> list:
    """Record every instance whose lazy dict views get built.

    Returns a list that gains one entry (the instance's name) per
    ``MaxMinInstance`` dict-view materialisation while ``monkeypatch`` is
    active — the spy behind "this path reads only the CSR arrays".
    """
    import repro.core.instance as instance_mod

    built = []
    real = instance_mod._Views

    class CountingViews(real):
        __slots__ = ()

        def __init__(self, comp):
            built.append(comp.instance.name)
            super().__init__(comp)

    monkeypatch.setattr(instance_mod, "_Views", CountingViews)
    return built


def spy_solution_reads(monkeypatch) -> list:
    """Record every per-agent read of a :class:`Solution`.

    Returns a list that gains one ``(method, label)`` entry per call of
    ``Solution.__getitem__``, ``Solution.get`` or ``Solution.as_dict``
    while ``monkeypatch`` is active — the spy behind "this path reads a
    solution only as its vector".
    """
    reads = []
    for name in ("__getitem__", "get", "as_dict"):
        real = getattr(Solution, name)

        def spy(self, *args, _real=real, _name=name, **kwargs):
            reads.append((_name, self.label))
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Solution, name, spy)
    return reads


def assert_feasible(solution: Solution, tol: float = 1e-8) -> None:
    report = solution.check_feasibility(tol)
    assert report.feasible, (
        f"solution {solution.label!r} infeasible: max violation {report.max_violation}, "
        f"violated={report.violated_constraints[:3]}, negative={report.negative_agents[:3]}"
    )


def assert_within_guarantee(
    instance: MaxMinInstance,
    solution: Solution,
    guaranteed_ratio: float,
    optimum: float | None = None,
    tol: float = 1e-6,
) -> float:
    """Assert ``optimum ≤ guaranteed_ratio · utility`` and return the measured ratio."""
    if optimum is None:
        optimum = solve_maxmin_lp(instance).optimum
    utility = solution.utility()
    if optimum <= tol:
        return 1.0
    assert utility > 0.0, f"zero utility against positive optimum {optimum} on {instance.name}"
    measured = optimum / utility
    assert measured <= guaranteed_ratio * (1.0 + tol), (
        f"guarantee violated on {instance.name}: measured {measured:.6f} > "
        f"guaranteed {guaranteed_ratio:.6f} (opt={optimum:.6f}, util={utility:.6f})"
    )
    return measured
