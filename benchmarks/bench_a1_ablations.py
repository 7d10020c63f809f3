"""A1 — Ablation study: why the algorithm's ingredients are necessary.

Not a table from the paper, but an executable justification of its design
choices (paper §5–6): dropping the smoothing step (§5.3) or the up/down
averaging (§6.2, Eq. 18) produces outputs that are *infeasible*, and keeping
only the conservative half of the averaging keeps feasibility but destroys
the approximation guarantee.  The full algorithm is the only variant that is
simultaneously feasible and within the Theorem 1 factor on every family.
"""

from __future__ import annotations

import pytest

from repro.algo.ablations import ABLATION_VARIANTS, ablation_report, solve_ablation
from repro.generators import cycle_instance, objective_ring_instance, random_special_form_instance

from _harness import emit_table


def _instances():
    return {
        "cycle-het-9": cycle_instance(9, coefficient_range=(0.3, 3.0), seed=5),
        "sf-random-16": random_special_form_instance(16, delta_K=3, constraint_rounds=2, seed=3),
        "ring-K3": objective_ring_instance(5, 3),
    }


def test_a1_ablations(benchmark):
    rows = ablation_report(_instances(), R_values=(2, 3), variants=ABLATION_VARIANTS)
    emit_table(
        "A1",
        "Ablation study: feasibility and ratio per variant",
        rows,
        columns=[
            "family",
            "R",
            "variant",
            "feasible",
            "max_violation",
            "utility",
            "optimum",
            "measured_ratio",
        ],
        notes=(
            "'no_smoothing' uses t_v instead of s_v; 'down_only'/'up_only' skip the up/down "
            "averaging of Eq. 18.  Only the full algorithm is feasible on every family *and* "
            "within the Theorem 1 guarantee."
        ),
    )

    full_rows = [row for row in rows if row["variant"] == "full"]
    assert all(row["feasible"] for row in full_rows)

    # The ablations demonstrably break something at r >= 1.
    r1_rows = [row for row in rows if row["R"] >= 3]
    assert any(row["variant"] == "no_smoothing" and not row["feasible"] for row in r1_rows)
    assert any(row["variant"] == "down_only" and not row["feasible"] for row in r1_rows)
    up_only = [row for row in rows if row["variant"] == "up_only"]
    assert all(row["feasible"] for row in up_only)
    assert any(row["measured_ratio"] > 5.0 for row in up_only)

    instance = _instances()["sf-random-16"]
    benchmark.pedantic(solve_ablation, args=(instance, 3, "full"), rounds=3, iterations=1)
