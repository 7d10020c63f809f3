"""Shared helpers for the benchmark harness.

Every ``bench_e*.py`` module is one experiment (E1 … E10) that checks a
claim of the paper; ``bench_a1_ablations.py`` is the ablation A1.  Besides
timing the core computation with ``pytest-benchmark``, each module
*regenerates the rows/series the paper's claims speak about* and

* prints them as an ASCII table (visible with ``pytest -s`` or in the
  captured output), and
* writes them to ``benchmarks/results/<experiment>.md``.

The benchmarks also assert the qualitative *shape* of each result (who wins,
which bound holds) so that a regression in the algorithms fails the harness
rather than silently producing a different table.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.analysis.reporting import format_markdown_table, format_table

#: Where the regenerated tables are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_bench_payload(
    payload: Dict[str, object],
    output: Union[str, Path],
    *,
    smoke: bool,
    default_output: Union[str, Path],
) -> Path:
    """Write a benchmark's aggregate JSON and return the path written.

    Smoke runs redirect the *default* output into ``results/smoke/`` (which
    CI uploads as a workflow artifact) so they never clobber the committed
    trajectory baseline; an explicitly requested ``--output`` path is always
    honored, smoke or not.
    """
    output = Path(output)
    if smoke and output == Path(default_output):
        output = RESULTS_DIR / "smoke" / output.name
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return output


def obs_counter_rollup(fn: Callable[[], object]) -> Tuple[object, Dict[str, float]]:
    """Run ``fn`` with tracing on and return ``(result, counter_deltas)``.

    Benchmarks call this on a separate, *untimed* pass so the timed
    measurements stay free of tracing overhead while the emitted
    ``BENCH_*.json`` rows still carry the solver counters (bisection
    iterations, dedup hits, peel rounds, …) for the configuration they
    timed.  The prior tracing state is restored afterwards.
    """
    prior = obs.enabled()
    obs.configure(enabled=True)
    mark = obs.counters_mark()
    try:
        result = fn()
        return result, obs.counters_since(mark)
    finally:
        obs.configure(enabled=prior)


def emit_table(
    experiment_id: str,
    title: str,
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    notes: str = "",
) -> str:
    """Print a result table and persist it under ``benchmarks/results/``."""
    text = format_table(rows, columns, title=f"{experiment_id}: {title}")
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    markdown = [f"# {experiment_id}: {title}", ""]
    if notes:
        markdown.extend([notes, ""])
    markdown.append(format_markdown_table(rows, columns))
    markdown.append("")
    (RESULTS_DIR / f"{experiment_id.lower()}.md").write_text("\n".join(markdown), encoding="utf-8")
    return text


def standard_special_form_family(seed: int = 0):
    """The special-form instance family shared by several experiments."""
    from repro.generators import (
        cycle_instance,
        objective_ring_instance,
        random_special_form_instance,
        regular_special_form_instance,
    )

    return {
        "cycle-12": cycle_instance(12, coefficient_range=(0.5, 2.0), seed=seed),
        "cycle-unit-16": cycle_instance(16),
        "sf-random-20": random_special_form_instance(20, delta_K=3, constraint_rounds=2, seed=seed + 1),
        "sf-random-24": random_special_form_instance(24, delta_K=4, constraint_rounds=2, seed=seed + 2),
        "regular-K3": regular_special_form_instance(6, 3, constraint_rounds=2, seed=seed + 3),
        "ring-K3": objective_ring_instance(6, 3),
        "ring-K4": objective_ring_instance(5, 4),
    }


def standard_general_family(seed: int = 0):
    """The general instance family shared by several experiments."""
    from repro.generators import (
        bandwidth_allocation_instance,
        random_instance,
        sensor_network_instance,
        torus_instance,
    )

    return {
        "random-dI3-dK3": random_instance(
            24, delta_I=3, delta_K=3, extra_constraints=4, extra_objectives=4, seed=seed
        ),
        "random-dI4-dK2": random_instance(
            24, delta_I=4, delta_K=2, extra_constraints=4, extra_objectives=2, seed=seed + 1
        ),
        "torus-5x4": torus_instance(5, 4, seed=seed + 2),
        "sensor-20x6": sensor_network_instance(20, 6, radius=0.35, seed=seed + 3).instance,
        "bandwidth-12x6": bandwidth_allocation_instance(12, 6, seed=seed + 4).instance,
    }
