"""Microbenchmark: incremental re-solve vs full re-solve under churn.

Two measurements for the delta-editable compile + confined-kernel path:

* **single-edit** — one constraint-coefficient edit on a large cycle
  instance (n ≈ 1e4 agents): time ``CompiledDelta.apply()`` +
  ``IncrementalSolveState.apply_delta()`` against a full vectorized
  ``SpecialFormLocalSolver.solve()`` of the edited instance.  The
  incremental state is asserted bitwise identical to a from-scratch solve
  and the edit must pass the ``measure_change_impact`` locality oracle.
  This is the ≥ 5× acceptance row: the incremental path touches only the
  dirty r-ball (O(changed · r-ball)), the full path re-runs every tree.
* **churn-sweep** — a :class:`~repro.distributed.dynamics.DynamicNetwork`
  driven by ``random_churn_delta`` at increasing edit rates (mixed
  coefficient + structural churn).  Per tick we time the incremental
  re-solve and a from-scratch re-solve of the same edited instance, and
  report mean dirty / recomputed / reused agent counts — the amortization
  curve: as churn grows the dirty balls merge and the incremental
  advantage shrinks toward 1×.

An untimed ``obs_counter_rollup`` pass records the dynamics counters
(``dynamics.ticks``, ``dynamics.dirty_agents``, ``dynamics.reused_agents``,
``compiled.delta_edits``, ``solver.incremental_*``) for the swept
configurations.  The aggregate is written to
``benchmarks/BENCH_dynamics.json``; ``--smoke`` runs tiny sizes, skips the
speedup assertion and writes to ``benchmarks/results/smoke/`` (uploaded as
a CI artifact) instead of the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamics.py            # full grid
    PYTHONPATH=src python benchmarks/bench_dynamics.py --smoke    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # allow `import _harness` when run as a script
    sys.path.insert(0, str(BENCH_DIR))

from _harness import obs_counter_rollup, write_bench_payload
from repro.algo.local_solver import IncrementalSolveState, SpecialFormLocalSolver
from repro.analysis.reporting import format_table
from repro.distributed.dynamics import (
    DynamicNetwork,
    local_horizon_radius,
    measure_change_impact,
    random_churn_delta,
)
from repro.engine.registry import solver_version
from repro.generators import cycle_instance, random_special_form_instance

DEFAULT_OUTPUT = BENCH_DIR / "BENCH_dynamics.json"


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _single_edit_row(n_agents: int, R: int, repeats: int) -> Dict[str, object]:
    """One coefficient edit on a 2·segments-agent cycle: incremental vs full."""
    inst = cycle_instance(max(2, n_agents // 2), seed=0)
    solver = SpecialFormLocalSolver(R=R)
    state = IncrementalSolveState(solver, inst)

    t_full = _best_of(repeats, lambda: solver.solve(state.instance))

    edge = (state.instance.constraints[1], state.instance.agents_of_constraint(
        state.instance.constraints[1])[0])
    coeffs = iter([1.25, 1.5, 1.75, 2.0, 1.25, 1.5, 1.75, 2.0])

    def one_edit() -> None:
        delta = state.comp.delta()
        delta.set_constraint_coefficient(edge[0], edge[1], next(coeffs))
        state.apply_delta(delta.apply())

    before = state.instance
    t_inc = _best_of(repeats, one_edit)

    # Correctness: bitwise vs from-scratch, plus the locality oracle on the
    # last applied edit.
    fresh = IncrementalSolveState(solver, state.instance)
    max_error = float(np.max(np.abs(fresh.x - state.x))) if len(state.x) else 0.0
    impact = measure_change_impact(
        before, state.instance, lambda i: solver.solve(i).solution,
        local_horizon_radius(R),
    )
    return {
        "kind": "single-edit",
        "n_agents": state.comp.num_agents,
        "R": R,
        "edits_per_tick": 1,
        "ticks": repeats,
        "t_full_s": round(t_full, 6),
        "t_incremental_s": round(t_inc, 6),
        "speedup": round(t_full / t_inc, 2) if t_inc > 0 else float("inf"),
        "max_error": max_error,
        "locality_ok": bool(impact.is_local),
    }


def _churn_row(
    n_agents: int, R: int, ticks: int, edits: int, structural_prob: float, seed: int
) -> Dict[str, object]:
    """Mean per-tick incremental vs from-scratch cost at one churn rate."""
    inst = random_special_form_instance(n_agents, seed=seed)
    net = DynamicNetwork(inst, R=R)
    net.solution  # warm the initial solve outside the timed loop
    rng = np.random.default_rng(seed)

    inc_times: List[float] = []
    full_times: List[float] = []
    dirty: List[int] = []
    recomputed: List[int] = []
    reused: List[int] = []
    for _ in range(ticks):
        delta = random_churn_delta(
            net.instance, rng, edits=edits, structural_prob=structural_prob
        )
        start = time.perf_counter()
        tick = net.apply(delta)
        inc_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        net.solver.solve(net.instance)
        full_times.append(time.perf_counter() - start)
        dirty.append(len(tick.dirty_agents))
        recomputed.append(len(tick.recomputed_agents))
        reused.append(tick.reused_agents)

    fresh = IncrementalSolveState(net.solver, net.instance)
    max_error = float(np.max(np.abs(fresh.x - net.state.x))) if len(fresh.x) else 0.0
    t_inc = float(np.mean(inc_times))
    t_full = float(np.mean(full_times))
    return {
        "kind": "churn-sweep",
        "n_agents": n_agents,
        "R": R,
        "edits_per_tick": edits,
        "ticks": ticks,
        "t_full_s": round(t_full, 6),
        "t_incremental_s": round(t_inc, 6),
        "speedup": round(t_full / t_inc, 2) if t_inc > 0 else float("inf"),
        "max_error": max_error,
        "mean_dirty": round(float(np.mean(dirty)), 1),
        "mean_recomputed": round(float(np.mean(recomputed)), 1),
        "mean_reused": round(float(np.mean(reused)), 1),
    }


def _counter_row(n_agents: int, R: int, ticks: int, seed: int) -> Dict[str, object]:
    """Untimed pass recording the dynamics / delta / solver counters."""
    inst = random_special_form_instance(n_agents, seed=seed)

    def run() -> None:
        net = DynamicNetwork(inst, R=R)
        net.solution
        rng = np.random.default_rng(seed)
        for _ in range(ticks):
            net.random_tick(rng, edits=2, structural_prob=0.3)

    _, counters = obs_counter_rollup(run)
    keep = ("dynamics.", "compiled.delta", "solver.incremental", "kernels.confined")
    return {
        "kind": "counters",
        "n_agents": n_agents,
        "R": R,
        "edits_per_tick": 2,
        "ticks": ticks,
        "counters": {
            k: v for k, v in sorted(counters.items()) if k.startswith(keep)
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--single-n", type=int, default=10000, help="agents in the single-edit row"
    )
    parser.add_argument(
        "--churn-n", type=int, default=2000, help="agents in the churn-sweep rows"
    )
    parser.add_argument("--ticks", type=int, default=10, help="ticks per churn row")
    parser.add_argument(
        "--edit-rates", type=int, nargs="+", default=[1, 4, 16],
        help="edits per tick for the churn sweep",
    )
    parser.add_argument("--structural-prob", type=float, default=0.3)
    parser.add_argument("-R", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT), help="aggregate JSON path")
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="single-edit incremental-vs-full acceptance bar",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-size CI mode: no speedup assertion; rows go to results/smoke/",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.single_n = 200
        args.churn_n = 80
        args.ticks = 3
        args.edit_rates = [1, 4]
        args.repeats = 2
        args.min_speedup = 0.0

    rows: List[Dict[str, object]] = [
        _single_edit_row(args.single_n, args.R, args.repeats)
    ]
    for edits in args.edit_rates:
        rows.append(
            _churn_row(
                args.churn_n, args.R, args.ticks, edits, args.structural_prob, args.seed
            )
        )
    rows.append(_counter_row(args.churn_n if not args.smoke else 80, args.R, args.ticks, args.seed))

    print(
        format_table(
            [row for row in rows if row["kind"] != "counters"],
            [
                "kind",
                "n_agents",
                "edits_per_tick",
                "ticks",
                "t_full_s",
                "t_incremental_s",
                "speedup",
                "max_error",
                "mean_dirty",
                "mean_recomputed",
                "mean_reused",
            ],
            title=f"bench_dynamics: incremental vs full re-solve (R={args.R})",
        )
    )

    single = rows[0]
    errors: List[str] = []
    for row in rows:
        if row["kind"] == "counters":
            continue
        if float(row["max_error"]) > 1e-9:
            errors.append(f"{row['kind']} (edits={row['edits_per_tick']}): max_error {row['max_error']}")
    if not single["locality_ok"]:
        errors.append("single-edit: measure_change_impact locality oracle failed")
    if errors:
        raise AssertionError("; ".join(errors))
    if not args.smoke and float(single["speedup"]) < args.min_speedup:
        raise AssertionError(
            f"single-edit speedup {single['speedup']}x below the "
            f"{args.min_speedup}x acceptance bar at n={single['n_agents']}"
        )

    payload = {
        "format": "bench-dynamics-trajectory",
        "version": 1,
        "local_version": solver_version("local"),
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "R": args.R,
        "min_speedup": args.min_speedup,
        "structural_prob": args.structural_prob,
        "rows": rows,
    }
    output = write_bench_payload(
        payload, args.output, smoke=args.smoke, default_output=DEFAULT_OUTPUT
    )
    print(f"\nwrote {len(rows)} rows to {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
