"""Microbenchmark: the per-node oracle vs the vectorized kernels across an n grid.

For each (family × n × R) configuration the script solves the same
special-form instance with :func:`repro.oracle.special_form_solve` and with
``SpecialFormLocalSolver``, records wall times, the speedup, the output agreement and the tree
deduplication factor, and asserts the acceptance bar (≥ ``--min-speedup``
at ``n ≥ --speedup-floor-n``) unless running in ``--smoke`` mode.

Rows are stored through the engine's content-addressed
:class:`~repro.engine.cache.ResultCache` (keyed by configuration digest ×
``local`` solver version), so a re-run with an unchanged configuration and
solver version reuses the recorded measurements; the aggregate is then
written to ``benchmarks/BENCH_kernels.json`` — the committed trajectory
baseline.  ``--fresh`` bypasses the cache for a clean re-measurement.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI smoke

The CI smoke step runs a tiny size so the kernels are checked against the
oracle on every push without paying the oracle's full-grid cost.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # allow `import _harness` when run as a script
    sys.path.insert(0, str(BENCH_DIR))

from repro import oracle
from repro.algo.kernels import build_batched_trees
from repro.algo.local_solver import SpecialFormLocalSolver
from _harness import obs_counter_rollup, write_bench_payload
from repro.analysis.reporting import format_table
from repro.engine.cache import ResultCache
from repro.engine.registry import solver_version
from repro.generators import (
    cycle_instance,
    objective_ring_instance,
    regular_special_form_instance,
)

DEFAULT_OUTPUT = BENCH_DIR / "BENCH_kernels.json"
DEFAULT_CACHE_DIR = BENCH_DIR / "results" / "kernels_cache"

FAMILIES = ("cycle", "regular", "ring")


def make_instance(family: str, n: int, seed: int):
    """A special-form instance of ``family`` with ≈ ``n`` agents."""
    if family == "cycle":
        return cycle_instance(max(2, n // 2), coefficient_range=(0.5, 2.0), seed=seed)
    if family == "regular":
        # delta_K = 3 with an even objective count keeps the matching valid.
        m = max(2, 2 * max(1, round(n / 6)))
        return regular_special_form_instance(m, 3, constraint_rounds=2, seed=seed)
    if family == "ring":
        return objective_ring_instance(max(2, n // 3), 3)
    raise ValueError(f"unknown family {family!r} (expected one of {FAMILIES})")


def _solver_code_digest() -> str:
    """Digest of the solver source files whose speed this benchmark measures.

    Timings must not survive changes that alter performance without altering
    output (SOLVER_VERSIONS only tracks the latter), so the cache key folds
    in the code identity of the hot path.
    """
    import repro.algo.kernels as kernels_mod
    import repro.algo.local_solver as solver_mod
    import repro.algo.tree_recursion as recursion_mod
    import repro.algo.upper_bound as upper_mod
    import repro.core.compiled as compiled_mod

    h = hashlib.sha256()
    for mod in (kernels_mod, compiled_mod, solver_mod, upper_mod, recursion_mod, oracle):
        h.update(Path(mod.__file__).read_bytes())
    return h.hexdigest()


def config_key(family: str, n: int, R: int, seed: int) -> str:
    """Cache key of one configuration: digest × solver version × code identity."""
    payload = json.dumps(
        {
            "bench": "bench_kernels",
            "format_version": 1,
            "family": family,
            "n": n,
            "R": R,
            "seed": seed,
            "solver_version": solver_version("local"),
            "code_digest": _solver_code_digest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def measure(family: str, n: int, R: int, seed: int) -> Dict[str, object]:
    """Time the oracle and the kernels on one fresh instance; the flat record."""
    instance = make_instance(family, n, seed)

    start = time.perf_counter()
    ref = oracle.special_form_solve(instance, R)
    t_reference = time.perf_counter() - start

    # The vectorized timing deliberately includes building the compiled CSR
    # view (the instance has not been compiled yet at this point): that is
    # the cost a cold solve pays.
    start = time.perf_counter()
    vec = SpecialFormLocalSolver(R=R).solve(instance)
    t_vectorized = time.perf_counter() - start

    max_diff = max(abs(ref.solution[v] - vec.solution[v]) for v in instance.agents)
    trees = build_batched_trees(instance.compiled(), R - 2)
    distinct = len(set(trees.signatures()))

    # Untimed traced re-solve: the timed passes above stay tracing-free.
    _, counters = obs_counter_rollup(
        lambda: SpecialFormLocalSolver(R=R).solve(instance)
    )

    return {
        "family": family,
        "n_agents": instance.num_agents,
        "R": R,
        "seed": seed,
        "t_reference_s": round(t_reference, 6),
        "t_vectorized_s": round(t_vectorized, 6),
        "speedup": round(t_reference / t_vectorized, 2) if t_vectorized > 0 else float("inf"),
        "max_abs_diff": max_diff,
        "trees": trees.num_trees,
        "distinct_trees": distinct,
        "utility_vectorized": vec.utility(),
        "obs": counters,
    }


def run(
    families: List[str],
    sizes: List[int],
    R: int,
    seed: int,
    cache: Optional[ResultCache],
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for family in families:
        for n in sizes:
            key = config_key(family, n, R, seed)
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                rows.extend(cached)
                continue
            row = measure(family, n, R, seed)
            if cache is not None:
                cache.put(key, [row])
            rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", nargs="+", default=["cycle", "regular"], choices=list(FAMILIES))
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 5000, 10000])
    parser.add_argument("-R", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT), help="aggregate JSON path")
    parser.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR), help="ResultCache directory")
    parser.add_argument("--fresh", action="store_true", help="ignore cached measurements")
    parser.add_argument("--min-speedup", type=float, default=10.0, help="acceptance bar")
    parser.add_argument(
        "--speedup-floor-n", type=int, default=5000, help="sizes below this skip the bar"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-size CI mode: sizes [60], no speedup assertion, no output file",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes = [60]
        args.min_speedup = 0.0

    cache = None if (args.fresh or args.smoke) else ResultCache(args.cache_dir)
    rows = run(args.families, args.sizes, args.R, args.seed, cache)

    print(
        format_table(
            rows,
            [
                "family",
                "n_agents",
                "R",
                "t_reference_s",
                "t_vectorized_s",
                "speedup",
                "max_abs_diff",
                "trees",
                "distinct_trees",
            ],
            title="bench_kernels: oracle vs vectorized kernels",
        )
    )

    failures = [
        row
        for row in rows
        if int(row["n_agents"]) >= args.speedup_floor_n
        and float(row["speedup"]) < args.min_speedup
    ]
    correctness = [row for row in rows if float(row["max_abs_diff"]) > 1e-9]

    payload = {
        "format": "bench-kernels-trajectory",
        "version": 1,
        "solver_version": solver_version("local"),
        "R": args.R,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "min_speedup_at_floor": args.min_speedup,
        "speedup_floor_n": args.speedup_floor_n,
        "rows": rows,
    }
    output = write_bench_payload(
        payload, args.output, smoke=args.smoke, default_output=DEFAULT_OUTPUT
    )
    print(f"\nwrote {len(rows)} rows to {output}")

    if correctness:
        print(f"FAIL: {len(correctness)} configuration(s) exceed 1e-9 output difference")
        return 1
    if failures:
        print(
            f"FAIL: {len(failures)} configuration(s) below the {args.min_speedup:.0f}x bar "
            f"at n >= {args.speedup_floor_n}"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
