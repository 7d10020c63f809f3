"""Microbenchmark: safe baseline + distributed runtime, per-node oracle vs vectorized.

Covers the two hot paths PR 3 ported onto the CSR layer — the prior-work
safe baseline (centralized and as the 2-round protocol) and the synchronous
runtime driving the E5 local protocol.  For each (family × n) configuration
the script times the per-node oracle and the production path of

* ``safe_solution`` against :func:`repro.oracle.safe_solution` (the compiled view is warmed first: in every sweep that
  also runs the §5 solver — the default — the lowering is already paid, so
  the warm number is the cost the sweep actually sees),
* ``DistributedSafeSolver`` (plane construction included — a protocol run
  always pays it), and
* ``DistributedLocalSolver`` at R=2 (the E5 scaling protocol), also
  reporting the per-round cost of the runtime itself,

where the oracle of the two protocols is their per-node simulator,
:mod:`repro.oracle.distributed`.  It checks that both sides agree
(outputs and total message counts), and
asserts the acceptance bar (runtime speedup ≥ ``--min-speedup`` at
``n ≥ --speedup-floor-n``) unless running in ``--smoke`` mode.

Rows are stored through the engine's content-addressed
:class:`~repro.engine.cache.ResultCache` (keyed by configuration digest ×
``safe`` solver version × code identity of the measured modules), so a
re-run with unchanged code reuses the recorded measurements; the aggregate
is written to ``benchmarks/BENCH_safe_e5.json`` — the committed trajectory
baseline alongside ``BENCH_kernels.json``.  ``--fresh`` bypasses the cache.

Usage::

    PYTHONPATH=src python benchmarks/bench_safe_e5.py            # full grid
    PYTHONPATH=src python benchmarks/bench_safe_e5.py --smoke    # CI smoke
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
from repro.algo.safe_algorithm import safe_solution
from _harness import obs_counter_rollup, write_bench_payload
from repro.analysis.reporting import format_table
from repro.distributed import DistributedLocalSolver, DistributedSafeSolver
from repro.engine.cache import ResultCache
from repro.oracle import distributed as oracle_dist
from repro.engine.registry import solver_version
from repro.generators import cycle_instance, regular_special_form_instance

DEFAULT_OUTPUT = BENCH_DIR / "BENCH_safe_e5.json"
DEFAULT_CACHE_DIR = BENCH_DIR / "results" / "safe_e5_cache"

FAMILIES = ("cycle", "regular")


def make_instance(family: str, n: int, seed: int):
    """A special-form instance of ``family`` with ≈ ``n`` agents."""
    if family == "cycle":
        return cycle_instance(max(2, n // 2), coefficient_range=(0.5, 2.0), seed=seed)
    if family == "regular":
        m = max(2, 2 * max(1, round(n / 6)))
        return regular_special_form_instance(m, 3, constraint_rounds=2, seed=seed)
    raise ValueError(f"unknown family {family!r} (expected one of {FAMILIES})")


def _code_digest() -> str:
    """Digest of the modules whose speed this benchmark measures.

    Timings must not survive changes that alter performance without altering
    output (SOLVER_VERSIONS only tracks the latter), so the cache key folds
    in the code identity of the hot path.
    """
    import repro.algo.kernels as kernels_mod
    import repro.algo.safe_algorithm as safe_mod
    import repro.analysis.views as views_mod
    import repro.core.compiled as compiled_mod
    import repro.distributed.agents as agents_mod
    import repro.distributed.plane as plane_mod
    import repro.distributed.runtime as runtime_mod
    import repro.distributed.safe_agents as safe_agents_mod

    h = hashlib.sha256()
    for mod in (
        oracle,
        oracle_dist,
        safe_mod,
        kernels_mod,
        compiled_mod,
        plane_mod,
        runtime_mod,
        agents_mod,
        safe_agents_mod,
        views_mod,
    ):
        h.update(Path(mod.__file__).read_bytes())
    return h.hexdigest()


def config_key(family: str, n: int, R: int, seed: int) -> str:
    """Cache key of one configuration: digest × solver version × code identity."""
    payload = json.dumps(
        {
            "bench": "bench_safe_e5",
            "format_version": 1,
            "family": family,
            "n": n,
            "R": R,
            "seed": seed,
            "safe_version": solver_version("safe"),
            "code_digest": _code_digest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def measure(family: str, n: int, R: int, seed: int) -> Dict[str, object]:
    """Time the oracle and the production side of all three paths on one instance."""
    instance = make_instance(family, n, seed)
    instance.compiled()  # warm the CSR view: shared with the §5 solver in sweeps

    start = time.perf_counter()
    safe_ref = oracle.safe_solution(instance)
    t_safe_ref = time.perf_counter() - start
    start = time.perf_counter()
    safe_vec = safe_solution(instance)
    t_safe_vec = time.perf_counter() - start
    safe_diff = max(abs(safe_ref[v] - safe_vec[v]) for v in instance.agents)

    start = time.perf_counter()
    dsafe_ref, drun_ref = oracle_dist.safe_solve(instance)
    t_dsafe_ref = time.perf_counter() - start
    start = time.perf_counter()
    dsafe_vec, drun_vec = DistributedSafeSolver().solve(instance)
    t_dsafe_vec = time.perf_counter() - start
    if drun_ref.total_messages != drun_vec.total_messages:
        raise AssertionError("safe protocol runtimes disagree on message counts")

    start = time.perf_counter()
    local_ref, run_ref = oracle_dist.local_solve(instance, R)
    t_run_ref = time.perf_counter() - start
    start = time.perf_counter()
    local_vec, run_vec = DistributedLocalSolver(R=R).solve(instance)
    t_run_vec = time.perf_counter() - start
    if run_ref.total_messages != run_vec.total_messages:
        raise AssertionError("local protocol runtimes disagree on message counts")
    runtime_diff = max(abs(local_ref[v] - local_vec[v]) for v in instance.agents)

    return {
        "family": family,
        "n_agents": instance.num_agents,
        "R": R,
        "seed": seed,
        "t_safe_reference_s": round(t_safe_ref, 6),
        "t_safe_vectorized_s": round(t_safe_vec, 6),
        "safe_speedup": round(t_safe_ref / t_safe_vec, 2) if t_safe_vec > 0 else float("inf"),
        "t_dist_safe_reference_s": round(t_dsafe_ref, 6),
        "t_dist_safe_vectorized_s": round(t_dsafe_vec, 6),
        "dist_safe_speedup": round(t_dsafe_ref / t_dsafe_vec, 2) if t_dsafe_vec > 0 else float("inf"),
        "t_runtime_reference_s": round(t_run_ref, 6),
        "t_runtime_vectorized_s": round(t_run_vec, 6),
        "runtime_speedup": round(t_run_ref / t_run_vec, 2) if t_run_vec > 0 else float("inf"),
        "rounds": run_vec.rounds,
        "per_round_reference_ms": round(1000.0 * t_run_ref / run_ref.rounds, 4),
        "per_round_vectorized_ms": round(1000.0 * t_run_vec / run_vec.rounds, 4),
        "messages": run_vec.total_messages,
        "max_abs_diff_safe": safe_diff,
        "max_abs_diff_runtime": runtime_diff,
        # Untimed traced re-run of the vectorized protocol: round and message
        # counters for the configuration timed above.
        "obs": obs_counter_rollup(
            lambda: DistributedLocalSolver(R=R).solve(instance)
        )[1],
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
    parser.add_argument("--families", nargs="+", default=list(FAMILIES), choices=list(FAMILIES))
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 5000, 10000])
    parser.add_argument("-R", type=int, default=2, help="shifting parameter of the timed protocol")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT), help="aggregate JSON path")
    parser.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR), help="ResultCache directory")
    parser.add_argument("--fresh", action="store_true", help="ignore cached measurements")
    parser.add_argument("--min-speedup", type=float, default=10.0, help="runtime acceptance bar")
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
                "t_safe_reference_s",
                "t_safe_vectorized_s",
                "safe_speedup",
                "dist_safe_speedup",
                "t_runtime_reference_s",
                "t_runtime_vectorized_s",
                "runtime_speedup",
                "per_round_vectorized_ms",
            ],
            title="bench_safe_e5: oracle vs vectorized (safe baseline + runtime)",
        )
    )

    failures = [
        row
        for row in rows
        if int(row["n_agents"]) >= args.speedup_floor_n
        and float(row["runtime_speedup"]) < args.min_speedup
    ]
    correctness = [
        row
        for row in rows
        if float(row["max_abs_diff_safe"]) > 0.0 or float(row["max_abs_diff_runtime"]) > 1e-9
    ]

    payload = {
        "format": "bench-safe-e5-trajectory",
        "version": 1,
        "safe_version": solver_version("safe"),
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
        print(f"FAIL: {len(correctness)} configuration(s) exceed the oracle-agreement tolerance")
        return 1
    if failures:
        print(
            f"FAIL: {len(failures)} configuration(s) below the {args.min_speedup:.0f}x runtime bar "
            f"at n >= {args.speedup_floor_n}"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
