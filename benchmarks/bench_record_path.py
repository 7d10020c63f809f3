"""Microbenchmark: the compiled record path — preprocess, evaluation, caching.

Five measurements, one per record-path hot spot this PR compiled:

* **preprocess-fixed-point** — the degenerate-structure fixed point of
  :func:`repro.oracle.preprocess` (per-node scans) vs
  ``repro.core.preprocess`` (CSR degree-peeling) on a degeneracy-rich
  random instance; removed sets and flags are asserted identical.  This is
  the ≥ 10× acceptance row.
* **preprocess** — the same comparison end to end (fixed point *plus* the
  cleaned-instance materialisation), reported for honesty about the
  full-call speedup.
* **evaluate** — one sweep-record evaluation (``utility()`` + feasibility
  verdict, exactly what ``analysis.ratios.evaluate_solution`` does per
  record) under the oracle's dict evaluation vs the CSR evaluation; results asserted
  bitwise identical.  Also a ≥ 10× acceptance row.
* **transform-cache** — an R-sweep over one instance with the §4 pipeline
  spy-counted: the pipeline must run exactly once (cold), warm solves reuse
  the instance-cached transform.
* **bisection-compaction / dispatch** — the stacked ``t_u`` bisection with
  and without mid-run active-set compaction at medium ``n``, and the
  engine-level ``dispatch="per-job"`` vs ``dispatch="batched"`` comparison
  the compaction is meant to win (records asserted identical).

Rows are stored through the engine's content-addressed
:class:`~repro.engine.cache.ResultCache` (keyed by configuration digest ×
solver versions × hot-path code digest), and the aggregate is written to
``benchmarks/BENCH_record_path.json`` — the committed trajectory baseline.
``--fresh`` bypasses the cache for a clean re-measurement; ``--smoke`` runs
tiny sizes and writes its rows to ``benchmarks/results/smoke/`` (uploaded as
a CI artifact) instead of the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_record_path.py            # full grid
    PYTHONPATH=src python benchmarks/bench_record_path.py --smoke    # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # allow `import _harness` when run as a script
    sys.path.insert(0, str(BENCH_DIR))

from _harness import obs_counter_rollup, write_bench_payload
from repro import oracle
from repro.algo.general_solver import LocalMaxMinSolver
from repro.algo.kernels import batched_upper_bounds
from repro.analysis.reporting import format_table
from repro.core.compiled import stack_compiled
from repro.core.instance import MaxMinInstance
from repro.core.preprocess import _vectorized_fixed_point, preprocess
from repro.core.solution import Solution
from repro.engine.batch import ratio_sweep_batch, run_batch
from repro.engine.cache import ResultCache
from repro.engine.registry import _instance_and_lp, solver_version
from repro.generators import cycle_instance, random_instance
from repro.io.serialization import instance_to_json

DEFAULT_OUTPUT = BENCH_DIR / "BENCH_record_path.json"
DEFAULT_CACHE_DIR = BENCH_DIR / "results" / "record_path_cache"


def _code_digest() -> str:
    """Digest of the hot-path sources this benchmark measures.

    Modules are resolved through :data:`sys.modules` because ``repro.core``
    re-exports ``preprocess`` (the function) under the submodule's name.
    """
    import importlib

    h = hashlib.sha256()
    for name in (
        "repro.core.preprocess",
        "repro.core.solution",
        "repro.core.compiled",
        "repro.algo.kernels",
        "repro.transforms.pipeline",
        "repro.engine.registry",
        "repro.oracle",
    ):
        h.update(Path(importlib.import_module(name).__file__).read_bytes())
    return h.hexdigest()


def config_key(kind: str, n: int, seed: int, extra: int = 0) -> str:
    payload = json.dumps(
        {
            "bench": "bench_record_path",
            "format_version": 1,
            "kind": kind,
            "n": n,
            "seed": seed,
            "extra": extra,
            "local_version": solver_version("local"),
            "code_digest": _code_digest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def degeneracy_rich_instance(n: int, seed: int) -> MaxMinInstance:
    """A random general instance salted with every §4 degeneracy kind.

    Per injection: an isolated constraint, an unconstrained agent whose
    objective cascades a victim agent into forced-zero (and the victim's
    constraint into removal), and a non-contributing agent — so the fixed
    point exercises all four phases plus the cascade rounds.
    """
    base = random_instance(
        n, delta_I=3, delta_K=3, extra_constraints=n // 20, extra_objectives=n // 20, seed=seed
    )
    a = base.a_coefficients
    c = base.c_coefficients
    agents = list(base.agents)
    constraints = list(base.constraints)
    objectives = list(base.objectives)
    for j in range(max(1, n // 10)):
        constraints.append(f"iso_i{j}")
        unc, victim, nc = f"unc{j}", f"victim{j}", f"nc{j}"
        agents += [unc, victim, nc]
        objectives.append(f"k_unc{j}")
        c[(f"k_unc{j}", unc)] = 1.0
        c[(f"k_unc{j}", victim)] = 1.0
        constraints += [f"i_vict{j}", f"i_nc{j}"]
        a[(f"i_vict{j}", victim)] = 1.0
        a[(f"i_nc{j}", nc)] = 1.0
    return MaxMinInstance(
        agents, constraints, objectives, a, c, name=f"degenerate-rich-{n}"
    )


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_preprocess(n: int, seed: int, repeats: int = 3) -> List[Dict[str, object]]:
    instance = degeneracy_rich_instance(n, seed)
    instance.compiled()  # the CSR view is shared downstream; warm it

    t_fp_ref = _best_of(repeats, lambda: oracle._fixed_point(instance))
    t_fp_vec = _best_of(repeats, lambda: _vectorized_fixed_point(instance))

    ref_fp = oracle._fixed_point(instance)
    vec_fp = _vectorized_fixed_point(instance)
    sets_identical = (
        set(ref_fp.forced_zero) == set(vec_fp.forced_zero)
        and set(ref_fp.unconstrained) == set(vec_fp.unconstrained)
        and set(ref_fp.removed_constraints) == set(vec_fp.removed_constraints)
        and set(ref_fp.removed_objectives) == set(vec_fp.removed_objectives)
        and ref_fp.optimum_is_zero == vec_fp.optimum_is_zero
    )

    def _uncached() -> None:
        instance._preprocess_cache = None  # bypass the per-instance memo
        preprocess(instance)

    t_ref = _best_of(repeats, lambda: oracle.preprocess(instance))
    t_vec = _best_of(repeats, _uncached)
    instance._preprocess_cache = None

    return [
        {
            "kind": "preprocess-fixed-point",
            "n_agents": instance.num_agents,
            "seed": seed,
            "t_reference_s": round(t_fp_ref, 6),
            "t_vectorized_s": round(t_fp_vec, 6),
            "speedup": round(t_fp_ref / t_fp_vec, 2) if t_fp_vec > 0 else float("inf"),
            "sets_identical": bool(sets_identical),
        },
        {
            "kind": "preprocess",
            "n_agents": instance.num_agents,
            "seed": seed,
            "t_reference_s": round(t_ref, 6),
            "t_vectorized_s": round(t_vec, 6),
            "speedup": round(t_ref / t_vec, 2) if t_vec > 0 else float("inf"),
            "sets_identical": bool(sets_identical),
        },
    ]


def measure_evaluate(n: int, seed: int, repeats: int = 3) -> Dict[str, object]:
    """One sweep-record evaluation: utility + feasibility verdict.

    Times exactly what ``evaluate_solution`` does per record on an
    already-built solution (lift/back-map construct it during the solve);
    a fresh :class:`Solution` per repetition keeps the caches cold.
    """
    instance = cycle_instance(max(3, n), coefficient_range=(0.5, 2.0), seed=seed)
    instance.compiled()  # warm, as it is by the time records are evaluated
    rng = np.random.default_rng(seed)
    values = {v: float(x) for v, x in zip(instance.agents, rng.uniform(0.0, 0.4, instance.num_agents))}

    out: Dict[str, float] = {}

    def eval_dict() -> float:
        sol = Solution(instance, values, label="probe")
        start = time.perf_counter()
        out["util_dict"] = oracle.utility(sol)
        out["feas_dict"] = oracle.check_feasibility(sol).feasible
        return time.perf_counter() - start

    def eval_array() -> float:
        sol = Solution(instance, values, label="probe")
        start = time.perf_counter()
        out["util_array"] = sol.utility()
        out["feas_array"] = sol.is_feasible()
        return time.perf_counter() - start

    t_dict = min(eval_dict() for _ in range(repeats))
    t_array = min(eval_array() for _ in range(repeats))
    bitwise = out["util_dict"] == out["util_array"] and out["feas_dict"] == out["feas_array"]

    return {
        "kind": "evaluate",
        "n_agents": instance.num_agents,
        "seed": seed,
        "t_reference_s": round(t_dict, 6),
        "t_vectorized_s": round(t_array, 6),
        "speedup": round(t_dict / t_array, 2) if t_array > 0 else float("inf"),
        "bitwise_identical": bool(bitwise),
        # Untimed traced evaluation pass: load/objective-pass counters for
        # the record-evaluation path this row times.
        "obs": obs_counter_rollup(lambda: eval_array())[1],
    }


def measure_transform_cache(n: int, seed: int, R_values=(2, 3, 4, 5)) -> Dict[str, object]:
    """R-sweep over one instance: the §4 pipeline must run exactly once."""
    import repro.transforms.vectorized as vectorized_mod

    instance = preprocess(
        random_instance(
            n, delta_I=3, delta_K=3, extra_constraints=n // 20, extra_objectives=n // 20, seed=seed
        )
    ).instance

    calls: List[int] = []
    real = vectorized_mod.vectorized_to_special_form

    def counting(inst, **kwargs):
        calls.append(1)
        return real(inst, **kwargs)

    vectorized_mod.vectorized_to_special_form = counting
    try:
        # Cold vs warm at the *same* R, then the rest of the R-sweep for the
        # zero-re-runs count.
        start = time.perf_counter()
        LocalMaxMinSolver(R=R_values[0]).solve(instance)
        t_cold = time.perf_counter() - start
        start = time.perf_counter()
        LocalMaxMinSolver(R=R_values[0]).solve(instance)
        t_warm = time.perf_counter() - start
        for R in R_values[1:]:
            LocalMaxMinSolver(R=R).solve(instance)
    finally:
        vectorized_mod.vectorized_to_special_form = real

    return {
        "kind": "transform-cache",
        "n_agents": instance.num_agents,
        "seed": seed,
        "R_values": list(R_values),
        "pipeline_runs": len(calls),
        "t_cold_solve_s": round(t_cold, 6),
        "t_warm_solve_s": round(t_warm, 6),
        "speedup": round(t_cold / t_warm, 2) if t_warm > 0 else float("inf"),
    }


def _heterogeneous_batch(n: int, seed: int, num_instances: int):
    """Coefficient cycles whose scales span orders of magnitude.

    A realistic sweep-grid shape — and the regime where the *stacked*
    bisection used to lose at medium ``n``: instances with small upper limits
    converge early, yet without compaction every tree of the batch is swept
    until the slowest instance's trees finish.
    """
    return [
        cycle_instance(
            max(3, n),
            coefficient_range=(0.5 * 3.0**j, 2.0 * 3.0**j),
            seed=seed + j,
        )
        for j in range(num_instances)
    ]


def measure_compaction(n: int, seed: int, num_instances: int, repeats: int = 5) -> Dict[str, object]:
    """The stacked t_u bisection with vs without active-set compaction."""
    stacked = stack_compiled(
        [inst.compiled() for inst in _heterogeneous_batch(n, seed, num_instances)]
    )
    r = 1
    t_plain, t_compact = float("inf"), float("inf")
    for _ in range(repeats):  # interleaved to cancel machine drift
        start = time.perf_counter()
        batched_upper_bounds(stacked, r, compact=False)
        t_plain = min(t_plain, time.perf_counter() - start)
        start = time.perf_counter()
        batched_upper_bounds(stacked, r, compact=True)
        t_compact = min(t_compact, time.perf_counter() - start)
    identical = np.array_equal(
        batched_upper_bounds(stacked, r, compact=False),
        batched_upper_bounds(stacked, r, compact=True),
    )
    return {
        "kind": "bisection-compaction",
        "n_agents": int(stacked.num_agents),
        "seed": seed,
        "jobs": num_instances,
        "t_reference_s": round(t_plain, 6),
        "t_vectorized_s": round(t_compact, 6),
        "speedup": round(t_plain / t_compact, 2) if t_compact > 0 else float("inf"),
        "bitwise_identical": bool(identical),
    }


def measure_dispatch(n: int, seed: int, num_instances: int, repeats: int = 3) -> Dict[str, object]:
    """per-job vs batched dispatch at medium n (the compaction payoff)."""
    instances = _heterogeneous_batch(n, seed, num_instances)
    # Pre-warm the per-instance (deserialize + exact LP) memo so the timings
    # isolate solver dispatch, which is what the two modes differ in.
    for instance in instances:
        _instance_and_lp(instance_to_json(instance))

    t_per_job, t_batched = float("inf"), float("inf")
    records = {}
    for _ in range(repeats):  # interleaved best-of to cancel machine drift
        for dispatch in ("per-job", "batched"):
            batch = ratio_sweep_batch(instances, R_values=(2, 3), include_safe=False)
            start = time.perf_counter()
            result = run_batch(batch, dispatch=dispatch)
            elapsed = time.perf_counter() - start
            records[dispatch] = result.records
            if dispatch == "per-job":
                t_per_job = min(t_per_job, elapsed)
            else:
                t_batched = min(t_batched, elapsed)

    return {
        "kind": "dispatch",
        "n_agents": instances[0].num_agents,
        "seed": seed,
        "jobs": len(records["per-job"]),
        "t_per_job_s": round(t_per_job, 6),
        "t_batched_s": round(t_batched, 6),
        "speedup": round(t_per_job / t_batched, 2) if t_batched > 0 else float("inf"),
        "records_identical": records["per-job"] == records["batched"],
    }


def run(
    sizes: List[int],
    medium_n: int,
    num_instances: int,
    seed: int,
    cache: Optional[ResultCache],
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    plan = (
        [("preprocess", n, 0) for n in sizes]
        + [("evaluate", n, 0) for n in sizes]
        + [("transform-cache", max(s for s in sizes), 0)]
        + [("bisection-compaction", medium_n, num_instances)]
        + [("dispatch", medium_n, num_instances)]
    )
    for kind, n, extra in plan:
        key = config_key(kind, n, seed, extra)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            rows.extend(cached)
            continue
        if kind == "preprocess":
            new_rows = measure_preprocess(n, seed)
        elif kind == "evaluate":
            new_rows = [measure_evaluate(n, seed)]
        elif kind == "transform-cache":
            new_rows = [measure_transform_cache(min(n, 2000), seed)]
        elif kind == "bisection-compaction":
            new_rows = [measure_compaction(n, seed, extra)]
        else:
            new_rows = [measure_dispatch(n, seed, extra)]
        if cache is not None:
            cache.put(key, new_rows)
        rows.extend(new_rows)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 5000, 10000])
    parser.add_argument(
        "--medium-n", type=int, default=1000, help="per-instance size of the dispatch rows"
    )
    parser.add_argument(
        "--num-instances", type=int, default=8, help="instances per dispatch batch"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT), help="aggregate JSON path")
    parser.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR), help="ResultCache directory")
    parser.add_argument("--fresh", action="store_true", help="ignore cached measurements")
    parser.add_argument(
        "--min-speedup", type=float, default=10.0, help="fixed-point / evaluate acceptance bar"
    )
    parser.add_argument(
        "--speedup-floor-n", type=int, default=5000, help="sizes below this skip the bar"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-size CI mode: no speedup assertion; rows go to results/smoke/",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes = [120]
        args.medium_n = 60
        args.num_instances = 4
        args.min_speedup = 0.0

    cache = None if (args.fresh or args.smoke) else ResultCache(args.cache_dir)
    rows = run(args.sizes, args.medium_n, args.num_instances, args.seed, cache)

    print(
        format_table(
            rows,
            [
                "kind",
                "n_agents",
                "jobs",
                "t_reference_s",
                "t_vectorized_s",
                "t_per_job_s",
                "t_batched_s",
                "t_cold_solve_s",
                "t_warm_solve_s",
                "pipeline_runs",
                "speedup",
                "sets_identical",
                "bitwise_identical",
                "records_identical",
            ],
            title="bench_record_path: compiled record path",
        )
    )

    correctness = [
        row
        for row in rows
        if row.get("sets_identical") is False
        or row.get("bitwise_identical") is False
        or row.get("records_identical") is False
        or (row["kind"] == "transform-cache" and int(row["pipeline_runs"]) != 1)
    ]
    bar_misses = [
        row
        for row in rows
        if row["kind"] in ("preprocess-fixed-point", "evaluate")
        and int(row["n_agents"]) >= args.speedup_floor_n
        and float(row["speedup"]) < args.min_speedup
    ]
    dispatch_regressions = [
        row
        for row in rows
        if row["kind"] == "dispatch" and not args.smoke and float(row["speedup"]) <= 1.0
    ]

    payload = {
        "format": "bench-record-path-trajectory",
        "version": 1,
        "local_version": solver_version("local"),
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
        print(f"FAIL: {len(correctness)} configuration(s) violate the equivalence contract")
        return 1
    if bar_misses:
        print(
            f"FAIL: {len(bar_misses)} configuration(s) below the "
            f"{args.min_speedup:.0f}x bar at n >= {args.speedup_floor_n}"
        )
        return 1
    if dispatch_regressions:
        print("FAIL: batched dispatch slower than per-job at medium n")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
