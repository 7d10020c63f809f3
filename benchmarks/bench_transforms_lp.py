"""Microbenchmark: the compiled general path — §4 pipeline, LP assembly, dispatch.

Three measurements, one per remaining general-path hot spot:

* **pipeline** — :func:`repro.oracle.to_special_form` (per-stage object
  rewrites) vs ``to_special_form`` (CSR index arithmetic) on
  cleaned random general instances; the vectorized output is asserted
  digest-identical and the back-mapped LP solution asserted within 1e-12.
* **lp-assembly** — the historical per-edge Python COO loop (re-created here
  as the oracle) vs the compiled-triplet assembly now used by
  ``repro.core.lp._solve_clean``, building the identical ``A_ub`` matrix.
* **dispatch** — a ≥ 32-job local sweep through ``repro.engine.run_batch``
  under ``dispatch="per-job"`` vs ``dispatch="batched"`` (one multi-instance
  §5 kernel dispatch per parameter set), with the per-instance LP memo
  pre-warmed so the timing isolates solver dispatch; records are asserted
  identical.

Rows are stored through the engine's content-addressed
:class:`~repro.engine.cache.ResultCache` (keyed by configuration digest ×
solver versions × hot-path code digest), and the aggregate is written to
``benchmarks/BENCH_transforms_lp.json`` — the committed trajectory baseline.
``--fresh`` bypasses the cache for a clean re-measurement.

Usage::

    PYTHONPATH=src python benchmarks/bench_transforms_lp.py            # full grid
    PYTHONPATH=src python benchmarks/bench_transforms_lp.py --smoke    # CI smoke
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
from scipy import sparse

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # allow `import _harness` when run as a script
    sys.path.insert(0, str(BENCH_DIR))

from _harness import obs_counter_rollup, write_bench_payload
from repro import oracle
from repro.analysis.reporting import format_table
from repro.core.preprocess import preprocess
from repro.core.lp import solve_maxmin_lp
from repro.core.solution import Solution
from repro.engine.batch import ratio_sweep_batch, run_batch
from repro.engine.cache import ResultCache
from repro.engine.registry import _instance_and_lp, solver_version
from repro.generators import cycle_instance, random_instance
from repro.io.serialization import instance_digest, instance_to_json
from repro.transforms.pipeline import to_special_form

DEFAULT_OUTPUT = BENCH_DIR / "BENCH_transforms_lp.json"
DEFAULT_CACHE_DIR = BENCH_DIR / "results" / "transforms_lp_cache"


def _code_digest() -> str:
    """Digest of the hot-path sources this benchmark measures.

    Timings must not survive changes that alter performance without altering
    output (``SOLVER_VERSIONS`` only tracks the latter), so the cache key
    folds in the code identity of the measured modules.
    """
    import repro.core.compiled as compiled_mod
    import repro.core.lp as lp_mod
    import repro.engine.batch as batch_mod
    import repro.engine.registry as registry_mod
    import repro.transforms.vectorized as vectorized_mod
    import repro.transforms.pipeline as pipeline_mod

    h = hashlib.sha256()
    for mod in (vectorized_mod, pipeline_mod, compiled_mod, lp_mod, batch_mod, registry_mod, oracle):
        h.update(Path(mod.__file__).read_bytes())
    return h.hexdigest()


def config_key(kind: str, n: int, seed: int, jobs: int = 0) -> str:
    payload = json.dumps(
        {
            "bench": "bench_transforms_lp",
            "format_version": 1,
            "kind": kind,
            "n": n,
            "seed": seed,
            "jobs": jobs,
            "local_version": solver_version("local"),
            "lp_version": solver_version("lp-optimum"),
            "code_digest": _code_digest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def clean_general_instance(n: int, seed: int):
    instance = random_instance(
        n, delta_I=3, delta_K=3, extra_constraints=n // 20, extra_objectives=n // 20, seed=seed
    )
    return preprocess(instance).instance


def measure_pipeline(n: int, seed: int) -> Dict[str, object]:
    """Oracle vs vectorized §4 pipeline on one cleaned general instance."""
    clean = clean_general_instance(n, seed)

    start = time.perf_counter()
    vec = to_special_form(clean)
    t_vectorized = time.perf_counter() - start

    start = time.perf_counter()
    ref = oracle.to_special_form(clean)
    t_reference = time.perf_counter() - start

    digest_ok = instance_digest(instance_to_json(vec.transformed)) == instance_digest(
        instance_to_json(ref.transformed)
    )
    # Back-map agreement on a cheap deterministic vector (uniform positive).
    probe = Solution(
        ref.transformed,
        {v: 0.01 for v in ref.transformed.agents},
        label="probe",
    )
    mapped_ref = ref.map_back(probe)
    mapped_vec = vec.map_back(
        Solution(vec.transformed, probe.as_dict(), label=probe.label)
    )
    backmap_diff = max(
        (abs(mapped_ref[v] - mapped_vec[v]) for v in clean.agents), default=0.0
    )

    return {
        "kind": "pipeline",
        "n_agents": clean.num_agents,
        "seed": seed,
        "t_reference_s": round(t_reference, 6),
        "t_vectorized_s": round(t_vectorized, 6),
        "speedup": round(t_reference / t_vectorized, 2) if t_vectorized > 0 else float("inf"),
        "digest_identical": bool(digest_ok),
        "backmap_max_diff": backmap_diff,
        "special_agents": vec.transformed.num_agents,
        # Untimed traced pipeline run on a fresh instance (the one above has
        # the transform cached) for the counters of a cold transform.
        "obs": obs_counter_rollup(
            lambda: to_special_form(clean_general_instance(n, seed))
        )[1],
    }


def _reference_lp_assembly(instance) -> sparse.csr_matrix:
    """The historical per-edge COO loop (kept here as the assembly oracle)."""
    agents = instance.agents
    n = len(agents)
    agent_index = {v: idx for idx, v in enumerate(agents)}
    n_con = instance.num_constraints
    n_obj = instance.num_objectives
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for r, i in enumerate(instance.constraints):
        for v in instance.agents_of_constraint(i):
            rows.append(r)
            cols.append(agent_index[v])
            data.append(instance.a(i, v))
    for r, k in enumerate(instance.objectives):
        row = n_con + r
        for v in instance.agents_of_objective(k):
            rows.append(row)
            cols.append(agent_index[v])
            data.append(-instance.c(k, v))
        rows.append(row)
        cols.append(n)
        data.append(1.0)
    return sparse.csr_matrix(
        (np.asarray(data, dtype=float), (np.asarray(rows), np.asarray(cols))),
        shape=(n_con + n_obj, n + 1),
    )


def _compiled_lp_assembly(instance) -> sparse.csr_matrix:
    """The compiled-triplet assembly (same arrays `_solve_clean` now builds)."""
    from repro.core.lp import _assembly_triplets

    n = instance.num_agents
    n_con = instance.num_constraints
    n_obj = instance.num_objectives
    rows, cols, data = _assembly_triplets(instance)
    rows = np.concatenate([rows, n_con + np.arange(n_obj, dtype=np.int64)])
    cols = np.concatenate([cols, np.full(n_obj, n, dtype=np.int64)])
    data = np.concatenate([data, np.ones(n_obj)])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n_con + n_obj, n + 1))


def measure_lp_assembly(n: int, seed: int) -> Dict[str, object]:
    clean = clean_general_instance(n, seed)
    clean.compiled()  # the compiled view is normally warm by solve time

    start = time.perf_counter()
    a_ref = _reference_lp_assembly(clean)
    t_reference = time.perf_counter() - start

    start = time.perf_counter()
    a_vec = _compiled_lp_assembly(clean)
    t_vectorized = time.perf_counter() - start

    identical = (
        a_ref.shape == a_vec.shape
        and np.array_equal(a_ref.indptr, a_vec.indptr)
        and np.array_equal(a_ref.indices, a_vec.indices)
        and np.array_equal(a_ref.data, a_vec.data)
    )
    return {
        "kind": "lp-assembly",
        "n_agents": clean.num_agents,
        "seed": seed,
        "t_reference_s": round(t_reference, 6),
        "t_vectorized_s": round(t_vectorized, 6),
        "speedup": round(t_reference / t_vectorized, 2) if t_vectorized > 0 else float("inf"),
        "matrix_identical": bool(identical),
    }


def measure_dispatch(n: int, seed: int, num_instances: int = 32) -> List[Dict[str, object]]:
    """Per-job vs batched dispatch on a 2·num_instances-job local sweep.

    Two rows: ``dispatch-engine`` times :func:`run_batch` end to end (batch
    building excluded, per-instance LP memo pre-warmed — both modes share
    those costs) and ``dispatch-kernel`` times the underlying
    :meth:`SpecialFormLocalSolver.solve_batch` against a per-instance solve
    loop, isolating the kernel-launch amortisation itself.  Batching pays off
    on many-small-instance sweeps — exactly the shape of the paper's
    experiments — where per-call numpy overhead rivals the per-element work.
    """
    from repro.algo.local_solver import SpecialFormLocalSolver

    instances = [
        cycle_instance(max(2, n), coefficient_range=(0.5, 2.0), seed=seed + j)
        for j in range(num_instances)
    ]
    # Pre-warm the per-instance (deserialize + exact LP) memo so the timings
    # isolate solver dispatch, which is what the two modes differ in.
    for instance in instances:
        _instance_and_lp(instance_to_json(instance))

    batch_a = ratio_sweep_batch(instances, R_values=(2, 3), include_safe=False)
    batch_b = ratio_sweep_batch(instances, R_values=(2, 3), include_safe=False)

    start = time.perf_counter()
    per_job = run_batch(batch_a, dispatch="per-job")
    t_per_job = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_batch(batch_b, dispatch="batched")
    t_batched = time.perf_counter() - start

    solver = SpecialFormLocalSolver(R=3)
    start = time.perf_counter()
    solo = [solver.solve(instance) for instance in instances]
    t_kernel_solo = time.perf_counter() - start
    start = time.perf_counter()
    stacked = solver.solve_batch(instances)
    t_kernel_batch = time.perf_counter() - start
    kernel_identical = all(
        a.solution[v] == b.solution[v]
        for a, b, instance in zip(solo, stacked, instances)
        for v in instance.agents
    )

    return [
        {
            "kind": "dispatch-engine",
            "n_agents": instances[0].num_agents,
            "seed": seed,
            "jobs": len(per_job.results),
            "t_per_job_s": round(t_per_job, 6),
            "t_batched_s": round(t_batched, 6),
            "speedup": round(t_per_job / t_batched, 2) if t_batched > 0 else float("inf"),
            "records_identical": per_job.records == batched.records,
        },
        {
            "kind": "dispatch-kernel",
            "n_agents": instances[0].num_agents,
            "seed": seed,
            "jobs": num_instances,
            "t_per_job_s": round(t_kernel_solo, 6),
            "t_batched_s": round(t_kernel_batch, 6),
            "speedup": round(t_kernel_solo / t_kernel_batch, 2)
            if t_kernel_batch > 0
            else float("inf"),
            "records_identical": kernel_identical,
        },
    ]


def run(sizes: List[int], dispatch_n: int, seed: int, cache: Optional[ResultCache]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    plan = [("pipeline", n, 0) for n in sizes] + [("lp-assembly", n, 0) for n in sizes] + [
        ("dispatch", dispatch_n, 32)
    ]
    for kind, n, jobs in plan:
        key = config_key(kind, n, seed, jobs)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            rows.extend(cached)
            continue
        if kind == "pipeline":
            new_rows = [measure_pipeline(n, seed)]
        elif kind == "lp-assembly":
            new_rows = [measure_lp_assembly(n, seed)]
        else:
            new_rows = measure_dispatch(n, seed)
        if cache is not None:
            cache.put(key, new_rows)
        rows.extend(new_rows)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 5000, 10000])
    parser.add_argument(
        "--dispatch-n", type=int, default=60, help="per-instance size of the dispatch sweep"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT), help="aggregate JSON path")
    parser.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR), help="ResultCache directory")
    parser.add_argument("--fresh", action="store_true", help="ignore cached measurements")
    parser.add_argument(
        "--min-speedup", type=float, default=10.0, help="pipeline acceptance bar"
    )
    parser.add_argument(
        "--speedup-floor-n", type=int, default=5000, help="sizes below this skip the bar"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-size CI mode: no speedup assertion, no output file",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes = [80]
        args.dispatch_n = 40
        args.min_speedup = 0.0

    cache = None if (args.fresh or args.smoke) else ResultCache(args.cache_dir)
    rows = run(args.sizes, args.dispatch_n, args.seed, cache)

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
                "speedup",
                "digest_identical",
                "backmap_max_diff",
                "matrix_identical",
                "records_identical",
            ],
            title="bench_transforms_lp: compiled general path",
        )
    )

    correctness = [
        row
        for row in rows
        if row.get("digest_identical") is False
        or row.get("matrix_identical") is False
        or row.get("records_identical") is False
        or float(row.get("backmap_max_diff", 0.0)) > 1e-12
    ]
    failures = [
        row
        for row in rows
        if row["kind"] == "pipeline"
        and int(row["n_agents"]) >= args.speedup_floor_n
        and float(row["speedup"]) < args.min_speedup
    ]
    dispatch_regressions = [
        row
        for row in rows
        if row["kind"].startswith("dispatch")
        and not args.smoke
        and float(row["speedup"]) <= 1.0
    ]

    payload = {
        "format": "bench-transforms-lp-trajectory",
        "version": 1,
        "local_version": solver_version("local"),
        "lp_version": solver_version("lp-optimum"),
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
    if failures:
        print(
            f"FAIL: {len(failures)} pipeline configuration(s) below the "
            f"{args.min_speedup:.0f}x bar at n >= {args.speedup_floor_n}"
        )
        return 1
    if dispatch_regressions:
        print("FAIL: batched dispatch slower than per-job")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
