"""``cold-cli``: one cold ``maxmin-lp solve`` subprocess at a time.

Each op is a fresh interpreter running ``python -m repro.cli solve FILE -R 3
--output SOL`` on one of a few seeded general ``random`` instances, so it
pays import, parse, validation, compile, preprocess, the §4 transforms, the
§5 kernels, the back-map, evaluation and the solution write.  ``--output``
is there because the printed table rounds the utility to four digits; the
written solution carries every digit for the correctness check.

The traced run alternates the same command with ``cli_traced.py``, which
runs the same ``repro.cli.main`` with the public functions of each layer
wrapped in spans; alternating op by op keeps drift in the host's speed
out of the tracing overhead.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

import common

N_AGENTS = 10_000
N_FILES = 3
R = 3
TAIL_PCT = 90.0
SETUP_REPEATS = 3
TOL = 1e-9

#: Span name (in ``cli_traced.py``) -> per-layer metric.  Rows are the time
#: spent in each layer outside the layers it calls.
LAYERS = (
    ("cli.import", "cli.import_ms"),
    ("io.parse", "io.parse_ms"),
    ("io.load", "io.load_ms"),
    ("core.compile", "core.compile_ms"),
    ("core.preprocess", "core.preprocess_ms"),
    ("transforms.special_form", "transforms.special_form_ms"),
    ("algo.upper_bounds", "algo.upper_bounds_ms"),
    ("algo.smooth_g_output", "algo.smooth_g_output_ms"),
    ("algo.map_back", "algo.map_back_ms"),
    ("core.evaluate", "core.evaluate_ms"),
    ("io.save", "io.save_ms"),
)
#: ``repro.obs`` counter -> per-layer count of one solve.
COUNTERS = (
    ("kernels.bisection_iterations", "algo.bisection_iterations"),
    ("kernels.bisection_sweeps", "algo.bisection_sweeps"),
    ("kernels.trees_total", "algo.trees_total"),
)


def _prepare(ctx: common.Context):
    """Write the instance files and solve each in-process for reference.

    A traced run also reads each solve's ``repro.obs`` counters: the
    reference solve starts from a fresh load, like the CLI, so it does the
    same kernel work.
    """
    from repro import obs
    from repro.algo.general_solver import LocalMaxMinSolver
    from repro.generators import random_instance
    from repro.io.serialization import load_instance, save_instance

    obs.configure(enabled=ctx.trace)
    files, refs, counts = [], [], []
    for j in range(N_FILES):
        path = ctx.workdir / f"instance{j}.json"
        save_instance(
            random_instance(N_AGENTS, delta_I=3, delta_K=3, seed=ctx.seed * N_FILES + j), path
        )
        instance = load_instance(path)
        mark = obs.counters_mark()
        result = LocalMaxMinSolver(R=R).solve(instance)
        counts.append(obs.counters_since(mark))
        if not result.solution.is_feasible():
            raise RuntimeError(f"reference solve of {path.name} is infeasible")
        values = np.array([result.solution[v] for v in instance.agents], dtype=np.float64)
        files.append(path)
        refs.append((result.utility(), values))
    obs.configure(enabled=False)
    return files, refs, counts


def _check(sol_path, ref) -> bool:
    """The written solution matches the in-process reference to 1e-9 and is feasible."""
    try:
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    utility, values = ref
    got = np.array([row["value"] for row in doc["values"]], dtype=np.float64)
    return (
        doc.get("feasible") is True
        and abs(float(doc["utility"]) - utility) <= TOL
        and got.shape == values.shape
        and float(np.max(np.abs(got - values))) <= TOL
    )


def _setup_s(ctx: common.Context) -> float:
    """Median time of a bare CLI start (``maxmin-lp --help``): import and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        res = common.run_child(
            common.python_argv("-m", "repro.cli", "--help"), ctx.workdir / "stderr.txt"
        )
        if res.returncode != 0:
            raise RuntimeError("maxmin-lp --help failed")
        times.append(res.wall_s)
    return common.median(times)


def _ops(ctx: common.Context, files, refs, alternate: bool):
    """Closed loop of CLI solves for the window, each checked after it.

    Returns ``(ops, failed, meter)``; an op is ``(child result, file index,
    traced, layer report or None)``.  With ``alternate``, every second op
    runs ``cli_traced.py`` instead of ``-m repro.cli`` and reports spans.
    """
    runs = []
    meter = common.StealMeter()
    start = common.now()
    while not runs or common.now() - start < ctx.seconds:
        i = len(runs)
        j = i % N_FILES
        traced = alternate and i % 2 == 1
        sol = ctx.workdir / f"sol{i}.json"
        report = ctx.workdir / f"spans{i}.json"
        args = ["solve", str(files[j]), "-R", str(R), "--output", str(sol)]
        if traced:
            argv = common.python_argv(str(common.BENCH_DIR / "cli_traced.py"), str(report), *args)
        else:
            argv = common.python_argv("-m", "repro.cli", *args)
        runs.append((common.run_child(argv, ctx.workdir / "stderr.txt"), j, traced, sol, report))
        meter.poll()
    meter.mark()
    ops, failed = [], 0
    for res, j, traced, sol, report in runs:  # untimed
        good = res.returncode == 0 and _check(sol, refs[j])
        if not good:
            failed += 1
        doc = json.loads(report.read_text(encoding="utf-8")) if traced and good else None
        ops.append((res, j, traced, doc))
    return ops, failed, meter


def run(ctx: common.Context) -> common.Outcome:
    files, refs, counts = _prepare(ctx)
    setup_s = _setup_s(ctx)
    if not ctx.trace:
        ops, failed, meter = _ops(ctx, files, refs, alternate=False)
        mask, kept_wall = meter.select([res.end for res, _, _, _ in ops])
        lat = [res.wall_s * 1000.0 for (res, _, _, _), keep in zip(ops, mask) if keep]
        tail_ms, n, beyond = common.tail(lat, TAIL_PCT)
        metrics = {
            "op_p50_ms": common.median(lat),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(lat) / kept_wall,
            "peak_rss_mb": common.median(res.peak_rss_mb for res, _, _, _ in ops),
            "setup_s": setup_s,
        }
        notes = {
            "op_tail": f"p{TAIL_PCT:g} of {n} ops, {beyond} beyond it",
            "steal": meter.summary([res.wall_s * 1000.0 for res, _, _, _ in ops]),
            "setup": f"median of {SETUP_REPEATS} `maxmin-lp --help` starts",
        }
        return common.Outcome(len(ops), failed, metrics, notes)

    ops, failed, _ = _ops(ctx, files, refs, alternate=True)
    plain = [res.wall_s * 1000.0 for res, _, traced, _ in ops if not traced]
    tracer = ctx.tracer
    rows: List[Dict[str, float]] = []
    for res, j, traced, doc in ops:
        if not traced:
            continue
        op_id = tracer.add("cli.op", res.start, res.end, file=files[j].name)
        if doc is None:
            continue
        tracer.adopt(doc["spans"], parent=op_id)
        row = common.exclusive_ms(doc["spans"])
        row["op_ms"] = res.wall_s * 1000.0
        row["import_modules"] = doc["import_modules"]
        row.update(counts[j])
        rows.append(row)
    metrics = {"trace.untraced_op_p50_ms": common.median(plain)}
    if rows:
        op_mean = common.mean(row["op_ms"] for row in rows)
        explained = 0.0
        for span_name, metric in LAYERS:
            metrics[metric] = common.mean(row.get(span_name, 0.0) for row in rows)
            explained += metrics[metric]
        for counter, metric in COUNTERS:
            metrics[metric] = common.mean(row.get(counter, 0.0) for row in rows)
        trees = metrics["algo.trees_total"]
        hits = common.mean(row.get("kernels.dedup_hits", 0.0) for row in rows)
        metrics.update(
            {
                "cli.import_modules": common.mean(row["import_modules"] for row in rows),
                "cli.residual_ms": op_mean - explained,
                "algo.dedup_hit_frac": hits / trees if trees else 0.0,
                "trace.op_mean_ms": op_mean,
                "trace.op_p50_ms": common.median(row["op_ms"] for row in rows),
            }
        )
    notes = {
        "traced_ops": len(ops) - len(plain),
        "untraced_ops": len(plain),
        "rows": "exclusive layer time, mean per op; rows + cli.residual_ms = trace.op_mean_ms",
    }
    return common.Outcome(len(ops), failed, metrics, notes)
