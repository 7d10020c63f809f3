#!/usr/bin/env python3
"""The repository's benchmark: end-to-end and per-layer timings of the four
user-facing paths of the max-min LP system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that splits each op into layers.  Metric names,
units and workloads are declared in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each workload and metric means.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Inputs are written under ``.bench_out/`` and removed when
the run ends; the run's spans and a summary stay there as
``<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = {
    "cold-cli": "cold_cli",
    "serve-mixed": "serve_mixed",
    "churn-stream": "churn_stream",
    "dist-lossy": "dist_lossy",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no source tree at {common.SRC / 'repro'}; "
            "run the benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)

    # The benchmark itself imports repro to generate inputs and compute the
    # reference answers it checks the program against.
    sys.path.insert(0, str(common.SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    stamp = common.env_stamp(args.seed)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = common.OUT_DIR / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = common.Tracer() if args.trace else None
    ctx = common.Context(args.seed, args.seconds, workdir, tracer)
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(outcome.metrics)
    if args.trace:
        if "trace.op_p50_ms" in metrics:
            metrics["trace.overhead_ms"] = metrics["trace.op_p50_ms"] - metrics["trace.untraced_op_p50_ms"]
        # A layer the workload never enters spent no time: report it as 0.
        for name in units:
            metrics.setdefault(name, 0.0)
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if unknown or missing:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: unknown={unknown} missing={missing}")

    summary = {
        "workload": args.workload,
        "why": why,
        "env": stamp,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "notes": outcome.notes,
        "metrics": metrics,
    }
    if tracer is not None:
        tracer.write(common.OUT_DIR / f"{tag}.json", summary)
    else:
        (common.OUT_DIR / f"{tag}.json").write_text(json.dumps(summary), encoding="utf-8")

    print(f"# {args.workload}: {why}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for key, value in outcome.notes.items():
        print(f"# {key}: {value}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} ({outcome.failed}/{outcome.attempted})")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
