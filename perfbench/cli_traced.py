"""Traced run of one cold ``maxmin-lp`` command.

Usage: ``python cli_traced.py REPORT ARG...`` with ``src`` on ``PYTHONPATH``.

Imports ``repro.cli`` under a span, wraps the public functions the
``solve`` path reaches so that each call records a span, then runs
``repro.cli.main(ARG...)``: the same code as ``python -m repro.cli ARG...``.
Writes ``{"import_modules": N, "spans": [...]}`` to REPORT, with spans on
the monotonic clock the benchmark shares with its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: ``(module[:class], attribute, span name)``.  Each is looked up at call
#: time by its caller, so replacing the attribute reaches every call.
WRAPPED = (
    ("repro.cli", "load_instance", "io.load"),
    ("repro.cli", "save_solution", "io.save"),
    ("repro.core.instance:MaxMinInstance", "compiled", "core.compile"),
    ("repro.algo.general_solver", "preprocess", "core.preprocess"),
    ("repro.algo.general_solver", "to_special_form", "transforms.special_form"),
    ("repro.algo.kernels", "batched_upper_bounds", "algo.upper_bounds"),
    ("repro.algo.kernels", "smooth_bounds_kernel", "algo.smooth_g_output"),
    ("repro.algo.kernels", "g_recursion_kernel", "algo.smooth_g_output"),
    ("repro.algo.kernels", "output_kernel", "algo.smooth_g_output"),
    ("repro.transforms.base:TransformResult", "map_back", "algo.map_back"),
    ("repro.core.preprocess:PreprocessResult", "lift", "algo.map_back"),
    ("repro.core.solution:Solution", "utility", "core.evaluate"),
    ("repro.core.solution:Solution", "is_feasible", "core.evaluate"),
)


def _traced(tracer: common.Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    tracer = common.Tracer()
    with tracer.span("cli.import"):
        cli = importlib.import_module("repro.cli")
    import_modules = len(sys.modules)

    for target, attr, name in WRAPPED:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        setattr(owner, attr, _traced(tracer, name, getattr(owner, attr)))
    # ``io.parse``: the ``json.loads`` inside ``load_instance``.
    serialization = importlib.import_module("repro.io.serialization")
    parser = types.SimpleNamespace(**vars(json))
    parser.loads = _traced(tracer, "io.parse", json.loads)
    serialization.json = parser

    code = cli.main(argv)
    Path(report).write_text(
        json.dumps({"import_modules": import_modules, "spans": tracer.spans}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
