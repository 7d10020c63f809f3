"""Child entry for the in-process workloads.

Usage: ``python worker.py MODULE WORKDIR SEED SECONDS TRACE`` with ``src`` on
``PYTHONPATH``.  Calls ``MODULE.work(ctx)`` and prints the outcome it
returns, plus the recorded spans, as one JSON line on stdout.  Running the workload
in its own process lets the parent read this process's peak RSS alone.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    module, workdir, seed, seconds, trace = sys.argv[1:6]
    tracer = common.Tracer() if trace == "1" else None
    ctx = common.Context(int(seed), float(seconds), Path(workdir), tracer)
    outcome = importlib.import_module(module).work(ctx)
    payload = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "notes": outcome.notes,
        "spans": tracer.spans if tracer is not None else [],
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
