"""Serve benchmark: micro-batched coalescing vs per-request dispatch.

The tentpole claim of the serving layer is that concurrent small solves
sharing one parameter set coalesce into a single ``solve_many`` kernel pass
and come out *at least twice* as fast as dispatching each request through
the solo ladder.  This script measures exactly that, on the real
:class:`~repro.serve.server.AllocationServer` request path:

* **in-process rows** drive ``server._serve_op`` directly on the event loop
  (admission → resolve → micro-batcher → executor), so the comparison
  isolates dispatch strategy from socket overhead.  These rows carry the
  acceptance bar (≥ ``--min-speedup`` at ``batch ≥ --speedup-floor-batch``).
* **http rows** repeat the comparison over real loopback sockets with
  :class:`~repro.serve.harness.ServeClient` barrages — informational (the
  per-connection transport cost dilutes the ratio), never gated.

Both modes run against *one* server per row (same executor width, same
registry) — serial rows simply send ``coalesce: false`` — and every row
re-checks that the coalesced responses are bitwise-equal to solo solves.
An untimed traced pass per mode records the ``serve.*`` counter deltas
(coalesced_batches, coalesced_requests, admitted, …) alongside the timings.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full grid
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # allow `import _harness` when run as a script
    sys.path.insert(0, str(BENCH_DIR))

from repro import obs
from repro.algo.general_solver import LocalMaxMinSolver
from repro.analysis.reporting import format_table
from repro.generators import random_special_form_instance
from repro.serve import AllocationServer, ServeConfig, ServerHandle, chaos_barrage, classify_response
from _harness import write_bench_payload

DEFAULT_OUTPUT = BENCH_DIR / "BENCH_serve.json"


def make_instances(count: int, n: int, seed0: int) -> List[object]:
    return [
        random_special_form_instance(n, delta_K=3, constraint_rounds=1, seed=seed0 + i)
        for i in range(count)
    ]


def _serve_counters(deltas: Dict[str, float]) -> Dict[str, int]:
    return {k: int(v) for k, v in sorted(deltas.items()) if k.startswith("serve.")}


# -- in-process rows (the gated measurement) ---------------------------


async def _barrage_inprocess(
    server: AllocationServer, bodies: List[bytes]
) -> List[Dict[str, object]]:
    outcomes = await asyncio.gather(*(server._serve_op("solve", raw) for raw in bodies))
    payloads = []
    for status, payload in outcomes:
        if status != 200 or not payload.get("ok"):
            raise RuntimeError(f"request failed during benchmark: {status} {payload}")
        payloads.append(payload)
    return payloads


async def _measure_inprocess(
    n: int, batch: int, R: int, seed: int, workers: int, repeats: int
) -> Dict[str, object]:
    config = ServeConfig(
        workers=workers,
        max_pending=2 * batch + 8,
        coalesce_window_s=0.01,
        coalesce_max_batch=batch,  # one flush per barrage, deterministically
        registry_capacity=batch + 4,
    )
    server = AllocationServer(config)
    await server.start()  # binds an ephemeral port we never dial; sets up lifecycle
    try:
        instances = make_instances(batch, n, seed)
        digests = [server.registry.admit_instance(inst).digest for inst in instances]

        def bodies(coalesce: bool, include_values: bool = False) -> List[bytes]:
            return [
                json.dumps(
                    {
                        "digest": d,
                        "R": R,
                        "coalesce": coalesce,
                        "include_values": include_values,
                    }
                ).encode("utf-8")
                for d in digests
            ]

        # Correctness first: coalesced responses must be bitwise-equal to the
        # solo ladder *and* to a direct solve (the batcher's bitwise contract).
        solo = await _barrage_inprocess(server, bodies(False, include_values=True))
        coal = await _barrage_inprocess(server, bodies(True, include_values=True))
        direct = [LocalMaxMinSolver(R=R).solve(inst) for inst in instances]
        equal = all(
            c["result"] == s["result"]
            and c["result"]["utility"] == d.utility()
            for c, s, d in zip(coal, solo, direct)
        )
        coalesced_ok = all(c.get("coalesced") for c in coal) if batch > 1 else True

        # Timed passes, tracing off; best-of-repeats per mode.
        times: Dict[str, float] = {}
        for mode, coalesce in (("serial", False), ("coalesced", True)):
            raw = bodies(coalesce)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                await _barrage_inprocess(server, raw)
                best = min(best, time.perf_counter() - start)
            times[mode] = best

        # Untimed traced pass per mode for the serve.* counter rollups.
        counters: Dict[str, Dict[str, int]] = {}
        prior = obs.enabled()
        obs.configure(enabled=True)
        try:
            for mode, coalesce in (("serial", False), ("coalesced", True)):
                mark = obs.counters_mark()
                await _barrage_inprocess(server, bodies(coalesce))
                counters[mode] = _serve_counters(obs.counters_since(mark))
        finally:
            obs.configure(enabled=prior)

        speedup = times["serial"] / times["coalesced"] if times["coalesced"] > 0 else float("inf")
        return {
            "mode": "in-process",
            "n_agents": instances[0].num_agents,
            "batch": batch,
            "R": R,
            "workers": workers,
            "serial_s": round(times["serial"], 6),
            "coalesced_s": round(times["coalesced"], 6),
            "serial_rps": round(batch / times["serial"], 1),
            "coalesced_rps": round(batch / times["coalesced"], 1),
            "speedup": round(speedup, 2),
            "bitwise_equal": equal,
            "coalesced_ok": coalesced_ok,
            "counters": counters,
        }
    finally:
        await server.drain()


# -- http rows (informational: real sockets, real clients) -------------


def _measure_http(
    n: int, batch: int, R: int, seed: int, workers: int, repeats: int, concurrency: int
) -> Dict[str, object]:
    config = ServeConfig(
        workers=workers,
        max_pending=2 * batch + 8,
        coalesce_window_s=0.01,
        coalesce_max_batch=batch,
        registry_capacity=batch + 4,
    )
    with ServerHandle(config) as handle:
        instances = make_instances(batch, n, seed)
        digests = [
            handle.server.registry.admit_instance(inst).digest for inst in instances
        ]
        client = handle.client(timeout_s=60.0)

        def requests(coalesce: bool) -> List[Tuple[str, dict]]:
            return [
                ("solve", {"digest": d, "R": R, "coalesce": coalesce}) for d in digests
            ]

        times: Dict[str, float] = {}
        for mode, coalesce in (("serial", False), ("coalesced", True)):
            reqs = requests(coalesce)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                outcomes = chaos_barrage(client, reqs, concurrency=concurrency)
                elapsed = time.perf_counter() - start
                labels = [classify_response(o) for o in outcomes]
                if any(label != "ok" for label in labels):
                    raise RuntimeError(f"http barrage saw non-ok outcomes: {set(labels)}")
                best = min(best, elapsed)
            times[mode] = best

        speedup = times["serial"] / times["coalesced"] if times["coalesced"] > 0 else float("inf")
        counters = _serve_counters(
            {k: float(v) for k, v in handle.server.counters.items()}
        )
        return {
            "mode": "http",
            "n_agents": instances[0].num_agents,
            "batch": batch,
            "R": R,
            "workers": workers,
            "serial_s": round(times["serial"], 6),
            "coalesced_s": round(times["coalesced"], 6),
            "serial_rps": round(batch / times["serial"], 1),
            "coalesced_rps": round(batch / times["coalesced"], 1),
            "speedup": round(speedup, 2),
            "bitwise_equal": True,  # asserted by the in-process rows for this grid
            "coalesced_ok": True,
            "counters": {"lifetime": counters},
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 20])
    parser.add_argument("--batches", type=int, nargs="+", default=[16, 64])
    parser.add_argument("-R", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--concurrency", type=int, default=32, help="http client threads")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT), help="aggregate JSON path")
    parser.add_argument("--min-speedup", type=float, default=2.0, help="acceptance bar")
    parser.add_argument(
        "--speedup-floor-batch",
        type=int,
        default=32,
        help="in-process rows with a smaller batch skip the bar",
    )
    parser.add_argument("--no-http", action="store_true", help="skip the socket rows")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI mode: one small row, no speedup assertion, output to results/smoke/",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes = [10]
        args.batches = [8]
        args.repeats = 2
        args.min_speedup = 0.0

    rows: List[Dict[str, object]] = []
    for n in args.sizes:
        for batch in args.batches:
            rows.append(
                asyncio.run(
                    _measure_inprocess(n, batch, args.R, args.seed, args.workers, args.repeats)
                )
            )
    if not args.no_http:
        for n in args.sizes:
            batch = max(args.batches)
            rows.append(
                _measure_http(
                    n, batch, args.R, args.seed, args.workers, args.repeats, args.concurrency
                )
            )

    print(
        format_table(
            rows,
            [
                "mode",
                "n_agents",
                "batch",
                "workers",
                "serial_s",
                "coalesced_s",
                "serial_rps",
                "coalesced_rps",
                "speedup",
                "bitwise_equal",
            ],
            title="bench_serve: coalesced vs per-request dispatch",
        )
    )

    failures: List[str] = []
    for row in rows:
        if not row["bitwise_equal"]:
            failures.append(f"coalesced != solo at n={row['n_agents']} batch={row['batch']}")
        if not row["coalesced_ok"]:
            failures.append(f"batch at n={row['n_agents']} did not coalesce")
        if (
            row["mode"] == "in-process"
            and int(row["batch"]) >= args.speedup_floor_batch
            and float(row["speedup"]) < args.min_speedup
        ):
            failures.append(
                f"in-process speedup {row['speedup']}x < {args.min_speedup}x at "
                f"n={row['n_agents']} batch={row['batch']}"
            )
        coal = row["counters"].get("coalesced", {})
        if row["mode"] == "in-process" and int(row["batch"]) > 1:
            if coal.get("serve.coalesced_requests", 0) != int(row["batch"]):
                failures.append(
                    f"expected {row['batch']} coalesced requests, counters said {coal}"
                )
            if coal.get("serve.batch_fallbacks", 0):
                failures.append(f"coalesced pass fell back to solo dispatch: {coal}")

    payload = {
        "format": "bench-serve-trajectory",
        "version": 1,
        "R": args.R,
        "seed": args.seed,
        "workers": args.workers,
        "repeats": args.repeats,
        "min_speedup_at_floor": args.min_speedup,
        "speedup_floor_batch": args.speedup_floor_batch,
        "rows": rows,
    }
    written = write_bench_payload(
        payload, args.output, smoke=args.smoke, default_output=DEFAULT_OUTPUT
    )
    print(f"wrote {written}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    floor_rows = [
        row
        for row in rows
        if row["mode"] == "in-process" and int(row["batch"]) >= args.speedup_floor_batch
    ]
    if floor_rows:
        best = max(float(row["speedup"]) for row in floor_rows)
        print(f"bench_serve OK: coalescing up to {best:.2f}x over per-request dispatch")
    else:
        print("bench_serve OK (smoke: no speedup bar applied)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
