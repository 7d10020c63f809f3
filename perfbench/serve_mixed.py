"""``serve-mixed``: a closed-loop client against ``maxmin-lp serve``.

The server is a ``maxmin-lp serve --port 0 --workers 2`` subprocess with 12
resident instances: 6 general ``random`` (2000 agents) and 6 ``cycle``
(1000 segments, 2000 agents, special form, every alternating tree
identical).  Each request is a ``solve`` with ``R`` in {2, 3, 4} and
``include_values``.  80% name a resident digest; 20% re-send the instance
document inline (the upload path: parse, validate, re-serialize, digest).
The registry never grows or evicts and no result cache is configured, so
every request runs the kernels.  Every response must be ``ok``, not
``degraded``, and carry the utility of an in-process ``LocalMaxMinSolver``
solve, bit for bit; an eviction during the window fails the run.

One client, not two: two closed-loop clients on a 2-CPU machine keep both
CPUs busy without raising throughput (the server's solves mostly hold the
GIL), so their latency doubles in queueing and follows every change in
the host's load.  In five interleaved pairs of runs, two clients gave
op p50 64-96 ms at 14-22 requests/s, one client 43-49 ms at 16-18.
``CLIENTS`` raises the load.

The traced run keeps the same load (one client-side span per request,
recorded once the clients have stopped, so tracing costs the requests
nothing) and then replays the plan's
first requests in this process, single-threaded:
``instance_from_json`` + ``InstanceRegistry.admit_instance`` for uploads,
``LocalMaxMinSolver.solve`` on the warm resident instance, and
``json.dumps`` of the response.
"""

from __future__ import annotations

import http.client
import random
import signal
import subprocess
import threading
import time
from typing import Dict, List, NamedTuple, Tuple

import common

N_RANDOM = 6
N_CYCLE = 6
RANDOM_AGENTS = 2000
CYCLE_SEGMENTS = 1000
R_VALUES = (2, 3, 4)
UPLOAD_EVERY = 5  # one request in five re-sends its instance inline
CLIENTS = 1
WORKERS = 2
PLAN_BLOCKS = 20
TAIL_PCT = 95.0
SETUP_REPEATS = 3
REPLAY_REQUESTS = 36
HOST = "127.0.0.1"


class Request(NamedTuple):
    start: float
    end: float
    elapsed_ms: float  # server-side time, from the response
    instance: int
    R: int
    upload: bool
    good: bool

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class _Server:
    """One ``maxmin-lp serve`` child: spawned, polled for its port, drained."""

    def __init__(self, ctx: common.Context) -> None:
        self.stderr = open(ctx.workdir / "server-stderr.txt", "ab")
        self.proc = subprocess.Popen(
            common.python_argv(
                "-m", "repro.cli", "serve", "--host", HOST, "--port", "0", "--workers", str(WORKERS)
            ),
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            env=common.child_env(),
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", errors="replace")
        finally:
            watchdog.cancel()
        marker = f"listening on http://{HOST}:"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process: its own peak resident set."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.stderr.close()


def _prepare(ctx: common.Context):
    """Pool documents, reference utilities per (instance, R) and the request plans."""
    from repro.algo.general_solver import LocalMaxMinSolver
    from repro.generators import cycle_instance, random_instance
    from repro.io.serialization import instance_from_json, instance_to_json

    pool = [
        random_instance(RANDOM_AGENTS, delta_I=3, delta_K=3, seed=ctx.seed * N_RANDOM + j)
        for j in range(N_RANDOM)
    ] + [
        cycle_instance(CYCLE_SEGMENTS, name=f"cycle-{CYCLE_SEGMENTS}-s{ctx.seed}-{j}")
        for j in range(N_CYCLE)
    ]
    docs = [instance_to_json(inst) for inst in pool]
    for j, text in enumerate(docs):
        (ctx.workdir / f"instance{j}.json").write_text(text, encoding="utf-8")
    instances = [instance_from_json(text) for text in docs]
    refs = {
        (j, R): LocalMaxMinSolver(R=R).solve(inst).utility()
        for j, inst in enumerate(instances)
        for R in R_VALUES
    }
    # Balanced blocks keep the request mix exact in every window: each
    # (instance, R) pair appears UPLOAD_EVERY times per block, once inline.
    rng = random.Random(ctx.seed)
    block = [
        (j, R, k == 0) for j in range(len(docs)) for R in R_VALUES for k in range(UPLOAD_EVERY)
    ]
    plans = []
    for _ in range(CLIENTS):
        plan = []
        for _ in range(PLAN_BLOCKS):
            rng.shuffle(block)
            plan.extend(block)
        plans.append(plan)
    return docs, instances, refs, plans


def _start(ctx: common.Context, docs: List[str]) -> Tuple[_Server, float, List[str]]:
    """Spawn a server and upload the pool; returns (server, seconds, digests)."""
    from repro.serve import ServeClient

    start = common.now()
    server = _Server(ctx)
    client = ServeClient(HOST, server.port)
    digests = []
    for text in docs:
        status, payload = client.info(instance=text)
        if status != 200 or not payload.get("ok"):
            server.stop()
            raise RuntimeError(f"pool upload failed: {payload}")
        digests.append(payload["digest"])
    return server, common.now() - start, digests


class _Load:
    """Closed-loop clients walking their plans; one record per request."""

    def __init__(self, port: int, docs, digests, refs, instances, plans) -> None:
        from repro.serve import ServeClient

        self.client = ServeClient(HOST, port)
        self.docs = docs
        self.digests = digests
        self.refs = refs
        self.sizes = [inst.num_agents for inst in instances]
        self.plans = plans
        self.cursor = [0] * len(plans)

    def one(self, j: int, R: int, upload: bool) -> Request:
        kwargs = {"instance": self.docs[j]} if upload else {"digest": self.digests[j]}
        start = common.now()
        try:
            status, payload = self.client.solve(R=R, include_values=True, **kwargs)
        except (OSError, http.client.HTTPException, ValueError):
            status, payload = 0, {}  # a transport failure is a failed op
        end = common.now()
        result = payload.get("result") or {}
        good = (
            status == 200
            and payload.get("ok") is True
            and payload.get("degraded") is False
            and result.get("utility") == self.refs[(j, R)]
            and result.get("feasible") is True
            and len(result.get("values") or ()) == self.sizes[j]
        )
        return Request(start, end, float(payload.get("elapsed_ms", 0.0)), j, R, upload, good)

    def run(self, seconds: float) -> Tuple[List[Request], common.StealMeter]:
        """The clients for ``seconds``; this thread marks the steal slices meanwhile."""
        records: List[List[Request]] = [[] for _ in self.plans]

        def loop(c: int) -> None:
            plan = self.plans[c]
            while common.now() < deadline:
                j, R, upload = plan[self.cursor[c] % len(plan)]
                self.cursor[c] += 1
                records[c].append(self.one(j, R, upload))

        meter = common.StealMeter()
        deadline = common.now() + seconds
        threads = [threading.Thread(target=loop, args=(c,)) for c in range(len(self.plans))]
        for thread in threads:
            thread.start()
        while common.now() < deadline:
            time.sleep(min(meter.slice_s, max(0.0, deadline - common.now())))
            meter.mark()
        for thread in threads:
            thread.join()
        meter.mark()
        return [rec for per_client in records for rec in per_client], meter


def _counters(port: int) -> Dict[str, float]:
    from repro.serve import ServeClient

    status, payload = ServeClient(HOST, port).metrics()
    if status != 200:
        raise RuntimeError("GET /metrics failed")
    counters = dict(payload["counters"])
    counters["evictions"] = payload["registry"]["evictions"]
    return counters


def _replay(ctx: common.Context, docs, instances, plans) -> Dict[str, float]:
    """Single-threaded in-process replay of the plan's first requests."""
    import json

    from repro.algo.general_solver import LocalMaxMinSolver
    from repro.io.serialization import instance_from_json
    from repro.serve.protocol import ok_response
    from repro.serve.registry import InstanceRegistry
    from repro.serve.server import AllocationServer

    tracer = ctx.tracer
    registry = InstanceRegistry()
    entries = [registry.admit_instance(inst) for inst in instances]
    admit, solve, encode = [], [], []
    for j, R, upload in plans[0][:REPLAY_REQUESTS]:
        with tracer.span("serve.replay", instance=j, R=R, upload=upload):
            entry = entries[j]
            if upload:
                with tracer.span("serve.admit_upload") as sp:
                    entry = registry.admit_instance(instance_from_json(docs[j]))
                admit.append(sp.duration_s)
            with tracer.span("algo.solve_warm") as sp:
                res = LocalMaxMinSolver(R=R).solve(entry.instance)
            solve.append(sp.duration_s)
            payload = ok_response(
                "solve", AllocationServer._package_local(res, True), digest=entry.digest
            )
            with tracer.span("serve.encode") as sp:
                json.dumps(payload)
            encode.append(sp.duration_s)
    return {
        "serve.admit_upload_ms": common.mean(admit) * 1000.0,
        "algo.solve_warm_ms": common.mean(solve) * 1000.0,
        "serve.encode_ms": common.mean(encode) * 1000.0,
    }


def run(ctx: common.Context) -> common.Outcome:
    docs, instances, refs, plans = _prepare(ctx)
    setup_times = []
    for rep in range(SETUP_REPEATS):
        server, seconds, digests = _start(ctx, docs)
        setup_times.append(seconds)
        if rep < SETUP_REPEATS - 1:
            server.stop()
    try:
        load = _Load(server.port, docs, digests, refs, instances, plans)
        # Warm-up, untimed: one solve per resident instance fills its
        # preprocess and §4 transform caches, as on a long-running server.
        for j in range(len(docs)):
            load.one(j, R_VALUES[0], False)
        before = _counters(server.port)
        # A traced run leaves time for the replay after the load.
        records, meter = load.run(ctx.seconds * (0.7 if ctx.trace else 1.0))
        after = _counters(server.port)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    # The registry holds the whole pool, so an eviction means the server
    # re-admitted an instance it should have kept: count each as a failure.
    failed = sum(1 for r in records if not r.good) + delta["evictions"]
    notes = {"requests": len(records), "evictions": delta["evictions"]}
    if not ctx.trace:
        mask, kept_wall = meter.select([r.end for r in records])
        kept = [r for r, keep in zip(records, mask) if keep]
        lat = [r.ms for r in kept]
        uploads = [r.ms for r in kept if r.upload]
        tail_ms, n, beyond = common.tail(lat, TAIL_PCT)
        notes["op_tail"] = f"p{TAIL_PCT:g} of {n} requests, {beyond} beyond it"
        notes["upload_p50_ms"] = round(common.median(uploads), 3) if uploads else None
        notes["steal"] = meter.summary([r.ms for r in records])
        notes["setup"] = f"median of {SETUP_REPEATS} server spawns to listening + pool upload"
        metrics = {
            "op_p50_ms": common.median(lat),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(kept) / kept_wall,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": common.median(setup_times),
        }
        return common.Outcome(len(records), failed, metrics, notes)

    for r in records:
        ctx.tracer.add(
            "serve.request", r.start, r.end,
            instance=r.instance, R=r.R, upload=r.upload, elapsed_ms=r.elapsed_ms,
        )
    rows = _replay(ctx, docs, instances, plans)
    lat = [r.ms for r in records]
    op_mean = common.mean(lat)
    transport = common.mean(r.ms - r.elapsed_ms for r in records)
    upload_share = sum(1 for r in records if r.upload) / len(records)
    solves = delta.get("serve.requests", 0) - delta.get("serve.shed", 0)
    metrics = dict(rows)
    metrics.update(
        {
            "serve.server_ms": common.median(r.elapsed_ms for r in records),
            "serve.transport_ms": transport,
            "serve.upload_p50_ms": common.median(r.ms for r in records if r.upload),
            "serve.queue_residual_ms": op_mean
            - transport
            - upload_share * rows["serve.admit_upload_ms"]
            - rows["algo.solve_warm_ms"],
            "serve.coalesced_frac": delta.get("serve.coalesced_requests", 0) / solves if solves else 0.0,
            "serve.shed": delta.get("serve.shed", 0),
            "serve.batch_fallbacks": delta.get("serve.batch_fallbacks", 0),
            "serve.evictions": after["evictions"],
            "trace.op_mean_ms": op_mean,
            "trace.op_p50_ms": common.median(lat),
            # The request spans are recorded after the load, so the traced
            # requests are untraced ones: the overhead is 0 by construction.
            "trace.untraced_op_p50_ms": common.median(lat),
        }
    )
    notes["rows"] = (
        "transport_ms (mean) + upload share x admit_upload_ms + solve_warm_ms + "
        "queue_residual_ms = trace.op_mean_ms; server_ms is the p50 of elapsed_ms"
    )
    return common.Outcome(len(records), failed, metrics, notes)
