"""``churn-stream``: one ``DynamicNetwork`` under single-edit churn.

The op is one tick: ``CompiledDelta.apply()`` plus ``DynamicNetwork.apply``
on the result.  The benchmark draws each tick's one-edit delta with
``random_churn_delta`` between ops, outside the timed op, so ``ops_per_s``
is ticks per second of summed op time.  The ``maxmin-lp
dynamics`` default mix of 30% structural edits is stratified: every block
of 10 ticks holds exactly 3 structural ones, in a seeded order.  A few
seeded ticks are re-checked against a from-scratch solve after the window.
"""

from __future__ import annotations

import random

import common

N_AGENTS = 10_000
R = 3
STRUCTURAL_PER_BLOCK, TICKS_PER_BLOCK = 3, 10  # the CLI's structural_prob=0.3
TAIL_PCT = 95.0
SETUP_REPEATS = 7
SAMPLES = 4  # ticks re-solved from scratch after the window
SAMPLE_RANGE = 100  # ... drawn from the first SAMPLE_RANGE ticks
TOL = 1e-9


def run(ctx: common.Context) -> common.Outcome:
    from repro.generators import random_special_form_instance
    from repro.io.serialization import save_instance

    save_instance(
        random_special_form_instance(N_AGENTS, delta_K=3, seed=ctx.seed),
        ctx.workdir / "instance.json",
    )
    return common.run_worker(ctx, "churn_stream")


def _setup(path):
    """Median ``DynamicNetwork`` construction time over fresh loads; returns the last net."""
    from repro.distributed.dynamics import DynamicNetwork
    from repro.io.serialization import load_instance

    times = []
    for _ in range(SETUP_REPEATS):
        instance = load_instance(path)
        start = common.now()
        net = DynamicNetwork(instance, R)
        times.append(common.now() - start)
    return net, common.median(times)


def work(ctx: common.Context) -> common.Outcome:
    import numpy as np

    from repro.algo.local_solver import SpecialFormLocalSolver
    from repro.distributed.dynamics import random_churn_delta

    net, setup_s = _setup(ctx.workdir / "instance.json")
    rng = np.random.default_rng(ctx.seed)
    # Stratified kinds: STRUCTURAL_PER_BLOCK structural ticks in every block
    # of TICKS_PER_BLOCK, in a seeded order, so every window sees the 0.3
    # mix rather than a sample of it.  A structural edit that finds no
    # valid site falls back to a coefficient jitter; it is owed next tick.
    kinds = random.Random(ctx.seed)
    block = [k < STRUCTURAL_PER_BLOCK for k in range(TICKS_PER_BLOCK)]
    schedule: list = []
    sampled = set(kinds.sample(range(SAMPLE_RANGE), SAMPLES))
    tracer = ctx.tracer
    ticks = []  # (op_s, structural, apply_s, incremental_s, recomputed, num_agents, traced, end)
    samples = []

    def tick(traced: bool) -> None:
        if not schedule:
            kinds.shuffle(block)
            schedule.extend(block)
        structural = schedule.pop()
        delta = random_churn_delta(
            net.instance, rng, edits=1, structural_prob=1.0 if structural else 0.0
        )
        if traced:
            with tracer.span("churn.tick") as op:
                with tracer.span("core.delta_apply") as applied:
                    result = delta.apply()
                with tracer.span("algo.incremental") as incremental:
                    res = net.apply(result)
            op_s, apply_s, inc_s = op.duration_s, applied.duration_s, incremental.duration_s
            tracer.spans[op.id]["attrs"]["structural"] = bool(res.structural)
        else:
            t0 = common.now()
            res = net.apply(delta.apply())
            op_s = common.now() - t0
            apply_s = inc_s = 0.0
            meter.poll()
        if structural and not res.structural:
            schedule.append(True)
        ticks.append(
            (
                op_s, bool(res.structural), apply_s, inc_s,
                len(res.recomputed_agents), res.num_agents, traced, common.now(),
            )
        )
        if len(ticks) - 1 in sampled:
            samples.append((net.instance, net.state.x.copy()))

    # A traced run traces every second tick, so that drift in the host's
    # speed reaches traced and untraced ticks alike.
    meter = common.StealMeter()
    start = common.now()
    while len(ticks) < 2 or common.now() - start < ctx.seconds:
        tick(ctx.trace and len(ticks) % 2 == 1)
    meter.mark()

    # Correctness, untimed: sampled ticks against a from-scratch solve.
    solver = SpecialFormLocalSolver(R)
    failed = 0
    for instance, x in samples:
        fresh = solver.solve(instance).solution.value_array()
        if fresh.shape != x.shape or float(np.max(np.abs(fresh - x))) > TOL:
            failed += 1

    lat = [t[0] * 1000.0 for t in ticks if not t[6]]
    notes = {"ticks": len(ticks), "checked_ticks": len(samples)}
    if not ctx.trace:
        mask, _ = meter.select([t[7] for t in ticks])
        notes["steal"] = meter.summary(lat)
        lat = [ms for ms, keep in zip(lat, mask) if keep]
        tail_ms, n, beyond = common.tail(lat, TAIL_PCT)
        notes["op_tail"] = f"p{TAIL_PCT:g} of {n} ticks, {beyond} beyond it"
        notes["setup"] = f"median of {SETUP_REPEATS} DynamicNetwork constructions"
        metrics = {
            "op_p50_ms": common.median(lat),
            "op_tail_ms": tail_ms,
            # Summed op time, not wall time: the benchmark's own delta
            # generation between ticks is left out.
            "ops_per_s": len(lat) / (sum(lat) / 1000.0),
            "setup_s": setup_s,
        }
    else:
        traced = [t for t in ticks if t[6]]
        coeff = [t for t in traced if not t[1]]
        structural = [t for t in traced if t[1]]
        frac = len(structural) / len(traced)
        rows = {
            "core.delta_apply_coeff_ms": common.mean(t[2] for t in coeff) * 1000.0,
            "core.delta_apply_structural_ms": common.mean(t[2] for t in structural) * 1000.0,
            "algo.incremental_coeff_ms": common.mean(t[3] for t in coeff) * 1000.0,
            "algo.incremental_structural_ms": common.mean(t[3] for t in structural) * 1000.0,
        }
        op_mean = common.mean(t[0] for t in traced) * 1000.0
        explained = (1.0 - frac) * (
            rows["core.delta_apply_coeff_ms"] + rows["algo.incremental_coeff_ms"]
        ) + frac * (rows["core.delta_apply_structural_ms"] + rows["algo.incremental_structural_ms"])
        metrics = dict(rows)
        metrics.update(
            {
                "core.structural_frac": frac,
                "algo.recomputed_agents": common.mean(t[4] for t in traced),
                "algo.reused_frac": common.mean(1.0 - t[4] / t[5] for t in traced),
                "distributed.tick_residual_ms": op_mean - explained,
                "trace.op_mean_ms": op_mean,
                "trace.op_p50_ms": common.median(t[0] * 1000.0 for t in traced),
                "trace.untraced_op_p50_ms": common.median(lat),
            }
        )
        notes["rows"] = (
            "per-kind means; structural_frac-weighted rows + "
            "distributed.tick_residual_ms = trace.op_mean_ms"
        )
    return common.Outcome(len(ticks), failed, metrics, notes)
