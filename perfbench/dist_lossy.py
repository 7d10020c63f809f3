"""``dist-lossy``: the §5 protocol on the resilient runtime under message loss.

The op is one ``ResilientLocalSolver(R=3).solve`` on one of two seeded
special-form instances, with a ``FaultPlan`` that drops 5% of round-3
messages on their first transmission; the default retransmit budget
recovers all of them.  Every op is checked: the solve must have
retransmitted (so the plan really dropped messages), the certificate must
call every agent ``exact`` and the outputs must equal the fault-free run's
bit for bit.
"""

from __future__ import annotations

import common

N_AGENTS = 10_000
N_FILES = 2
R = 3
DROP_ROUND = 3
DROP_FRACTION = 0.05
TAIL_PCT = 75.0
SETUP_REPEATS = 5


def run(ctx: common.Context) -> common.Outcome:
    from repro.generators import random_special_form_instance
    from repro.io.serialization import save_instance

    for j in range(N_FILES):
        save_instance(
            random_special_form_instance(N_AGENTS, delta_K=3, seed=ctx.seed * N_FILES + j),
            ctx.workdir / f"instance{j}.json",
        )
    return common.run_worker(ctx, "dist_lossy")


def _setup(ctx: common.Context):
    """Median time to load and compile every instance; returns the last set."""
    from repro.io.serialization import load_instance

    times = []
    for _ in range(SETUP_REPEATS):
        start = common.now()
        instances = [load_instance(ctx.workdir / f"instance{j}.json") for j in range(N_FILES)]
        for instance in instances:
            instance.compiled()
        times.append(common.now() - start)
    return instances, common.median(times)


def work(ctx: common.Context) -> common.Outcome:
    import numpy as np

    from repro.algo.local_solver import SpecialFormLocalSolver
    from repro.distributed import ResilientLocalSolver
    from repro.distributed.plane import MessagePlane
    from repro.faults import FaultPlan, MessageFault

    instances, setup_s = _setup(ctx)
    plan = FaultPlan(
        seed=ctx.seed,
        message_faults=(MessageFault(round_number=DROP_ROUND, fraction=DROP_FRACTION),),
    )
    lossy = ResilientLocalSolver(R=R, faults=plan)
    # Fault-free reference outputs (this also fills the instances' lazy caches).
    refs = [ResilientLocalSolver(R=R).solve(inst)[0].value_array() for inst in instances]
    tracer = ctx.tracer
    ops = []  # (op_s, rounds, messages, retransmits, exact_frac, traced, end)
    replays = []  # (plane_s, central_s)
    failed = 0

    def op(i: int, traced: bool) -> None:
        nonlocal failed
        instance = instances[i % N_FILES]
        if traced:
            with tracer.span("distributed.solve") as sp:
                solution, result = lossy.solve(instance)
            op_s = sp.duration_s
        else:
            t0 = common.now()
            solution, result = lossy.solve(instance)
            op_s = common.now() - t0
        end = common.now()
        exact = solution.degradation.counts()["exact"]
        if (
            result.retransmits == 0
            or exact != instance.num_agents
            or not np.array_equal(solution.value_array(), refs[i % N_FILES])
        ):
            failed += 1
        ops.append(
            (
                op_s, result.rounds, result.total_messages, result.retransmits,
                exact / instance.num_agents, traced, end,
            )
        )
        meter.poll()
        if traced:
            # Replays outside the op span: the plane build inside the solve,
            # and the same answer computed without messages.
            with tracer.span("distributed.plane_build") as plane:
                MessagePlane(instance)
            with tracer.span("algo.central_solve") as central:
                SpecialFormLocalSolver(R, tu_tol=lossy.tu_tol).solve(instance)
            replays.append((plane.duration_s, central.duration_s))

    # A traced run traces every second pass over the instances, so that
    # drift in the host's speed reaches traced and untraced solves alike.
    meter = common.StealMeter()
    start = common.now()
    min_ops = 2 * N_FILES if ctx.trace else 1
    while len(ops) < min_ops or common.now() - start < ctx.seconds:
        op(len(ops), ctx.trace and (len(ops) // N_FILES) % 2 == 1)
    meter.mark()

    notes = {"instances": N_FILES, "drop": f"{DROP_FRACTION:g} of round {DROP_ROUND}"}
    if not ctx.trace:
        mask, kept_wall = meter.select([o[6] for o in ops])
        lat = [o[0] * 1000.0 for o, keep in zip(ops, mask) if keep]
        tail_ms, n, beyond = common.tail(lat, TAIL_PCT)
        notes["op_tail"] = f"p{TAIL_PCT:g} of {n} solves, {beyond} beyond it"
        notes["steal"] = meter.summary([o[0] * 1000.0 for o in ops])
        notes["setup"] = f"median of {SETUP_REPEATS} load+compile passes over {N_FILES} instances"
        metrics = {
            "op_p50_ms": common.median(lat),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(lat) / kept_wall,
            "setup_s": setup_s,
        }
    else:
        plain = [o for o in ops if not o[5]]
        traced = [o for o in ops if o[5]]
        op_mean = common.mean(o[0] for o in traced) * 1000.0
        plane_ms = common.mean(r[0] for r in replays) * 1000.0
        central_ms = common.mean(r[1] for r in replays) * 1000.0
        metrics = {
            "distributed.plane_build_ms": plane_ms,
            "algo.central_solve_ms": central_ms,
            "distributed.protocol_residual_ms": op_mean - plane_ms - central_ms,
            "distributed.rounds": common.mean(o[1] for o in traced),
            "distributed.messages": common.mean(o[2] for o in traced),
            "distributed.retransmits": common.mean(o[3] for o in traced),
            "distributed.exact_frac": common.mean(o[4] for o in traced),
            "trace.op_mean_ms": op_mean,
            "trace.op_p50_ms": common.median(o[0] * 1000.0 for o in traced),
            "trace.untraced_op_p50_ms": common.median(o[0] * 1000.0 for o in plain),
        }
        notes["rows"] = (
            "means per solve; plane_build + central_solve + "
            "distributed.protocol_residual_ms = trace.op_mean_ms"
        )
    return common.Outcome(len(ops), failed, metrics, notes)
