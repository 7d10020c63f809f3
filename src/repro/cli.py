"""Command-line interface: ``maxmin-lp``.

Sub-commands
------------
``generate``
    Create an instance from one of the built-in generators and write it to a
    JSON file.
``solve``
    Solve an instance file with the local algorithm (and optionally the safe
    baseline and the exact LP) and print a comparison table.
``compare``
    Sweep the local algorithm over several values of R on an instance file.
``sweep``
    Run a full (family × size × R) parameter sweep through the batch engine
    (:mod:`repro.engine`), optionally fanned out over worker processes
    (``--jobs``) and backed by an on-disk result cache (``--cache-dir``).
``info``
    Print structural statistics of an instance file.
``dynamics``
    Stream random churn over a special-form instance and re-solve it
    incrementally per tick (:class:`repro.distributed.dynamics.DynamicNetwork`).
``serve``
    Run the resilient allocation server (:mod:`repro.serve`): JSON over
    HTTP with admission control, deadlines, a degradation ladder down to
    the safe baseline, micro-batching and graceful drain on SIGTERM.

Exit codes follow convention: ``0`` success, ``1`` a run that completed
with recorded failures (e.g. a sweep with failed jobs), ``2`` usage errors
— including an ``R`` below 2, a size or count below its floor (or one a
generator refuses), a deadline no wait can use, an ``R`` whose alternating
trees would pass :data:`repro.algo.kernels.MAX_TREE_NODES` (any
:class:`~repro.exceptions.SolverError`), unreadable or malformed instance
files and output files that cannot be written, which are reported as a
one-line message rather than a traceback.

The CLI is a thin veneer over the library — every code path it exercises is
also covered by the test suite through the Python API.  Each handler imports
the subsystem it runs, so ``--help`` loads no numpy and ``solve`` loads
neither the batch engine nor the generators.  ``load_instance`` and
``save_solution`` stay module attributes that the handlers call, so a
wrapper set on this module reaches every call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from . import obs
from .exceptions import EngineError, SerializationError, SolverError
from .io.serialization import load_instance, save_instance, save_solution

if TYPE_CHECKING:
    from .core.instance import MaxMinInstance

__all__ = ["main", "build_parser"]

#: Instance families understood by ``generate`` and ``sweep``.
FAMILIES = ("random", "special-form", "cycle", "torus", "sensor", "ring")


class _CliError(Exception):
    """A user-facing CLI failure: printed as one line, exit code 2."""


def _load_instance_friendly(path: str) -> MaxMinInstance:
    """Load an instance file, turning failures into one-line CLI errors.

    A missing path or a malformed/invalid JSON document is a usage error,
    not a crash: the caller's traceback would bury the actual problem.
    """
    try:
        return load_instance(path)
    except FileNotFoundError:
        raise _CliError(f"instance file not found: {path}") from None
    except IsADirectoryError:
        raise _CliError(f"instance path is a directory, not a file: {path}") from None
    except SerializationError as exc:
        raise _CliError(f"invalid instance file {path}: {exc}") from None
    except OSError as exc:
        raise _CliError(f"cannot read instance file {path}: {exc}") from None


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Turn a failed write of ``path`` into a one-line CLI error."""
    try:
        yield
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _int_at_least(floor: int, name: str) -> Callable[[str], int]:
    """An argparse integer type that refuses values below ``floor``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"{name} must be >= {floor}, got {value}")
        return value

    return parse


#: The argparse type of every ``R``: an integer of at least 2.
_shifting_parameter = _int_at_least(2, "R")


def _check_seconds(value: float, flag: str) -> None:
    """Refuse a deadline no wait can use (:func:`check_timeout`)."""
    from .engine.resilience import check_timeout

    try:
        check_timeout(value, flag)
    except EngineError as exc:
        raise _CliError(str(exc)) from None


def _add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``solve`` and ``sweep``."""
    sub_parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the run and print the span tree and counter table",
    )
    sub_parser.add_argument(
        "--trace-out",
        dest="trace_out",
        help="trace the run and write the versioned trace JSON to this path",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxmin-lp",
        description="Local approximation algorithms for max-min linear programs (SPAA 2009 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an instance and write it to JSON")
    gen.add_argument("family", choices=list(FAMILIES), help="instance family")
    gen.add_argument("output", help="output JSON path")
    gen.add_argument(
        "--size", type=_int_at_least(1, "size"), default=24,
        help="number of agents / segments / sensors",
    )
    gen.add_argument("--delta-i", type=int, default=3, dest="delta_I", help="max constraint degree")
    gen.add_argument("--delta-k", type=int, default=3, dest="delta_K", help="max objective degree")
    gen.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", help="solve an instance JSON with the local algorithm")
    solve.add_argument("input", help="instance JSON path")
    solve.add_argument("-R", type=_shifting_parameter, default=3, help="shifting parameter (>= 2)")
    solve.add_argument("--output", help="write the solution to this JSON path")
    solve.add_argument("--with-safe", action="store_true", help="also run the safe baseline")
    solve.add_argument("--with-optimum", action="store_true", help="also solve the exact LP")
    solve.add_argument(
        "--dist",
        action="store_true",
        help="run the §5 protocol on the fault-tolerant distributed runtime "
        "(special-form instances only) and print the degradation certificate",
    )
    solve.add_argument(
        "--retransmit-budget",
        type=int,
        default=2,
        dest="retransmit_budget",
        help="per-round retransmissions before a dropped message counts as lost",
    )
    solve.add_argument(
        "--drop-fraction",
        type=float,
        default=0.0,
        dest="drop_fraction",
        help="inject link loss: fraction of slots dropped in --drop-round",
    )
    solve.add_argument(
        "--drop-round",
        type=int,
        default=3,
        dest="drop_round",
        help="round the injected link loss hits (1-based)",
    )
    solve.add_argument(
        "--persistent-loss",
        action="store_true",
        dest="persistent_loss",
        help="injected loss hits every retransmission attempt (failed links, "
        "not a transient glitch)",
    )
    solve.add_argument(
        "--crash-agent",
        type=int,
        action="append",
        default=[],
        dest="crash_agents",
        metavar="POS",
        help="crash the agent at this canonical position (repeatable)",
    )
    solve.add_argument(
        "--crash-round",
        type=int,
        default=1,
        dest="crash_round",
        help="round the injected crashes hit (1-based)",
    )
    solve.add_argument(
        "--faults-seed",
        type=int,
        default=0,
        dest="faults_seed",
        help="seed of the injected fault plan",
    )
    _add_obs_flags(solve)

    compare = sub.add_parser("compare", help="compare R values and baselines on an instance")
    compare.add_argument("input", help="instance JSON path")
    compare.add_argument("--r-values", type=_shifting_parameter, nargs="+", default=[2, 3, 4])

    sweep = sub.add_parser(
        "sweep",
        help="run a (family x size x R) sweep through the parallel batch engine",
    )
    sweep.add_argument("family", choices=list(FAMILIES), help="instance family")
    sweep.add_argument(
        "--sizes", type=_int_at_least(1, "size"), nargs="+", default=[8, 16, 24],
        help="instance size grid",
    )
    sweep.add_argument(
        "--r-values", type=_shifting_parameter, nargs="+", default=[2, 3, 4], help="R grid"
    )
    sweep.add_argument("--delta-i", type=int, default=3, dest="delta_I", help="max constraint degree")
    sweep.add_argument("--delta-k", type=int, default=3, dest="delta_K", help="max objective degree")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--jobs", type=_int_at_least(1, "jobs"), default=1,
        help="worker processes (1 = serial execution)",
    )
    sweep.add_argument(
        "--cache-dir",
        help="content-addressed result cache directory (reused across runs; a killed "
        "sweep re-run with the same directory executes only its unfinished jobs)",
    )
    sweep.add_argument("--no-safe", action="store_true", help="skip the safe baseline")
    sweep.add_argument(
        "--dispatch",
        choices=["per-job", "batched"],
        default="per-job",
        help="batched = one multi-instance kernel dispatch per local parameter set",
    )
    sweep.add_argument(
        "--full-table", action="store_true", help="print every record, not just the summary"
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry each failing job up to N extra times (exponential backoff); "
        "failures that survive the retries are recorded, not fatal",
    )
    sweep.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        dest="timeout_s",
        metavar="S",
        help="per-attempt deadline in seconds for each job",
    )
    _add_obs_flags(sweep)

    info = sub.add_parser("info", help="print structural statistics of an instance")
    info.add_argument("input", help="instance JSON path")
    info.add_argument(
        "--cache-dir",
        help="also print hit/miss statistics for this result-cache directory",
    )

    dyn = sub.add_parser(
        "dynamics",
        help="stream random churn over a special-form instance and re-solve incrementally",
    )
    dyn.add_argument("family", choices=list(FAMILIES), help="instance family (must be special form)")
    dyn.add_argument(
        "--size", type=_int_at_least(1, "size"), default=60, help="number of agents / segments"
    )
    dyn.add_argument(
        "--ticks", type=_int_at_least(0, "ticks"), default=20, help="churn ticks to stream"
    )
    dyn.add_argument(
        "--churn", type=_int_at_least(1, "churn"), default=1, help="edit operations per tick"
    )
    dyn.add_argument(
        "--structural-prob",
        type=float,
        default=0.3,
        dest="structural_prob",
        help="probability that an operation changes topology instead of a coefficient",
    )
    dyn.add_argument("-R", type=_shifting_parameter, default=3, help="shifting parameter (>= 2)")
    dyn.add_argument("--delta-i", type=int, default=3, dest="delta_I", help="max constraint degree")
    dyn.add_argument("--delta-k", type=int, default=3, dest="delta_K", help="max objective degree")
    dyn.add_argument("--seed", type=int, default=0)
    dyn.add_argument(
        "--verify",
        action="store_true",
        help="check every tick against a from-scratch solve and the locality oracle",
    )
    _add_obs_flags(dyn)

    serve = sub.add_parser(
        "serve",
        help="run the resilient allocation server (JSON over HTTP, drains on SIGTERM)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377, help="0 picks an ephemeral port")
    serve.add_argument("--workers", type=int, default=4, help="solver threads")
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        dest="max_pending",
        help="in-flight requests before admission control sheds with 'overloaded'",
    )
    serve.add_argument(
        "--deadline-s",
        type=float,
        default=30.0,
        dest="deadline_s",
        help="default per-request deadline (requests may set their own deadline_s)",
    )
    serve.add_argument(
        "--safe-grace-s",
        type=float,
        default=2.0,
        dest="safe_grace_s",
        help="minimum budget the final safe-baseline rung always gets",
    )
    serve.add_argument(
        "--coalesce-window-ms",
        type=float,
        default=2.0,
        dest="coalesce_window_ms",
        help="micro-batching collection window, opened only when another request "
        "is in flight (0 disables coalescing)",
    )
    serve.add_argument(
        "--registry-capacity",
        type=int,
        default=64,
        dest="registry_capacity",
        help="resident-instance LRU capacity",
    )
    serve.add_argument(
        "--cache-dir", help="persistent result-cache directory for solve responses"
    )
    serve.add_argument(
        "--preload",
        nargs="*",
        default=[],
        metavar="INSTANCE_JSON",
        help="instance files made resident at startup",
    )

    return parser


def _make_instance(
    family: str, size: int, delta_I: int, delta_K: int, seed: int
) -> MaxMinInstance:
    """Build one instance of a named family at the given size.

    A generator's ``ValueError`` (a size or degree bound the family cannot
    meet) is a usage error, reported as one line.
    """
    from .generators import (
        cycle_instance,
        objective_ring_instance,
        random_instance,
        random_special_form_instance,
        sensor_network_instance,
        torus_instance,
    )

    try:
        if family == "random":
            return random_instance(size, delta_I=delta_I, delta_K=delta_K, seed=seed)
        if family == "special-form":
            return random_special_form_instance(size, delta_K=delta_K, seed=seed)
        if family == "cycle":
            return cycle_instance(max(size, 2), seed=seed)
        if family == "torus":
            side = max(2, int(round(size ** 0.5)))
            return torus_instance(side, side, seed=seed)
        if family == "sensor":
            return sensor_network_instance(size, max(2, size // 4), seed=seed).instance
        if family == "ring":
            return objective_ring_instance(max(size, 2), max(delta_K, 2))
    except ValueError as exc:
        raise _CliError(f"cannot generate {family} instance of size {size}: {exc}") from None
    raise ValueError(f"unknown family {family!r}")


def _generate(args: argparse.Namespace) -> int:
    instance = _make_instance(args.family, args.size, args.delta_I, args.delta_K, args.seed)
    with _writing(args.output):
        path = save_instance(instance, args.output)
    print(f"wrote {instance!r} to {path}")
    return 0


def _sweep(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .analysis.sweeps import run_ratio_sweep_batch, worst_case_by
    from .engine.resilience import RetryPolicy

    if args.dispatch == "batched" and args.jobs > 1:
        print(
            "error: --dispatch batched runs in-process; drop --jobs (or use --dispatch per-job)",
            file=sys.stderr,
        )
        return 2
    if args.timeout_s is not None:
        _check_seconds(args.timeout_s, "--timeout-s")
    resilient = args.retries is not None or args.timeout_s is not None
    if args.dispatch == "batched" and resilient:
        print(
            "error: --dispatch batched has no per-job attempt boundary; "
            "--retries/--timeout-s need per-job dispatch",
            file=sys.stderr,
        )
        return 2
    retry = None
    if args.retries is not None:
        if args.retries < 0:
            print("error: --retries must be >= 0", file=sys.stderr)
            return 2
        retry = RetryPolicy(max_retries=args.retries)
    instances = [
        _make_instance(args.family, size, args.delta_I, args.delta_K, args.seed)
        for size in args.sizes
    ]
    sizes_by_id = {id(inst): size for inst, size in zip(instances, args.sizes)}
    rows, batch_result = run_ratio_sweep_batch(
        instances,
        R_values=tuple(args.r_values),
        include_safe=not args.no_safe,
        extra_fields={
            "family": lambda inst: args.family,
            "size": lambda inst: sizes_by_id[id(inst)],
        },
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        dispatch=args.dispatch,
        retry=retry,
        timeout_s=args.timeout_s,
        # A sweep run with resilience knobs should report failures and keep
        # the surviving records; without them, behaviour stays pre-existing.
        on_error="record" if resilient else "raise",
    )
    if args.full_table:
        columns = [
            "family",
            "size",
            "instance",
            "algorithm",
            "optimum",
            "utility",
            "measured_ratio",
            "guaranteed_ratio",
            "within_guarantee",
        ]
        print(format_table(rows, columns, title=f"sweep: {args.family}"))
        print()
    summary = worst_case_by(rows, keys=("algorithm",))
    print(format_table(summary, title=f"worst-case summary: {args.family}"))
    print(
        f"jobs: {batch_result.executed_jobs} executed, {batch_result.cached_jobs} cached "
        f"({batch_result.elapsed_s:.2f}s, jobs={args.jobs}, dispatch={args.dispatch}"
        + (f", cache={args.cache_dir}" if args.cache_dir else "")
        + ")"
    )
    recovery = {
        name: batch_result.metrics[name]
        for name in ("retries", "timeouts", "redispatches")
        if batch_result.metrics.get(name)
    }
    if recovery:
        print("recovery: " + ", ".join(f"{k}={v}" for k, v in recovery.items()))
    failed = batch_result.failed_jobs
    if failed:
        print(f"failed jobs ({len(failed)}):", file=sys.stderr)
        for result in failed:
            error = result.error or {}
            print(
                f"  {result.spec.describe()}: {error.get('type', '?')}: "
                f"{error.get('message', '')} (attempts={result.attempts})",
                file=sys.stderr,
            )
        return 1
    return 0


def _solve_dist(args: argparse.Namespace, instance: MaxMinInstance) -> int:
    from .analysis.reporting import format_table
    from .distributed import ResilientLocalSolver
    from .faults import AgentFault, FaultPlan, MessageFault

    if not instance.is_special_form():
        raise _CliError(
            "--dist runs the actual message-passing protocol, which needs a "
            "special-form instance; transform first (or use plain solve, "
            "which applies the §4 transformations internally)"
        )
    message_faults = ()
    if args.drop_fraction > 0.0:
        message_faults = (
            MessageFault(
                round_number=args.drop_round,
                fraction=args.drop_fraction,
                attempts=None if args.persistent_loss else (0,),
            ),
        )
    agent_faults = ()
    if args.crash_agents:
        bad = [p for p in args.crash_agents if not 0 <= p < instance.num_agents]
        if bad:
            raise _CliError(
                f"--crash-agent positions {bad} out of range "
                f"[0, {instance.num_agents})"
            )
        agent_faults = (
            AgentFault(
                kind="crash",
                round_number=args.crash_round,
                agents=tuple(args.crash_agents),
            ),
        )
    plan = None
    if message_faults or agent_faults:
        plan = FaultPlan(
            seed=args.faults_seed,
            message_faults=message_faults,
            agent_faults=agent_faults,
        )
    solver = ResilientLocalSolver(
        R=args.R, retransmit_budget=args.retransmit_budget, faults=plan
    )
    solution, result = solver.solve(instance)
    cert = solution.degradation
    counts = cert.counts()
    rows = [
        {
            "algorithm": solution.label,
            "utility": solution.utility(),
            "feasible": solution.is_feasible(),
            "rounds": result.rounds,
            "messages": result.total_messages,
            "exact": counts["exact"],
            "safe": counts["safe"],
            "failed": counts["failed"],
        }
    ]
    print(format_table(rows, title=f"{instance.name} (n={instance.num_agents}, distributed)"))
    print(cert.summary())
    for event in cert.events:
        suffix = f" [{event.detail}]" if event.detail else ""
        print(f"  round {event.round_number}: {event.kind} {event.subject}{suffix}")
    if args.output:
        with _writing(args.output):
            save_solution(solution, args.output)
        print(f"solution written to {args.output}")
    return 0


def _solve(args: argparse.Namespace) -> int:
    instance = _load_instance_friendly(args.input)
    if args.dist:
        return _solve_dist(args, instance)
    from .algo.general_solver import LocalMaxMinSolver
    from .analysis.reporting import format_table

    solver = LocalMaxMinSolver(R=args.R)
    result = solver.solve(instance)
    rows = [
        {
            "algorithm": solver.name,
            "utility": result.utility(),
            "feasible": result.solution.is_feasible(),
            "guaranteed_ratio": result.certificate.guaranteed_ratio,
        }
    ]
    if args.with_safe:
        from .algo.safe_algorithm import SafeAlgorithm

        safe = SafeAlgorithm()
        solution, certificate = safe.solve_with_certificate(instance)
        rows.append(
            {
                "algorithm": safe.name,
                "utility": solution.utility(),
                "feasible": solution.is_feasible(),
                "guaranteed_ratio": certificate.guaranteed_ratio,
            }
        )
    if args.with_optimum:
        from .core.lp import solve_maxmin_lp

        lp = solve_maxmin_lp(instance)
        rows.append(
            {
                "algorithm": "lp-optimum",
                "utility": lp.optimum,
                "feasible": True,
                "guaranteed_ratio": 1.0,
            }
        )
        for row in rows:
            utility = float(row["utility"])
            row["measured_ratio"] = lp.optimum / utility if utility > 0 else float("inf")
    print(format_table(rows, title=f"{instance.name} (n={instance.num_agents})"))
    if args.output:
        with _writing(args.output):
            save_solution(result.solution, args.output)
        print(f"solution written to {args.output}")
    return 0


def _compare(args: argparse.Namespace) -> int:
    from .analysis.ratios import compare_algorithms
    from .analysis.reporting import format_table

    instance = _load_instance_friendly(args.input)
    rows = compare_algorithms(instance, R_values=tuple(args.r_values), include_optimum_row=True)
    columns = [
        "algorithm",
        "utility",
        "optimum",
        "measured_ratio",
        "guaranteed_ratio",
        "within_guarantee",
        "feasible",
    ]
    print(format_table(rows, columns, title=f"{instance.name}"))
    return 0


def _info(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .core.preprocess import preprocess

    instance = _load_instance_friendly(args.input)
    stats = instance.degree_statistics().as_dict()
    rows = [
        {"property": "agents", "value": instance.num_agents},
        {"property": "constraints", "value": instance.num_constraints},
        {"property": "objectives", "value": instance.num_objectives},
        {"property": "edges", "value": instance.num_edges},
        {"property": "connected", "value": instance.is_connected()},
        {"property": "special form", "value": instance.is_special_form()},
        {"property": "bipartite max-min LP", "value": instance.is_bipartite_maxmin()},
        {"property": "0/1 coefficients", "value": instance.has_zero_one_coefficients()},
    ]
    rows.extend({"property": key, "value": value} for key, value in stats.items())
    pre = preprocess(instance)
    rows.append({"property": "preprocess: changed", "value": pre.changed})
    if pre.changed:
        rows.extend(
            [
                {"property": "preprocess: forced-zero agents", "value": len(pre.forced_zero_agents)},
                {"property": "preprocess: unconstrained agents", "value": len(pre.unconstrained_agents)},
                {"property": "preprocess: removed constraints", "value": len(pre.removed_constraints)},
                {"property": "preprocess: removed objectives", "value": len(pre.removed_objectives)},
            ]
        )
    if pre.optimum_is_zero:
        rows.append({"property": "preprocess: optimum", "value": "zero"})
    elif pre.optimum_is_unbounded:
        rows.append({"property": "preprocess: optimum", "value": "unbounded"})
    print(format_table(rows, ["property", "value"], title=instance.name))
    if args.cache_dir:
        from .engine.cache import ResultCache

        cache = ResultCache(args.cache_dir)
        stats = cache.stats()
        print()
        print(
            format_table(
                [{"property": key, "value": value} for key, value in stats.items()],
                ["property", "value"],
                title=f"result cache: {args.cache_dir}",
            )
        )
    return 0


def _dynamics(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.reporting import format_table
    from .distributed.dynamics import DynamicNetwork

    instance = _make_instance(args.family, args.size, args.delta_I, args.delta_K, args.seed)
    if not instance.is_special_form():
        print(
            f"error: family {args.family!r} does not produce special-form instances; "
            "dynamics streams the §5 incremental solver and needs special form",
            file=sys.stderr,
        )
        return 2

    net = DynamicNetwork(instance, args.R, verify=args.verify)
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.ticks):
        tick = net.random_tick(rng, edits=args.churn, structural_prob=args.structural_prob)
        row = {
            "tick": tick.tick,
            "agents": tick.num_agents,
            "dirty": len(tick.dirty_agents),
            "recomputed": len(tick.recomputed_agents),
            "reused": tick.reused_agents,
            "structural": tick.structural,
            "utility": f"{net.solution.utility():.6f}",
        }
        if args.verify:
            row["local"] = tick.is_local
        rows.append(row)
    print(format_table(rows, title=f"dynamics: {instance.name} (R={args.R}, horizon={net.horizon})"))
    total_dirty = sum(row["dirty"] for row in rows)
    total_recomputed = sum(row["recomputed"] for row in rows)
    total_reused = sum(row["reused"] for row in rows)
    print(
        f"ticks: {len(rows)}, dirty agents: {total_dirty}, "
        f"recomputed: {total_recomputed}, reused: {total_reused}"
        + (", every tick verified bitwise + local" if args.verify and rows else "")
    )
    return 0


def _serve_config_from_args(args: argparse.Namespace):
    """Build a :class:`repro.serve.ServeConfig` from parsed CLI flags."""
    from .serve import ServeConfig

    if args.workers < 1:
        raise _CliError("--workers must be >= 1")
    if args.max_pending < 1:
        raise _CliError("--max-pending must be >= 1")
    if args.registry_capacity < 1:
        raise _CliError("--registry-capacity must be >= 1")
    _check_seconds(args.deadline_s, "--deadline-s")
    if args.coalesce_window_ms < 0:
        raise _CliError("--coalesce-window-ms must be >= 0")
    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        default_deadline_s=args.deadline_s,
        safe_grace_s=args.safe_grace_s,
        coalesce_window_s=args.coalesce_window_ms / 1000.0,
        registry_capacity=args.registry_capacity,
        cache_dir=args.cache_dir,
    )


def _serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import AllocationServer

    config = _serve_config_from_args(args)
    server = AllocationServer(config)
    for path in args.preload:
        instance = _load_instance_friendly(path)
        entry = server.registry.admit_instance(instance)
        print(f"preloaded {entry.digest[:12]}… from {path}")

    async def run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.drain())
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        print(
            f"maxmin-lp serve listening on http://{config.host}:{server.port} "
            f"(workers={config.workers}, max_pending={config.max_pending}; "
            "SIGTERM drains gracefully)"
        )
        sys.stdout.flush()
        await server.wait_closed()
        print("serve: drained and stopped")

    asyncio.run(run())
    return 0


def _run_with_obs(
    handler: Callable[[argparse.Namespace], int], args: argparse.Namespace
) -> int:
    """Run a handler under tracing when ``--profile``/``--trace-out`` ask for it.

    The prior tracing state is restored afterwards, so in-process callers of
    :func:`main` (tests, notebooks) never observe a leaked global flag.
    """
    profile = bool(getattr(args, "profile", False))
    trace_out = getattr(args, "trace_out", None)
    if not profile and not trace_out:
        return handler(args)
    prior = obs.enabled()
    obs.configure(enabled=True)
    try:
        code = handler(args)
        if profile:
            print()
            print(obs.format_span_tree())
            print()
            print(obs.format_counter_table())
        if trace_out:
            payload = obs.trace_payload(meta={"command": args.command})
            with _writing(trace_out), open(trace_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            print(f"trace written to {trace_out}")
        return code
    finally:
        obs.configure(enabled=prior)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``maxmin-lp`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _generate,
        "solve": _solve,
        "compare": _compare,
        "sweep": _sweep,
        "info": _info,
        "dynamics": _dynamics,
        "serve": _serve,
    }
    try:
        return _run_with_obs(handlers[args.command], args)
    except (_CliError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
