"""E5 — Locality and scalability of the distributed protocol.

Paper claim (§1.2, §2): the algorithm completes in a constant number of
rounds (Θ(R)), independent of the number of nodes; per-node work and
messages are constant, so total work scales linearly.  This benchmark runs
the actual message-passing protocol on growing cycles and sensor networks
and reports rounds, messages and messages per node.

The protocol runs on the vectorized message plane; the measurements do not
depend on the runtime — the per-node simulator of
:mod:`repro.oracle.distributed` produces identical per-round message
statistics, which one row here re-checks explicitly.
"""

from __future__ import annotations

import pytest

from repro.distributed import ResilientLocalSolver, ResilientSafeSolver
from repro.engine import ParallelExecutor, SerialExecutor, ratio_sweep_batch, run_batch
from repro.generators import cycle_instance
from repro.oracle import distributed as oracle_dist
from repro.transforms import to_special_form
from repro.generators import sensor_network_instance

from _harness import emit_table


def _cycle_rows(solve):
    rows = []
    for segments in (8, 16, 32, 64):
        instance = cycle_instance(segments, coefficient_range=(0.5, 2.0), seed=segments)
        solution, run = solve(instance)
        rows.append(
            {
                "family": f"cycle-{segments}",
                "nodes": instance.num_nodes,
                "agents": instance.num_agents,
                "rounds": run.rounds,
                "messages": run.total_messages,
                "messages_per_node": run.total_messages / instance.num_nodes,
                "utility": solution.utility(),
                "feasible": solution.is_feasible(),
            }
        )
    return rows


def _sensor_rows(R: int = 2):
    solver = ResilientLocalSolver(R=R)
    rows = []
    for sensors in (10, 20, 40):
        network = sensor_network_instance(sensors, max(3, sensors // 4), radius=0.35, seed=sensors)
        transform = to_special_form(network.instance)
        special = transform.transformed
        solution, run = solver.solve(special)
        mapped = transform.map_back(solution)
        rows.append(
            {
                "family": f"sensor-{sensors}",
                "nodes": special.num_nodes,
                "agents": special.num_agents,
                "rounds": run.rounds,
                "messages": run.total_messages,
                "messages_per_node": run.total_messages / special.num_nodes,
                "utility": mapped.utility(),
                "feasible": mapped.is_feasible(),
            }
        )
    return rows


def test_e5_scaling(benchmark):
    cycle_rows = _cycle_rows(ResilientLocalSolver(R=3).solve)
    sensor_rows = _sensor_rows()
    rows = cycle_rows + sensor_rows
    emit_table(
        "E5",
        "Distributed protocol: rounds and messages vs. network size",
        rows,
        columns=[
            "family",
            "nodes",
            "agents",
            "rounds",
            "messages",
            "messages_per_node",
            "utility",
            "feasible",
        ],
        notes=(
            "Rounds are independent of n (12r+7 for the local algorithm); messages per node "
            "are constant within each family, so total messages grow linearly — the defining "
            "property of a local algorithm."
        ),
    )

    # Shape assertions: constant rounds, constant messages per node (per family).
    assert len({row["rounds"] for row in cycle_rows}) == 1
    per_node = [row["messages_per_node"] for row in cycle_rows]
    assert max(per_node) <= min(per_node) * 1.05
    assert all(row["feasible"] for row in rows)

    # Runtime independence: the per-node oracle reports the same statistics.
    oracle_rows = _cycle_rows(lambda instance: oracle_dist.local_solve(instance, 3))
    assert [(r["rounds"], r["messages"]) for r in oracle_rows] == [
        (r["rounds"], r["messages"]) for r in cycle_rows
    ]

    # Baseline context: the safe protocol is 2 rounds.
    _solution, safe_run = ResilientSafeSolver().solve(cycle_instance(16))
    assert safe_run.rounds == 2

    # Timed kernel: the distributed protocol on a 32-segment cycle.
    instance = cycle_instance(32, coefficient_range=(0.5, 2.0), seed=99)
    solver = ResilientLocalSolver(R=2)
    benchmark.pedantic(solver.solve, args=(instance,), rounds=3, iterations=1)


def test_e5_engine_scaling(benchmark):
    """Engine-backed variant: the same scaling story for batch throughput.

    The batch engine (repro.engine) turns a sweep into independent jobs; this
    benchmark checks that the process-pool executor (i) reproduces the serial
    records exactly and (ii) is the intended vehicle for multi-core scaling,
    then times the serial batch as the single-core reference point.
    """
    instances = [
        cycle_instance(segments, coefficient_range=(0.5, 2.0), seed=segments)
        for segments in (8, 16, 32, 64)
    ]
    batch = ratio_sweep_batch(instances, R_values=(2, 3), include_safe=True)
    serial = run_batch(batch, executor=SerialExecutor())
    parallel = run_batch(batch, executor=ParallelExecutor(max_workers=2))
    assert parallel.records == serial.records  # executor equivalence contract
    assert serial.executed_jobs == len(batch) and parallel.cached_jobs == 0

    rows = [
        {
            "executor": label,
            "jobs": len(batch),
            "executed": result.executed_jobs,
            "elapsed_s": result.elapsed_s,
            "jobs_per_s": len(batch) / result.elapsed_s if result.elapsed_s > 0 else float("inf"),
        }
        for label, result in (("serial", serial), ("parallel-2", parallel))
    ]
    emit_table(
        "E5b",
        "Batch engine: sweep throughput, serial vs. process pool",
        rows,
        columns=["executor", "jobs", "executed", "elapsed_s", "jobs_per_s"],
        notes=(
            "Both executors produce byte-identical records in identical order; the pool "
            "trades per-process startup cost for multi-core throughput, which pays off as "
            "instances grow."
        ),
    )

    benchmark.pedantic(
        run_batch, args=(batch,), kwargs={"executor": SerialExecutor()}, rounds=3, iterations=1
    )
