#!/usr/bin/env python3
"""Run the algorithm as an actual message-passing protocol.

The paper's model (§1.2): synchronous rounds, port numbering, no node
identifiers.  This script takes a general workload, applies the §4
transformations, runs the distributed §5 protocol on the simulator, maps the
solution back, and compares the result (and its cost in rounds/messages)
against the centralized solver and the 2-round safe protocol.

Run with:  python examples/distributed_protocol.py
"""

from repro import SpecialFormLocalSolver, solve_maxmin_lp, to_special_form
from repro.analysis import format_table
from repro.distributed import DistributedLocalSolver, DistributedSafeSolver
from repro.generators import random_instance


def main() -> None:
    R = 3
    instance = random_instance(
        24, delta_I=3, delta_K=2, extra_constraints=4, extra_objectives=2, seed=5
    )
    print(f"workload: {instance!r}")

    # §4: locally computable transformations to the special form.
    transform = to_special_form(instance)
    special = transform.transformed
    print(f"special form after §4: {special!r} (ratio factor {transform.ratio_factor:g})\n")

    # §5 as a message-passing protocol.
    distributed = DistributedLocalSolver(R=R, measure_bytes=True)
    dist_solution, run = distributed.solve(special)
    mapped = transform.map_back(dist_solution)

    # Reference executions.
    central = SpecialFormLocalSolver(R=R).solve(special)
    safe_solution, safe_run = DistributedSafeSolver(measure_bytes=True).solve(special)
    optimum = solve_maxmin_lp(instance).optimum

    max_diff = max(abs(dist_solution[v] - central.solution[v]) for v in special.agents)
    print(f"distributed vs centralized max |difference| = {max_diff:.2e}\n")

    rows = [
        {
            "protocol": f"local algorithm (R={R})",
            "rounds": run.rounds,
            "messages": run.total_messages,
            "kilobytes": run.total_bytes / 1024,
            "utility (original instance)": mapped.utility(),
        },
        {
            "protocol": "safe baseline",
            "rounds": safe_run.rounds,
            "messages": safe_run.total_messages,
            "kilobytes": safe_run.total_bytes / 1024,
            "utility (original instance)": transform.map_back(safe_solution).utility(),
        },
    ]
    print(format_table(rows, title="protocol cost and quality"))
    print(f"\nexact optimum of the original instance: {optimum:.4f}")
    print(f"local horizon (rounds, independent of network size): {distributed.local_horizon}")


if __name__ == "__main__":
    main()
