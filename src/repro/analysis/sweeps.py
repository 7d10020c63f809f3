"""Parameter-sweep harness.

The experiments of ``benchmarks/bench_e*.py`` are parameter sweeps at
heart: run a set of algorithms over a family of instances and tabulate
utilities, measured ratios and guarantees.  :func:`run_ratio_sweep` does
exactly that, and :func:`worst_case_by` aggregates the worst measured ratio
per group — the number the paper's *worst-case* guarantees speak about.

Execution is delegated to :mod:`repro.engine`: the sweep is compiled into a
batch of (instance × algorithm × parameters) jobs and handed to
:func:`repro.engine.batch.run_batch`, which can run them serially (the
default, identical to the historical behaviour), fan them out over a process
pool (``jobs=N``) and/or skip work already present in an on-disk result
cache (``cache_dir=...``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.instance import MaxMinInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard; engine imports ratios
    from ..engine.batch import BatchResult
    from ..engine.executors import Executor
    from ..engine.resilience import RetryPolicy
    from ..faults import FaultPlan

__all__ = ["run_ratio_sweep", "run_ratio_sweep_batch", "worst_case_by", "group_rows"]


def run_ratio_sweep(
    instances: Iterable[MaxMinInstance],
    *,
    R_values: Sequence[int] = (2, 3, 4),
    include_safe: bool = True,
    tu_method: str = "recursion",
    extra_fields: Optional[Mapping[str, Callable[[MaxMinInstance], object]]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    executor: Optional["Executor"] = None,
    dispatch: str = "per-job",
    retry: Optional["RetryPolicy"] = None,
    timeout_s: Optional[float] = None,
    faults: Optional["FaultPlan"] = None,
    resume_from: Optional[str] = None,
    on_error: str = "raise",
) -> List[Dict[str, object]]:
    """Evaluate the algorithms on every instance and return flat records.

    Parameters
    ----------
    instances:
        The instance family.
    R_values:
        Shifting parameters to evaluate the local algorithm with.
    include_safe:
        Also run the safe baseline.
    tu_method:
        ``"recursion"`` or ``"lp"`` for the per-agent bound computation.
    extra_fields:
        Optional ``column -> f(instance)`` callables whose values are added
        to every record of that instance (e.g. a family label or a size
        parameter).  Applied on the caller's side, so the callables never
        cross a process boundary and need not be picklable.
    jobs:
        Fan the sweep out over ``N`` worker processes (``None``/``1`` keeps
        the historical serial behaviour).  Records are identical to a serial
        run, in identical order, regardless of this setting.
    cache_dir:
        Directory of a content-addressed result cache; previously computed
        (instance, algorithm, parameters) jobs are read back instead of
        recomputed.
    executor:
        Explicit :class:`repro.engine.executors.Executor`; overrides ``jobs``.
    dispatch:
        ``"per-job"`` (default) or ``"batched"`` — the latter solves all of
        the sweep's ``local`` jobs per parameter set in one multi-instance
        kernel dispatch (see :func:`repro.engine.registry.execute_jobs_batched`).
        The stacked ``t_u`` search compacts its active set as trees
        converge, so batching pays off at medium instance sizes too, not only
        on many-small-instance sweeps (see
        :func:`repro.algo.kernels.batched_upper_bounds`).
    retry / timeout_s / faults / resume_from / on_error:
        Resilience and chaos knobs, forwarded verbatim to
        :func:`repro.engine.batch.run_batch` — per-job retry policy, per-
        attempt deadline, an injected fault plan, a checkpoint journal to
        resume from, and whether a job that exhausts its retries aborts the
        sweep (``"raise"``, default) or becomes a structured failure that
        the surviving records simply omit (``"record"``).
    """
    rows, _ = run_ratio_sweep_batch(
        instances,
        R_values=R_values,
        include_safe=include_safe,
        tu_method=tu_method,
        extra_fields=extra_fields,
        jobs=jobs,
        cache_dir=cache_dir,
        executor=executor,
        dispatch=dispatch,
        retry=retry,
        timeout_s=timeout_s,
        faults=faults,
        resume_from=resume_from,
        on_error=on_error,
    )
    return rows


def run_ratio_sweep_batch(
    instances: Iterable[MaxMinInstance],
    *,
    R_values: Sequence[int] = (2, 3, 4),
    include_safe: bool = True,
    tu_method: str = "recursion",
    extra_fields: Optional[Mapping[str, Callable[[MaxMinInstance], object]]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    executor: Optional["Executor"] = None,
    dispatch: str = "per-job",
    retry: Optional["RetryPolicy"] = None,
    timeout_s: Optional[float] = None,
    faults: Optional["FaultPlan"] = None,
    resume_from: Optional[str] = None,
    on_error: str = "raise",
) -> Tuple[List[Dict[str, object]], "BatchResult"]:
    """Like :func:`run_ratio_sweep`, but also return the engine's
    :class:`~repro.engine.batch.BatchResult` (executed/cached job counts,
    timings, failed jobs) for callers that report execution statistics —
    notably the ``maxmin-lp sweep`` CLI subcommand.
    """
    # Imported lazily: repro.engine.registry imports repro.analysis.ratios,
    # so a module-level import here would be circular.
    from ..engine.batch import ratio_sweep_batch, run_batch

    instance_list = list(instances)
    batch = ratio_sweep_batch(
        instance_list,
        R_values=R_values,
        include_safe=include_safe,
        tu_method=tu_method,
    )
    result = run_batch(
        batch,
        executor=executor,
        jobs=jobs,
        cache_dir=cache_dir,
        dispatch=dispatch,
        retry=retry,
        timeout_s=timeout_s,
        faults=faults,
        resume_from=resume_from,
        on_error=on_error,
    )

    rows: List[Dict[str, object]] = []
    for job_result, owner in zip(result.results, batch.owners):
        for record in job_result.records:
            row = dict(record)
            if extra_fields:
                instance = instance_list[owner]
                for column, fn in extra_fields.items():
                    row[column] = fn(instance)
            rows.append(row)
    return rows, result


def group_rows(
    rows: Sequence[Dict[str, object]], keys: Sequence[str]
) -> Dict[tuple, List[Dict[str, object]]]:
    """Group records by the given key columns."""
    groups: Dict[tuple, List[Dict[str, object]]] = {}
    for row in rows:
        key = tuple(row.get(k) for k in keys)
        groups.setdefault(key, []).append(row)
    return groups


def worst_case_by(
    rows: Sequence[Dict[str, object]],
    keys: Sequence[str] = ("algorithm",),
    value_column: str = "measured_ratio",
) -> List[Dict[str, object]]:
    """Worst (largest) value of a column per group, as new summary records."""
    summary: List[Dict[str, object]] = []
    for key, members in group_rows(rows, keys).items():
        worst = max(float(m[value_column]) for m in members)
        mean = sum(float(m[value_column]) for m in members) / len(members)
        record: Dict[str, object] = dict(zip(keys, key))
        record[f"worst_{value_column}"] = worst
        record[f"mean_{value_column}"] = mean
        record["count"] = len(members)
        guarantees = [float(m["guaranteed_ratio"]) for m in members if "guaranteed_ratio" in m]
        if guarantees:
            record["max_guaranteed_ratio"] = max(guarantees)
            record["within_guarantee"] = worst <= max(guarantees) * (1.0 + 1e-7)
        summary.append(record)
    summary.sort(key=lambda rec: tuple(str(rec.get(k)) for k in keys))
    return summary
