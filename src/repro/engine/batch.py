"""The engine front door: :func:`run_batch` and batch builders.

``run_batch`` takes a :class:`~repro.engine.job.BatchSpec`, consults the
optional result cache, hands only the cache misses to the executor and
returns every job's records in submission order.  It is the single execution
path behind :func:`repro.analysis.sweeps.run_ratio_sweep`, the
``maxmin-lp sweep`` CLI subcommand and the engine-backed benchmarks, and its
docstring is the one place the engine keywords are documented.

The result cache is also the batch's only checkpoint: every job is stored
the moment its result lands, so a killed batch re-run with the same cache
resumes with only its unfinished tail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import obs
from ..core.instance import MaxMinInstance
from ..exceptions import EngineError
from ..faults import FaultPlan
from . import registry
from .cache import ResultCache
from .executors import Executor, default_executor
from .job import BatchSpec, JobResult, JobSpec, Record, make_jobs_for_instance
from .resilience import RetryPolicy, check_timeout

__all__ = ["BatchResult", "run_batch", "ratio_sweep_batch"]


@dataclass
class BatchResult:
    """Everything :func:`run_batch` knows after a batch completes.

    ``metrics`` is the per-batch rollup: job/executed/cached counts, the
    batch wall time, recovery totals (``retries`` / ``timeouts`` /
    ``redispatches`` / ``failed`` — present when nonzero),
    and — when tracing was enabled for the run — the summed counter deltas
    of every executed job under ``"counters"`` (the same payload the
    individual :attr:`JobResult.metrics` carry, merged).
    """

    results: List[JobResult] = field(default_factory=list)
    executed_jobs: int = 0
    cached_jobs: int = 0
    elapsed_s: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def records(self) -> List[Record]:
        """All job records, flattened in job-submission order."""
        flat: List[Record] = []
        for result in self.results:
            flat.extend(result.records)
        return flat

    @property
    def failed_jobs(self) -> List[JobResult]:
        """Jobs that ended in a structured failure (``on_error="record"``)."""
        return [result for result in self.results if result.failed]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchResult(jobs={len(self.results)}, executed={self.executed_jobs}, "
            f"cached={self.cached_jobs}, elapsed={self.elapsed_s:.3f}s)"
        )


def run_batch(
    batch: BatchSpec,
    *,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, "object"]] = None,
    dispatch: str = "per-job",
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    on_error: str = "raise",
) -> BatchResult:
    """Execute a batch: cache lookup → fan-out of misses → reassembly.

    Parameters
    ----------
    batch:
        The jobs to run.
    executor:
        Explicit executor; overrides ``jobs``.
    jobs:
        Convenience knob: ``None``/``1`` → :class:`SerialExecutor`, ``N > 1``
        → :class:`ParallelExecutor` with ``N`` workers.
    cache / cache_dir:
        An open :class:`ResultCache`, or a directory to open one in.  Every
        finished job is stored as its result lands, so the cache is also the
        batch's checkpoint: a re-run — of a warm batch, or of one killed
        mid-way — executes only the jobs it does not hold
        (``executed_jobs == 0`` when it holds them all).
    dispatch:
        ``"per-job"`` (default) hands every cache miss to the executor
        individually; ``"batched"`` routes the misses through
        :func:`repro.engine.registry.execute_jobs_batched`, which groups
        ``local`` jobs by parameter set and solves each group in **one**
        multi-instance §5 kernel dispatch (in-process — batching replaces
        process fan-out, so combining it with an explicit ``executor`` or
        ``jobs > 1`` is rejected).  Records are identical either way.
    retry / timeout_s:
        Per-job retry policy and per-attempt deadline in seconds, filled in
        on every job that does not carry its own ``JobSpec.retry`` /
        ``JobSpec.timeout_s``.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` to inject scripted failures
        (chaos testing).  Plumbed to the executor's workers and — when this
        call opens the cache itself via ``cache_dir`` — to the cache's write
        path.  A caller-constructed ``cache`` keeps its own wiring.
    on_error:
        ``"raise"`` (default): the first job that exhausted its attempts
        re-raises its own exception as soon as its result lands, and the
        batch dies there: a serial executor runs no further job, and a
        parallel one cancels the chunks that have not started (jobs stored
        before the failure stay in the cache).  ``"record"``: every failure
        becomes a structured :class:`JobResult` (``error`` set, no records) in
        :attr:`BatchResult.failed_jobs` and the remaining jobs' records are
        returned as usual.
    """
    if dispatch not in ("per-job", "batched"):
        raise EngineError(
            f"unknown dispatch mode {dispatch!r} (expected 'per-job' or 'batched')"
        )
    if on_error not in ("raise", "record"):
        raise EngineError(
            f"unknown on_error mode {on_error!r} (expected 'raise' or 'record')"
        )
    if timeout_s is not None:
        check_timeout(timeout_s)
    if dispatch == "batched" and (executor is not None or (jobs is not None and jobs > 1)):
        # Batched dispatch runs in-process; silently dropping a requested
        # process fan-out would misreport the parallelism actually used.
        raise EngineError(
            "dispatch='batched' executes in-process and cannot be combined with "
            "an explicit executor or jobs > 1; drop one of the two knobs"
        )
    if dispatch == "batched" and (retry is not None or timeout_s is not None or faults is not None):
        # The grouped §5 kernel has no per-job attempt boundary to retry,
        # time out, or inject at.
        raise EngineError(
            "dispatch='batched' does not support retry/timeout/faults; "
            "use per-job dispatch for resilient execution"
        )
    if executor is None:
        executor = default_executor(jobs)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir, faults=faults)

    start = time.perf_counter()
    keys = [spec.cache_key(registry.solver_version(spec.algorithm)) for spec in batch.jobs]

    pending: List[Tuple[int, JobSpec]] = []
    slots: List[Optional[JobResult]] = [None] * len(batch.jobs)
    for index, (spec, key) in enumerate(zip(batch.jobs, keys)):
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            slots[index] = JobResult(spec=spec, records=cached, from_cache=True)
        else:
            if retry is not None or timeout_s is not None:
                spec = replace(
                    spec,
                    retry=spec.retry if spec.retry is not None else retry,
                    timeout_s=spec.timeout_s if spec.timeout_s is not None else timeout_s,
                )
            pending.append((index, spec))

    batch_counters: Dict[str, object] = {}
    per_metrics: List[Optional[Dict[str, object]]] = []

    def checkpoint(position: int, records: List[Record], metrics) -> None:
        """Store one finished job the moment its result lands in the parent
        — a later crash of the batch loses nothing before this point.
        Failures are never stored (the cache holds only clean, canonical
        records); under ``on_error="raise"`` the first one raises here, so
        the executor stops instead of running the rest of the batch."""
        if metrics is not None and metrics.get("error"):
            if on_error == "raise":
                _raise_failure(pending[position][1], metrics)
        elif cache is not None:
            cache.put(keys[pending[position][0]], records)

    if pending:
        job_start = time.perf_counter()
        pending_specs = [spec for _, spec in pending]
        if dispatch == "batched":
            # One multi-instance kernel dispatch: per-job attribution is not
            # meaningful, so the counter delta is captured for the batch as a
            # whole and only the amortised mean is reported per job.
            mark = obs.counters_mark() if obs.enabled() else None
            with obs.span("engine.run_batch", dispatch=dispatch, jobs=len(pending)):
                outputs = registry.execute_jobs_batched(pending_specs)
            per_metrics = [None] * len(outputs)
            if mark is not None:
                batch_counters = obs.counters_since(mark)
            for position, records in enumerate(outputs):
                checkpoint(position, records, None)
        else:
            with obs.span("engine.run_batch", dispatch=dispatch, jobs=len(pending)):
                outputs, per_metrics = executor.map_jobs(
                    pending_specs, faults=faults, on_result=checkpoint
                )
        if len(outputs) != len(pending):
            raise EngineError(
                f"executor {executor!r} returned {len(outputs)} outputs for "
                f"{len(pending)} jobs; result/owner alignment would be corrupted"
            )
        per_job = (time.perf_counter() - job_start) / len(pending)
        for (index, spec), records, metrics in zip(pending, outputs, per_metrics):
            error = metrics.get("error") if metrics is not None else None
            if error is not None:
                if on_error == "raise":  # an executor that never called on_result
                    _raise_failure(spec, metrics)
                slots[index] = JobResult(
                    spec=spec,
                    records=[],
                    elapsed_s=per_job,
                    metrics=metrics,
                    error=error,  # type: ignore[arg-type]
                    attempts=int(metrics.get("attempts", 1)),  # type: ignore[union-attr, arg-type]
                )
                continue
            slots[index] = JobResult(
                spec=spec,
                records=records,
                elapsed_s=per_job,
                metrics=metrics,
                attempts=int(metrics.get("attempts", 1)) if metrics is not None else 1,
            )
        for metrics in per_metrics:
            if metrics is not None:
                for name, value in metrics.get("counters", {}).items():  # type: ignore[union-attr]
                    batch_counters[name] = batch_counters.get(name, 0) + value

    results = [slot for slot in slots if slot is not None]
    rollup: Dict[str, object] = {
        "jobs": len(batch.jobs),
        "executed": len(pending),
        "cached": len(batch.jobs) - len(pending),
        "wall_s": time.perf_counter() - start,
    }
    recovery: Dict[str, int] = {}
    for metrics in per_metrics:
        if metrics is None:
            continue
        for name in ("retries", "timeouts", "redispatches"):
            value = int(metrics.get(name, 0) or 0)  # type: ignore[union-attr, arg-type]
            if value:
                recovery[name] = recovery.get(name, 0) + value
        if metrics.get("error") is not None:
            recovery["failed"] = recovery.get("failed", 0) + 1
    rollup.update(recovery)
    if batch_counters:
        rollup["counters"] = batch_counters
    return BatchResult(
        results=results,
        executed_jobs=len(pending),
        cached_jobs=len(batch.jobs) - len(pending),
        elapsed_s=rollup["wall_s"],  # type: ignore[arg-type]
        metrics=rollup,
    )


def _raise_failure(spec: JobSpec, metrics: Dict[str, object]) -> None:
    """Re-raise a failed job's own exception (an :class:`EngineError` naming
    the job when its metrics carry none)."""
    exception = metrics.get("exception")
    if isinstance(exception, BaseException):
        raise exception
    error = metrics["error"]
    raise EngineError(f"job {spec.describe()} failed: {error.get('message', error)}")  # type: ignore[union-attr]


def ratio_sweep_batch(
    instances: Iterable[MaxMinInstance],
    *,
    R_values=(2, 3, 4),
    include_safe: bool = True,
    include_optimum: bool = False,
) -> BatchSpec:
    """Build the batch equivalent of :func:`repro.analysis.sweeps.run_ratio_sweep`.

    Job order reproduces the legacy serial sweep exactly: instances in
    iteration order, and per instance the ``compare_algorithms`` record order
    (local for each R, then safe, then the optional LP row).  ``owners`` maps
    each job back to its instance index.
    """
    batch = BatchSpec()
    for index, instance in enumerate(instances):
        batch.extend(
            make_jobs_for_instance(
                instance,
                R_values=R_values,
                include_safe=include_safe,
                include_optimum=include_optimum,
            ),
            owner=index,
        )
    return batch
