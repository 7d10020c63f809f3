"""repro.engine — parallel batch execution for sweeps and solver fleets.

The experiments of this reproduction are embarrassingly parallel: hundreds of
independent (instance × algorithm × parameters) solves whose records are
tabulated afterwards.  This package turns that shape into infrastructure:

* :mod:`repro.engine.job` — the :class:`JobSpec`/:class:`BatchSpec`/
  :class:`JobResult` job model; jobs carry instances as canonical JSON so
  they pickle cheaply and hash stably.
* :mod:`repro.engine.registry` — worker-side execution of one job: the one
  attempt loop (retries, deadlines, structured failures) every executor
  runs each job through, plus the per-algorithm version tags that key the
  cache.
* :mod:`repro.engine.executors` — :class:`SerialExecutor` and the
  process-pool :class:`ParallelExecutor`, each implementing the one method
  :meth:`Executor.map_jobs`; both produce identical records in identical
  order for the same batch.
* :mod:`repro.engine.cache` — content-addressed on-disk :class:`ResultCache`
  keyed by instance digest × algorithm version × parameters.  It is the
  engine's only store of finished jobs: ``run_batch`` checkpoints each job
  there as it finishes, so a killed sweep re-run with the same cache
  directory executes only its unfinished tail.
* :mod:`repro.engine.batch` — the :func:`run_batch` front door and the
  :func:`ratio_sweep_batch` builder that
  :func:`repro.analysis.sweeps.run_ratio_sweep`, the ``maxmin-lp sweep`` CLI
  and the benchmarks delegate to.
* :mod:`repro.engine.resilience` — :class:`RetryPolicy` (retries and
  backoff) and the per-attempt deadline helpers.  Fault *injection* — the
  chaos-testing counterpart — lives in :mod:`repro.faults`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".batch": ("BatchResult", "ratio_sweep_batch", "run_batch"),
        ".cache": ("ResultCache",),
        ".executors": ("Executor", "ParallelExecutor", "SerialExecutor", "default_executor"),
        ".job": ("BatchSpec", "JobResult", "JobSpec", "make_jobs_for_instance"),
        ".registry": (
            "SOLVER_VERSIONS",
            "execute_job",
            "execute_job_resilient",
            "execute_jobs_batched",
            "solver_version",
        ),
        ".resilience": ("RetryPolicy", "call_with_timeout", "leaked_timeout_threads"),
    },
)

__all__ = [
    "JobSpec",
    "JobResult",
    "BatchSpec",
    "BatchResult",
    "make_jobs_for_instance",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "default_executor",
    "ResultCache",
    "RetryPolicy",
    "call_with_timeout",
    "leaked_timeout_threads",
    "run_batch",
    "ratio_sweep_batch",
    "execute_job",
    "execute_job_resilient",
    "execute_jobs_batched",
    "solver_version",
    "SOLVER_VERSIONS",
]
