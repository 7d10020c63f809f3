"""Algorithm registry: how a :class:`~repro.engine.job.JobSpec` is executed.

:func:`execute_job_resilient` is the single worker-side entry point — the
serial and the process-pool executors both run every job through its one
attempt loop, which calls :func:`execute_job` once per attempt.  That call
deserializes the instance, dispatches on ``spec.algorithm`` and produces
records through the same evaluators
:func:`repro.analysis.ratios.compare_algorithms` uses, so batch output is
interchangeable with the legacy serial sweep by construction, not by
parallel maintenance of two code paths.

Jobs are self-contained (they share no state with sibling jobs), which is
what lets the pool schedule them independently and the cache address them
individually.  The shared per-instance work — deserialization and the exact
LP solve — is memoised per process keyed by the instance JSON, so the
sibling jobs of one instance pay for it once per worker, matching the cost
profile of the legacy loop.  The LP solve is deterministic, so memoised or
not, an instance's jobs report bit-identical ``optimum`` fields.

The memo also scopes the *instance-attached* caches: the compiled CSR view
and the §4 transform results (``to_special_form``) live on the
:class:`MaxMinInstance` object itself, one slot each.
Because the memo hands out exactly one instance object per instance-JSON
string — and the cache key starts from the JSON's content digest — sibling
jobs of one instance (an R-sweep, say) reuse one pipeline run, while jobs of
different digests can never observe each other's cached transforms.

``SOLVER_VERSIONS`` feeds the result cache: a cache entry is keyed by the
version of the algorithm that produced it, so bumping a version here (or in
a future PR that changes an algorithm's output) invalidates exactly the
stale entries and nothing else.
"""

from __future__ import annotations

import time
import traceback
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..analysis.ratios import (
    evaluate_local_algorithm,
    evaluate_lp_optimum,
    evaluate_safe_algorithm,
    local_solve_record,
)
from ..core.instance import MaxMinInstance
from ..core.lp import LPResult, solve_maxmin_lp
from ..exceptions import EngineError, JobTimeoutError
from ..faults import FaultInjector
from ..io.serialization import instance_from_json
from .job import JobSpec, ParamItems, Record
from .resilience import call_with_timeout

__all__ = [
    "SOLVER_VERSIONS",
    "solver_version",
    "execute_job",
    "execute_job_resilient",
    "execute_jobs_batched",
]

#: Version tag per registered algorithm.  Bump when an algorithm's *output*
#: changes; cached results from older versions are then recomputed.
#: ``local`` is at "4": ``t_u`` comes from a bracketed secant search instead
#: of a bisection, so bounds and outputs move by less than the 1e-10 search
#: tolerance (version "3" switched the §4 pipeline to its compiled array
#: form, whose back-mapped solutions agree only to 1e-12).  ``safe`` is at
#: "2".  Removing the
#: ``backend`` / ``transform_backend`` job parameters changed every job's
#: parameters, hence every cache key, without changing any output — so no
#: version moved.  ``lp-optimum`` is at "2": the exact LP assembles its
#: matrix from compiled COO triplets, and a disconnected instance is one LP
#: like any other.
SOLVER_VERSIONS: Dict[str, str] = {
    "local": "4",
    "safe": "2",
    "lp-optimum": "2",
}


def solver_version(algorithm: str) -> str:
    """The cache-key version tag for a registered algorithm."""
    try:
        return SOLVER_VERSIONS[algorithm]
    except KeyError:
        raise EngineError(
            f"unknown algorithm {algorithm!r}; registered: {sorted(SOLVER_VERSIONS)}"
        ) from None


@lru_cache(maxsize=32)
def _instance_and_lp(instance_json: str) -> Tuple[MaxMinInstance, LPResult]:
    """Per-process memo of the per-instance shared work (deserialize + exact LP)."""
    with obs.span("io.deserialize", bytes=len(instance_json)):
        instance = instance_from_json(instance_json)
    return instance, solve_maxmin_lp(instance)


def execute_job(spec: JobSpec) -> List[Record]:
    """Run one job and return its flat sweep records."""
    solver_version(spec.algorithm)  # reject unknown algorithms before solving
    instance, lp = _instance_and_lp(spec.instance_json)
    params = spec.param_dict()

    if spec.algorithm == "local":
        R = int(params.get("R", 3))
        return [evaluate_local_algorithm(instance, R=R, optimum=lp.optimum)]

    if spec.algorithm == "safe":
        return [evaluate_safe_algorithm(instance, optimum=lp.optimum)]

    if spec.algorithm == "lp-optimum":
        return [evaluate_lp_optimum(instance, lp=lp)]

    raise EngineError(f"algorithm {spec.algorithm!r} has a version but no executor branch")


def _structured_error(exc: BaseException, spec: JobSpec) -> Dict[str, object]:
    """A JSON-safe description of a job failure (plus the live exception)."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "algorithm": spec.algorithm,
        "digest": spec.instance_digest,
        "params": dict(spec.params),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)[-3:]
        ),
    }


def execute_job_resilient(
    spec: JobSpec,
    *,
    injector: Optional[FaultInjector] = None,
    dispatch_attempt: int = 0,
) -> Tuple[List[Record], Dict[str, object]]:
    """Run one job to ``(records, metrics)``; never raises for job errors.

    This is the one attempt loop every executor runs each job through.  A
    job gets ``1 + spec.retry.max_retries`` attempts (one without a
    policy), each under ``spec.timeout_s`` via :func:`call_with_timeout`
    (a direct call without a deadline), with the policy's backoff between
    them.  Each attempt dispatches through the module-global
    :func:`execute_job`, so monkeypatched spies intercept every try.

    ``metrics["elapsed_s"]`` is the successful attempt's wall time and
    ``metrics["attempts"]`` counts every try; ``retries`` / ``timeouts``
    appear when nonzero.  With tracing enabled each attempt runs under a
    ``job.<algorithm>`` span and ``metrics["counters"]`` carries the
    counter deltas of the successful attempt.  A job that exhausts its
    attempts comes back as ``([], metrics)`` with ``metrics["error"]``
    holding the structured failure and ``metrics["exception"]`` the live
    exception, so ``run_batch(on_error="raise")`` can re-raise the
    original: one bad job never takes down its siblings.
    """
    policy = spec.retry
    attempts_allowed = 1 + (policy.max_retries if policy is not None else 0)
    traced = obs.enabled()
    retries = 0
    timeouts = 0
    start = time.perf_counter()
    error: Optional[BaseException] = None

    for attempt in range(attempts_allowed):
        def one_attempt(attempt: int = attempt) -> Tuple[List[Record], Dict[str, object]]:
            if injector is not None:
                injector.on_job_attempt(
                    spec.algorithm,
                    spec.instance_digest,
                    spec.param_dict(),
                    attempt,
                    dispatch_attempt,
                )
            mark = obs.counters_mark() if traced else None
            attempt_start = time.perf_counter()
            if traced:
                with obs.span(f"job.{spec.algorithm}", digest=spec.instance_digest[:10]):
                    records = execute_job(spec)
            else:
                records = execute_job(spec)
            metrics: Dict[str, object] = {"elapsed_s": time.perf_counter() - attempt_start}
            if traced:
                metrics["counters"] = obs.counters_since(mark)
            return records, metrics

        try:
            records, metrics = call_with_timeout(one_attempt, spec.timeout_s)
        except JobTimeoutError as exc:
            timeouts += 1
            error = exc
            obs.count("engine.timeouts")
        except Exception as exc:  # noqa: BLE001 - structured failure below
            error = exc
        else:
            metrics["attempts"] = attempt + 1
            if retries:
                metrics["retries"] = retries
            if timeouts:
                metrics["timeouts"] = timeouts
            return records, metrics
        if attempt + 1 < attempts_allowed:
            retries += 1
            obs.count("engine.retries")
            delay = policy.delay_s(spec.instance_digest, attempt) if policy else 0.0
            if delay > 0:
                time.sleep(delay)

    obs.count("engine.job_failures")
    assert error is not None  # the loop ran at least once
    failure_metrics: Dict[str, object] = {
        "elapsed_s": time.perf_counter() - start,
        "attempts": attempts_allowed,
        "retries": retries,
        "error": _structured_error(error, spec),
        "exception": error,
    }
    if timeouts:
        failure_metrics["timeouts"] = timeouts
    return [], failure_metrics


def execute_jobs_batched(specs: Sequence[JobSpec]) -> List[List[Record]]:
    """Run a slate of jobs with multi-instance kernel dispatch.

    ``local`` jobs sharing one parameter set are grouped and solved through
    :meth:`~repro.algo.general_solver.LocalMaxMinSolver.solve_many`: the
    group's special-form instances are concatenated into one compiled batch
    and the §5 kernels run **once** for the whole group, instead of once per
    job.  Outputs are identical to :func:`execute_job` (the batched kernels
    are bitwise-equal to solo solves); other algorithms fall
    through to :func:`execute_job` individually.  Runs in-process — batching
    replaces process fan-out, it does not compose with it.
    """
    from ..algo.general_solver import LocalMaxMinSolver

    outputs: List[List[Record]] = [None] * len(specs)  # type: ignore[list-item]
    groups: Dict[ParamItems, List[int]] = {}
    for index, spec in enumerate(specs):
        solver_version(spec.algorithm)  # reject unknown algorithms up front
        if spec.algorithm == "local":
            groups.setdefault(spec.params, []).append(index)
        else:
            outputs[index] = execute_job(spec)

    # Resolve every distinct instance once, in submission order, holding
    # strong references: the parameter groups revisit the same instances in
    # a different order, which would otherwise thrash the bounded
    # ``_instance_and_lp`` memo and re-solve the exact LP per group.
    shared: Dict[str, Tuple[MaxMinInstance, LPResult]] = {}
    for params, indices in groups.items():
        for index in indices:
            text = specs[index].instance_json
            if text not in shared:
                shared[text] = _instance_and_lp(text)

    for params, indices in groups.items():
        pairs = [shared[specs[index].instance_json] for index in indices]
        R = int(dict(params).get("R", 3))
        solver = LocalMaxMinSolver(R=R)
        results = solver.solve_many([instance for instance, _ in pairs])
        for index, result, (instance, lp) in zip(indices, results, pairs):
            outputs[index] = [
                local_solve_record(instance, result, R=R, optimum=lp.optimum)
            ]
    return outputs
