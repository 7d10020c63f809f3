"""The engine's job model: :class:`JobSpec`, :class:`JobResult`, :class:`BatchSpec`.

A *job* is one (instance × algorithm × parameters) work unit.  Jobs carry the
instance in its canonical JSON form rather than as a live
:class:`~repro.core.instance.MaxMinInstance`: the JSON string pickles cheaply
across process boundaries and the worker rebuilds the instance on its side
(the adjacency precomputation happens where the CPU time is spent, not in the
dispatcher).  The same JSON string is the basis of the content digest that
keys the on-disk result cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.instance import MaxMinInstance
from ..io.serialization import instance_digest, instance_to_json
from .resilience import RetryPolicy, check_timeout

__all__ = ["JobSpec", "JobResult", "BatchSpec", "make_jobs_for_instance"]

#: One flat sweep record, as produced by :func:`repro.analysis.ratios.evaluate_solution`.
Record = Dict[str, object]

#: Canonical parameter encoding: a tuple of (key, value) pairs sorted by key.
ParamItems = Tuple[Tuple[str, object], ...]


def _canonical_params(params: Dict[str, object]) -> ParamItems:
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class JobSpec:
    """A single (instance × algorithm × parameters) work unit.

    Attributes
    ----------
    instance_json:
        The instance in ``repro.maxmin-lp`` JSON form (see
        :func:`repro.io.serialization.instance_to_json`).
    instance_digest:
        SHA-256 content digest of ``instance_json`` — precomputed so cache
        keys never require deserializing the instance.
    algorithm:
        Registry name of the algorithm to run (``"local"``, ``"safe"`` or
        ``"lp-optimum"``; see :mod:`repro.engine.registry`).
    params:
        Algorithm parameters as a canonical sorted tuple of pairs, e.g.
        ``(("R", 3),)``.  Values must be JSON-compatible so the cache key is
        stable across processes.
    retry / timeout_s:
        Optional per-job retry policy (see
        :class:`~repro.engine.resilience.RetryPolicy`) and per-attempt
        deadline in seconds.  Both are *execution* knobs, not content: they
        never enter the cache key, so a retried-and-recovered job lands on
        the same cache entry as an untroubled one.  ``run_batch(retry=,
        timeout_s=)`` fills them in on jobs that don't carry their own.
    """

    instance_json: str
    instance_digest: str
    algorithm: str
    params: ParamItems = ()
    retry: Optional[RetryPolicy] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None:
            check_timeout(self.timeout_s)

    def param_dict(self) -> Dict[str, object]:
        """The parameters as a plain dictionary."""
        return dict(self.params)

    def cache_key(self, solver_version: str) -> str:
        """Content-addressed cache key: instance digest × algorithm × version × params."""
        payload = "\n".join(
            [
                self.instance_digest,
                self.algorithm,
                solver_version,
                json.dumps(self.param_dict(), sort_keys=True, default=str),
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (for logs and progress output)."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.algorithm}({params})@{self.instance_digest[:10]}"


@dataclass
class JobResult:
    """The outcome of one job: its records plus provenance.

    ``elapsed_s`` is the batch's executor time *amortised* over the jobs it
    executed (0.0 for cache hits) — a cost indicator only, since it averages
    away per-job variation.  The job's **true** wall time, measured around
    its own ``execute_job`` call inside whichever process ran it, lives in
    ``metrics["elapsed_s"]``; when tracing is enabled
    (:func:`repro.obs.configure`) ``metrics["counters"]`` additionally holds
    the counter deltas attributable to this job.  ``metrics`` is ``None``
    only for cache hits (nothing was executed) and for jobs run by batched
    dispatch (one kernel pass for many jobs has no per-job metrics).

    A job that exhausted its attempts (or was quarantined as a poison job)
    has ``error`` set to a structured, JSON-safe payload (``type`` /
    ``message``, plus ``poison: True`` for quarantines) and ``records`` is
    empty; ``attempts`` counts every try including the first.
    """

    spec: JobSpec
    records: List[Record]
    from_cache: bool = False
    elapsed_s: float = 0.0
    metrics: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    attempts: int = 1

    @property
    def failed(self) -> bool:
        """Whether this job ended in a structured failure (no records)."""
        return self.error is not None


@dataclass
class BatchSpec:
    """An ordered collection of jobs executed as one batch.

    ``owners[j]`` is an opaque caller-side index for job ``j`` (typically the
    position of the job's instance in the caller's instance list) so that
    callers can re-attach per-instance context — e.g. ``extra_fields`` in
    :func:`repro.analysis.sweeps.run_ratio_sweep` — without shipping
    unpicklable callables into worker processes.
    """

    jobs: List[JobSpec] = field(default_factory=list)
    owners: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.jobs)

    def add(self, spec: JobSpec, owner: int = -1) -> None:
        self.jobs.append(spec)
        self.owners.append(owner)

    def extend(self, specs: Iterable[JobSpec], owner: int = -1) -> None:
        for spec in specs:
            self.add(spec, owner)


def make_jobs_for_instance(
    instance: MaxMinInstance,
    *,
    R_values: Sequence[int] = (2, 3, 4),
    include_safe: bool = True,
    include_optimum: bool = False,
) -> List[JobSpec]:
    """The standard job slate for one instance, in canonical record order.

    The order matches :func:`repro.analysis.ratios.compare_algorithms`: the
    local algorithm for each ``R`` (ascending over ``R_values`` as given),
    then the safe baseline, then the exact LP row.
    """
    text = instance_to_json(instance)
    digest = instance_digest(text)
    jobs: List[JobSpec] = []
    for R in R_values:
        jobs.append(
            JobSpec(
                instance_json=text,
                instance_digest=digest,
                algorithm="local",
                params=_canonical_params({"R": int(R)}),
            )
        )
    if include_safe:
        jobs.append(JobSpec(instance_json=text, instance_digest=digest, algorithm="safe"))
    if include_optimum:
        jobs.append(JobSpec(instance_json=text, instance_digest=digest, algorithm="lp-optimum"))
    return jobs
