"""Executors: strategies for mapping job specs to records.

An executor implements one method, :meth:`Executor.map_jobs`, which returns
every job's records together with its metrics (true elapsed wall time,
attempt counts, and — with tracing enabled via :func:`repro.obs.configure`
— the counter deltas the job produced).  :class:`SerialExecutor` runs jobs
in-process (reference semantics, easy to debug, monkeypatch-friendly for
tests).  :class:`ParallelExecutor` fans the same jobs out over a
:class:`concurrent.futures.ProcessPoolExecutor` in contiguous chunks and
reassembles the outputs **in submission order**, so the two executors are
observationally identical: same records, same order, for any batch.  That
equivalence is the engine's core contract and is asserted by a property
test in ``tests/test_engine.py``.  Both run every job through the
registry's one attempt loop,
:func:`repro.engine.registry.execute_job_resilient`.

Worker processes of the parallel executor collect their own trace buffers
and ship them back with the chunk results; the parent merges them in
**chunk-submission order**, so the merged spans and counters are
deterministic for a fixed chunking regardless of which worker finished
first.
"""

from __future__ import annotations

import abc
import os
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..exceptions import EngineError
from ..faults import FaultPlan
from . import registry
from .job import JobSpec, Record

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "default_executor"]

#: Per-job metrics payload (see :func:`repro.engine.registry.execute_job_resilient`).
JobMetrics = Dict[str, object]

#: Streaming completion hook: ``on_result(position, records, metrics)`` is
#: called once per job as its result lands in the parent process, in
#: whatever order jobs complete (``position`` indexes into the submitted
#: spec sequence).  ``run_batch`` uses it to checkpoint the result cache
#: *during* the batch, so a killed run keeps its finished work.
OnResult = Callable[[int, List[Record], JobMetrics], None]


class Executor(abc.ABC):
    """Maps an ordered sequence of job specs to their records and metrics."""

    name: str = "executor"

    @abc.abstractmethod
    def map_jobs(
        self,
        specs: Sequence[JobSpec],
        *,
        faults: Optional[FaultPlan] = None,
        on_result: Optional[OnResult] = None,
    ) -> Tuple[List[List[Record]], List[JobMetrics]]:
        """Execute every spec; ``records[j]`` / ``metrics[j]`` belong to ``specs[j]``.

        ``faults`` is the fault plan to inject (chaos testing); ``on_result``
        is called once per job as its result lands (see :data:`OnResult`).
        A job that fails comes back with no records and ``metrics["error"]``
        set; it never raises out of this call.  An exception raised by
        ``on_result`` propagates, and no job that has not started yet runs:
        that is how ``run_batch(on_error="raise")`` stops at the first
        failure.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every job in the calling process, one after the other."""

    name = "serial"

    def map_jobs(
        self,
        specs: Sequence[JobSpec],
        *,
        faults: Optional[FaultPlan] = None,
        on_result: Optional[OnResult] = None,
    ) -> Tuple[List[List[Record]], List[JobMetrics]]:
        # There is no expendable process here, so crash faults surface as
        # FaultInjectionError and become structured job failures.
        injector = faults.injector(in_worker=False) if faults is not None else None
        records_out: List[List[Record]] = []
        metrics_out: List[JobMetrics] = []
        for position, spec in enumerate(specs):
            # Each attempt calls ``registry.execute_job`` through the module,
            # so tests can monkeypatch it to count or stub solver calls.
            records, metrics = registry.execute_job_resilient(spec, injector=injector)
            records_out.append(records)
            metrics_out.append(metrics)
            if on_result is not None:
                on_result(position, records, metrics)
        return records_out, metrics_out


def _run_chunk(
    chunk_index: int,
    specs: List[JobSpec],
    with_obs: bool = False,
    plan: Optional[FaultPlan] = None,
    dispatch_attempts: Optional[List[int]] = None,
) -> Tuple[int, List[Tuple[List[Record], JobMetrics]], Optional[Dict[str, object]]]:
    """Worker-side entry point: execute one contiguous chunk of jobs.

    Module-level so it pickles by reference; each spec carries its instance
    as a JSON string and is deserialized here, on the worker, keeping the
    dispatch payload small.  With ``with_obs`` the worker collects its own
    trace buffer for the chunk and returns the serialized snapshot (workers
    do not inherit the parent's tracing flag — pools may have been forked
    before the parent enabled it).

    ``plan`` is the picklable fault script; the worker builds its own
    injector (``in_worker=True``), so an injected crash genuinely kills
    this process.  ``dispatch_attempts[j]`` is how often the parent has
    already shipped job ``j`` after worker deaths — crash faults key on it.
    """
    if with_obs:
        obs.configure(enabled=True)
        # A forked worker inherits the parent's live buffer (configure only
        # resets on a disabled→enabled edge); start from a clean chunk-local
        # buffer or the snapshot would duplicate the parent's spans.
        obs.reset()
    injector = plan.injector(in_worker=True) if plan is not None else None
    attempts = dispatch_attempts or [0] * len(specs)
    try:
        pairs = [
            registry.execute_job_resilient(
                spec, injector=injector, dispatch_attempt=attempt
            )
            for spec, attempt in zip(specs, attempts)
        ]
        snapshot = obs.snapshot() if with_obs else None
    finally:
        if with_obs:
            obs.configure(enabled=False)
    return chunk_index, pairs, snapshot


class ParallelExecutor(Executor):
    """Chunked fan-out over a process pool with deterministic output order.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    chunk_size:
        Jobs per dispatched chunk.  Defaults to spreading the batch over
        roughly four chunks per worker — small enough to load-balance
        heterogeneous job costs, large enough to amortise pickling.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None, chunk_size: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise EngineError(f"chunk_size must be >= 1, got {chunk_size}")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunk_size = chunk_size

    def _chunks(self, specs: Sequence[JobSpec]) -> List[Tuple[int, List[JobSpec]]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(specs) // (self.max_workers * 4)))
        return [
            (start // size, list(specs[start : start + size]))
            for start in range(0, len(specs), size)
        ]

    #: Dispatches after which a crashing job is quarantined as poison.  A
    #: group crash (whole pool breaks, every unfinished job is a suspect)
    #: plus one crash in isolation — or two isolation crashes — attribute
    #: the fault to the job definitively.
    POISON_THRESHOLD = 2

    def map_jobs(
        self,
        specs: Sequence[JobSpec],
        *,
        faults: Optional[FaultPlan] = None,
        on_result: Optional[OnResult] = None,
    ) -> Tuple[List[List[Record]], List[JobMetrics]]:
        if not specs:
            return [], []
        if self.max_workers == 1 or len(specs) == 1:
            # A one-worker pool would only add process overhead.
            return SerialExecutor().map_jobs(specs, faults=faults, on_result=on_result)
        chunks = self._chunks(specs)
        size = self.chunk_size or max(1, -(-len(specs) // (self.max_workers * 4)))
        with_obs = obs.enabled()
        n = len(specs)
        records: List[Optional[List[Record]]] = [None] * n
        metrics: List[Optional[JobMetrics]] = [None] * n
        crash_counts = [0] * n
        dispatch_attempts = [0] * n
        snapshots: List[Optional[Dict[str, object]]] = [None] * len(chunks)
        suspects: "deque[int]" = deque()

        def deliver(position: int, job_records: List[Record], job_metrics: JobMetrics) -> None:
            records[position] = job_records
            metrics[position] = job_metrics
            if on_result is not None:
                on_result(position, job_records, job_metrics)

        # Pass 1: the normal chunked fan-out.  A worker death breaks the
        # whole pool — the chunk that was running *and* every chunk still
        # pending raise BrokenExecutor, and we cannot tell which job pulled
        # the trigger.  All of their jobs become redispatch suspects with
        # one crash on their record; completed futures keep their results.
        with ProcessPoolExecutor(max_workers=min(self.max_workers, len(chunks))) as pool:
            futures = [
                pool.submit(_run_chunk, index, chunk, with_obs, faults)
                for index, chunk in chunks
            ]
            try:
                for (index, chunk), future in zip(chunks, futures):
                    positions = [index * size + offset for offset in range(len(chunk))]
                    try:
                        _, pairs, snapshot = future.result()
                    except BrokenExecutor:
                        for position in positions:
                            crash_counts[position] += 1
                            dispatch_attempts[position] += 1
                            suspects.append(position)
                        continue
                    snapshots[index] = snapshot
                    for position, (job_records, job_metrics) in zip(positions, pairs):
                        deliver(position, job_records, job_metrics)
            except BaseException:
                # ``on_result`` raised (or an interrupt): the batch ends here,
                # and chunks that have not started never run.
                pool.shutdown(cancel_futures=True)
                raise
        # Fold worker trace buffers into the parent collector in
        # chunk-submission order — deterministic regardless of completion
        # order; each chunk gets its own virtual process lane.
        if with_obs:
            for index, snapshot in enumerate(snapshots):
                if snapshot is not None:
                    obs.merge_snapshot(snapshot, proc=index + 1)

        # Recovery: re-dispatch each suspect alone, on a one-worker pool, so
        # a second crash attributes the fault to that job beyond doubt.  The
        # pool is reused across suspects and recreated only after a break (a
        # broken pool is unusable by contract).  Jobs whose crash count
        # reaches POISON_THRESHOLD are quarantined as structured failures
        # instead of raising — the rest of the batch still completes.
        lane = len(chunks) + 1
        recovery_pool: Optional[ProcessPoolExecutor] = None
        try:
            while suspects:
                position = suspects.popleft()
                obs.count("engine.redispatches")
                if recovery_pool is None:
                    recovery_pool = ProcessPoolExecutor(max_workers=1)
                future = recovery_pool.submit(
                    _run_chunk,
                    0,
                    [specs[position]],
                    with_obs,
                    faults,
                    [dispatch_attempts[position]],
                )
                try:
                    _, pairs, snapshot = future.result()
                except BrokenExecutor:
                    recovery_pool.shutdown(wait=False)
                    recovery_pool = None
                    crash_counts[position] += 1
                    dispatch_attempts[position] += 1
                    if crash_counts[position] >= self.POISON_THRESHOLD:
                        obs.count("engine.poison_jobs")
                        spec = specs[position]
                        deliver(
                            position,
                            [],
                            {
                                "elapsed_s": 0.0,
                                "attempts": dispatch_attempts[position],
                                "redispatches": dispatch_attempts[position],
                                "error": {
                                    "type": "PoisonJobError",
                                    "poison": True,
                                    "message": (
                                        f"job {spec.describe()} crashed "
                                        f"{crash_counts[position]} workers; "
                                        "quarantined as poison"
                                    ),
                                    "algorithm": spec.algorithm,
                                    "digest": spec.instance_digest,
                                    "params": spec.param_dict(),
                                },
                            },
                        )
                    else:
                        suspects.append(position)
                    continue
                if with_obs and snapshot is not None:
                    obs.merge_snapshot(snapshot, proc=lane)
                    lane += 1
                job_records, job_metrics = pairs[0]
                job_metrics = dict(job_metrics)
                job_metrics["redispatches"] = dispatch_attempts[position]
                deliver(position, job_records, job_metrics)
        finally:
            if recovery_pool is not None:
                recovery_pool.shutdown()

        for position, job_records in enumerate(records):
            if job_records is None:  # pragma: no cover - defensive
                raise EngineError(
                    f"job {specs[position].describe()} vanished without a result"
                )
        return records, metrics  # type: ignore[return-value]


def default_executor(jobs: Optional[int] = None) -> Executor:
    """The executor implied by a ``--jobs N`` style knob (``None``/1 → serial)."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(max_workers=jobs)
