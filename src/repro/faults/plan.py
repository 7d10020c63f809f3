"""Fault *plans*: declarative, deterministically seeded failure scripts.

A :class:`FaultPlan` is a frozen, picklable description of every failure a
run should suffer: worker crashes, hangs, transient solver errors, cache
corruption and message loss.  Determinism is the design center — a plan
carries no live state, so the same plan produces the same failures whether
it is evaluated in the parent process, in a pool worker, or in a re-run:

* **Job faults** fire on *attempt numbers*, not on wall-clock or per-process
  counters.  "Crash on dispatch attempt 0" means the first time the engine
  ships the job to a worker, and never again after the engine re-dispatches
  it — no shared state needs to survive the worker's death for the retry to
  succeed.
* **Cache faults** count their firings inside the single process that owns
  the :class:`~repro.engine.cache.ResultCache` object.
* **Message faults** derive any sampled drop set from ``(seed, round)``, so
  two runs of the same plan drop the same slots.

Plans are plain data; the runtime half lives in
:class:`repro.faults.injector.FaultInjector`.  Everything here is stdlib
only, importable from pool workers without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import EngineError

__all__ = [
    "JobFault",
    "CacheFault",
    "MessageFault",
    "AgentFault",
    "FaultPlan",
    "crash",
    "hang",
    "transient",
]

#: ``attempts`` value meaning "fire on every attempt" (a poison job).
ALWAYS = None


@dataclass(frozen=True)
class JobFault:
    """One scripted failure on the job-execution path.

    Attributes
    ----------
    kind:
        ``"crash"`` — kill the worker process mid-chunk (``os._exit``; in a
        serial executor, where there is no expendable process, it raises
        :class:`~repro.exceptions.FaultInjectionError` instead).
        ``"hang"`` — sleep ``hang_s`` seconds before the solve, so a job
        run with a ``timeout_s`` deadline blows it.
        ``"transient"`` — raise :class:`FaultInjectionError` before the
        solve (the classic first-k-attempts-fail error).
    algorithm / digest_prefix / params:
        Job matchers: registry algorithm name (``None`` = any), instance
        digest prefix (``""`` = any) and a required subset of the job's
        parameter pairs, e.g. ``(("R", 3),)``.
    attempts:
        Which attempt numbers fire.  ``"crash"`` faults are matched against
        the *dispatch* attempt (how often the engine has shipped the job to
        a worker); ``"hang"``/``"transient"`` against the in-process retry
        attempt.  ``None`` fires on every attempt — that is a poison job.
    hang_s:
        Sleep duration for ``"hang"`` faults.
    """

    kind: str
    algorithm: Optional[str] = None
    digest_prefix: str = ""
    params: Tuple[Tuple[str, object], ...] = ()
    attempts: Optional[Tuple[int, ...]] = (0,)
    hang_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "hang", "transient"):
            raise EngineError(
                f"unknown job-fault kind {self.kind!r} "
                "(expected 'crash', 'hang' or 'transient')"
            )
        if self.kind == "hang" and self.hang_s <= 0:
            raise EngineError("hang faults need hang_s > 0")

    def matches(self, algorithm: str, digest: str, params: dict) -> bool:
        """Whether a job with these coordinates is targeted by this fault."""
        if self.algorithm is not None and algorithm != self.algorithm:
            return False
        if self.digest_prefix and not digest.startswith(self.digest_prefix):
            return False
        for key, value in self.params:
            if params.get(key) != value:
                return False
        return True

    def fires_on(self, attempt: int) -> bool:
        """Whether the fault fires on this attempt number."""
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class CacheFault:
    """Corrupt the bytes of a :class:`ResultCache` entry as it is written.

    ``mode="truncate"`` halves the payload (invalid JSON — models a crashed
    writer); ``mode="bitflip"`` XORs one deterministically chosen byte (the
    JSON may stay *parseable*, which is exactly what the per-entry checksum
    exists to catch).  The first ``times`` puts whose key starts with
    ``key_prefix`` are corrupted; firing state lives on the injector, i.e.
    in the process that owns the cache object.
    """

    key_prefix: str = ""
    mode: str = "truncate"
    times: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("truncate", "bitflip"):
            raise EngineError(
                f"unknown cache-fault mode {self.mode!r} (expected 'truncate' or 'bitflip')"
            )
        if self.times < 1:
            raise EngineError("cache faults need times >= 1")


@dataclass(frozen=True)
class MessageFault:
    """Drop a subset of directed-edge slots in one delivery round.

    ``slots`` are dropped verbatim; ``fraction`` additionally drops a
    deterministic sample of all slots, seeded by ``(plan.seed, round)``.
    Dropped messages count as sent (the sender paid for them) but never
    arrive — the receiving protocol sees an empty slot, exactly as if the
    link had failed.

    ``attempts`` mirrors :class:`JobFault`: which *transmission attempts* of
    the round are lossy.  Attempt 0 is the round's original delivery; higher
    attempts are the per-round retransmissions of the resilient runtime
    (:class:`repro.distributed.resilient.ResilientRuntime`).  The default
    ``(0,)`` models a transient glitch — the first retransmission gets
    through — while ``attempts=None`` fires on every attempt and models a
    persistently failed link that no retransmit budget can beat.  The
    plain :class:`~repro.distributed.runtime.SynchronousRuntime` only ever
    performs attempt 0.
    """

    round_number: int
    slots: Tuple[int, ...] = ()
    fraction: float = 0.0
    attempts: Optional[Tuple[int, ...]] = (0,)

    def __post_init__(self) -> None:
        if self.round_number < 1:
            raise EngineError("message faults target 1-based round numbers")
        if not 0.0 <= self.fraction <= 1.0:
            raise EngineError("message-fault fraction must be in [0, 1]")
        if self.attempts is not None and any(a < 0 for a in self.attempts):
            raise EngineError("message-fault attempts are 0-based transmission attempts")

    def fires_on(self, attempt: int) -> bool:
        """Whether this fault drops messages on this transmission attempt."""
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class AgentFault:
    """Make protocol *agents* misbehave, deterministically.

    Where :class:`MessageFault` models a bad link, an ``AgentFault`` models
    a bad node.  Kinds:

    ``"crash"``
        The agent dies at the start of ``round_number`` and never speaks
        again.  It produces no output — a resilient solver reports it as
        ``failed``.
    ``"silent"``
        The agent stops sending for rounds ``round_number … until_round``
        (inclusive; ``None`` = forever) but stays alive — its neighbours
        experience the silence exactly like a crash, yet the agent itself
        can still fall back to the safe baseline at the end.
    ``"babbling"``
        From ``round_number`` on, the agent's outgoing payloads are garbage
        (modelled as non-finite values).  Receivers detect and discard them
        — the runtime quarantines the babbler, which from then on behaves
        like a crashed node and is reported as ``failed``.

    ``agents`` lists agent *positions* (canonical agent order, the same
    indexing as :attr:`CompiledInstance.agents`); ``fraction`` additionally
    targets a deterministic sample of all agents, seeded by
    ``(plan.seed, fault index)`` so the same plan always afflicts the same
    agents, in every process, on every run.
    """

    kind: str
    round_number: int = 1
    agents: Tuple[int, ...] = ()
    fraction: float = 0.0
    until_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "silent", "babbling"):
            raise EngineError(
                f"unknown agent-fault kind {self.kind!r} "
                "(expected 'crash', 'silent' or 'babbling')"
            )
        if self.round_number < 1:
            raise EngineError("agent faults target 1-based round numbers")
        if not 0.0 <= self.fraction <= 1.0:
            raise EngineError("agent-fault fraction must be in [0, 1]")
        if self.until_round is not None:
            if self.kind != "silent":
                raise EngineError(
                    f"until_round is only meaningful for 'silent' faults "
                    f"(got kind={self.kind!r}); it would be silently ignored"
                )
            if self.until_round < self.round_number:
                raise EngineError("until_round must be >= round_number")

    def active_in(self, round_number: int) -> bool:
        """Whether the fault afflicts its agents in this round."""
        if round_number < self.round_number:
            return False
        if self.kind == "silent" and self.until_round is not None:
            return round_number <= self.until_round
        return True


@dataclass(frozen=True)
class FaultPlan:
    """The full failure script of one run: seed + faults per subsystem."""

    seed: int = 0
    job_faults: Tuple[JobFault, ...] = ()
    cache_faults: Tuple[CacheFault, ...] = ()
    message_faults: Tuple[MessageFault, ...] = ()
    agent_faults: Tuple[AgentFault, ...] = ()

    def injector(self, in_worker: bool = False) -> "FaultInjector":
        """A live injector evaluating this plan (see module docstring)."""
        from .injector import FaultInjector

        return FaultInjector(self, in_worker=in_worker)

    def describe(self) -> str:
        """One-line human-readable summary (for logs and smoke output)."""
        return (
            f"FaultPlan(seed={self.seed}, jobs={len(self.job_faults)}, "
            f"cache={len(self.cache_faults)}, messages={len(self.message_faults)}, "
            f"agents={len(self.agent_faults)})"
        )


# ----------------------------------------------------------------------
# Convenience constructors — the common cases in one call
# ----------------------------------------------------------------------


def crash(
    algorithm: Optional[str] = None,
    digest_prefix: str = "",
    params: Tuple[Tuple[str, object], ...] = (),
    attempts: Optional[Tuple[int, ...]] = (0,),
) -> JobFault:
    """A worker crash on the matched job (``attempts=None`` = poison job)."""
    return JobFault(
        kind="crash",
        algorithm=algorithm,
        digest_prefix=digest_prefix,
        params=params,
        attempts=attempts,
    )


def hang(
    hang_s: float,
    algorithm: Optional[str] = None,
    digest_prefix: str = "",
    params: Tuple[Tuple[str, object], ...] = (),
    attempts: Optional[Tuple[int, ...]] = (0,),
) -> JobFault:
    """A pre-solve sleep that makes the matched job blow its deadline."""
    return JobFault(
        kind="hang",
        algorithm=algorithm,
        digest_prefix=digest_prefix,
        params=params,
        attempts=attempts,
        hang_s=hang_s,
    )


def transient(
    algorithm: Optional[str] = None,
    digest_prefix: str = "",
    params: Tuple[Tuple[str, object], ...] = (),
    attempts: Optional[Tuple[int, ...]] = (0,),
) -> JobFault:
    """A transient error on the matched job's first ``attempts`` tries."""
    return JobFault(
        kind="transient",
        algorithm=algorithm,
        digest_prefix=digest_prefix,
        params=params,
        attempts=attempts,
    )
