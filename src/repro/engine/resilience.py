"""Resilience policies for the engine: retries and deadlines.

Three pieces, shared by :func:`repro.engine.batch.run_batch`, the registry's
attempt loop and the allocation server:

* :class:`RetryPolicy` — per-job retry and backoff knobs.  Backoff is
  exponential with *deterministic* jitter: the jitter factor is derived from
  a SHA-256 over ``(job digest, attempt)``, so two runs of the same batch
  sleep the same amounts and the chaos-equivalence tests stay bit-stable.
  The per-attempt deadline is not part of the policy: it is
  ``run_batch(timeout_s=)`` (or ``JobSpec.timeout_s``).
* :func:`check_timeout` — the one check every deadline passes: a number
  of seconds ``t`` with ``0 < t <= threading.TIMEOUT_MAX``.
* :func:`call_with_timeout` — deadline enforcement for a single attempt.
  The attempt runs on a daemon thread and the caller waits ``timeout_s``;
  on expiry a :class:`~repro.exceptions.JobTimeoutError` is raised and the
  abandoned attempt is left to finish in the background (Python offers no
  safe preemption — the thread's eventual result is discarded).  Abandoned
  threads are *accounted for*: :func:`leaked_timeout_threads` reports how
  many are still running (also published as the
  ``engine.leaked_timeout_threads`` gauge), so a serving process wedging
  solver threads is visible on its admin endpoint instead of silent.

Finished jobs are checkpointed in the result cache
(:class:`~repro.engine.cache.ResultCache`) as they land, so a killed sweep
resumes when it is re-run with the same cache directory.
"""

from __future__ import annotations

import hashlib
import logging
import numbers
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import obs
from ..exceptions import EngineError, JobTimeoutError

__all__ = [
    "RetryPolicy",
    "check_timeout",
    "call_with_timeout",
    "leaked_timeout_threads",
]

logger = logging.getLogger(__name__)


def check_timeout(timeout_s: object, name: str = "timeout_s") -> float:
    """``timeout_s`` as a float, or :class:`EngineError` if no wait can use it.

    A deadline is a number of seconds ``t`` with ``0 < t <=
    threading.TIMEOUT_MAX``.  Anything else fails every attempt instead of
    bounding it: a wait on NaN returns at once, and a wait past the maximum
    (``inf`` included) raises ``OverflowError``.  ``name`` prefixes the
    message.
    """
    if (
        isinstance(timeout_s, bool)
        or not isinstance(timeout_s, numbers.Real)
        or not 0 < timeout_s <= threading.TIMEOUT_MAX
    ):
        raise EngineError(
            f"{name} must be a number of seconds in (0, {threading.TIMEOUT_MAX:g}], "
            f"got {timeout_s!r}"
        )
    return float(timeout_s)


@dataclass(frozen=True)
class RetryPolicy:
    """How a single job may fail before it counts as failed.

    Attributes
    ----------
    max_retries:
        Extra attempts after the first (``2`` → up to three tries).
    backoff_base_s / backoff_factor:
        Sleep before retry ``k`` (0-based) is
        ``backoff_base_s * backoff_factor**k``, jittered.
    jitter:
        Fractional jitter width: the delay is scaled by a deterministic
        factor in ``[1 - jitter, 1 + jitter]`` derived from the job digest
        and attempt number (no RNG state, reproducible across processes).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise EngineError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise EngineError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise EngineError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise EngineError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_s(self, token: str, attempt: int) -> float:
        """The backoff before retrying ``attempt`` (0-based), jittered."""
        base = self.backoff_base_s * self.backoff_factor ** attempt
        if base <= 0 or self.jitter == 0:
            return max(0.0, base)
        digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * fraction - 1.0))


# Timed-out attempt threads we had to abandon.  Dead ones are pruned on
# every touch; the survivors are the genuinely wedged (or still-finishing)
# attempts, published as the ``engine.leaked_timeout_threads`` gauge.
_abandoned_lock = threading.Lock()
_abandoned_threads: List[threading.Thread] = []
_leak_warned = False


def leaked_timeout_threads() -> int:
    """How many timed-out attempt threads are still running.

    :func:`call_with_timeout` cannot preempt a wedged attempt — it abandons
    the daemon thread and raises.  This reports the number of abandoned
    threads that have not yet finished on their own, prunes the ones that
    have, and refreshes the ``engine.leaked_timeout_threads`` gauge.  Served
    on the allocation server's ``/metrics`` endpoint.
    """
    with _abandoned_lock:
        _abandoned_threads[:] = [t for t in _abandoned_threads if t.is_alive()]
        count = len(_abandoned_threads)
    obs.gauge("engine.leaked_timeout_threads", count)
    return count


def _note_abandoned_thread(thread: threading.Thread) -> None:
    global _leak_warned
    with _abandoned_lock:
        _abandoned_threads[:] = [t for t in _abandoned_threads if t.is_alive()]
        _abandoned_threads.append(thread)
        count = len(_abandoned_threads)
        first = not _leak_warned
        _leak_warned = True
    obs.gauge("engine.leaked_timeout_threads", count)
    obs.count("engine.timeout_thread_leaks")
    if first:
        logger.warning(
            "a timed-out job attempt was abandoned and its thread leaked; it "
            "runs to completion in the background with its result discarded "
            "(gauge engine.leaked_timeout_threads tracks survivors; this "
            "warning is logged once per process)"
        )


def call_with_timeout(fn, timeout_s: Optional[float]):
    """Run ``fn()`` with a deadline; raise :class:`JobTimeoutError` on expiry.

    Without a deadline the call is direct (zero overhead).  With one, the
    attempt runs on a daemon thread; if it misses the deadline the thread is
    abandoned — it keeps running to completion in the background, its result
    discarded.  That is the honest Python trade-off: no preemption, so a
    truly wedged attempt occupies its thread until the process exits.
    Abandoned threads are tracked by :func:`leaked_timeout_threads` (and
    warn once per process) so the leak is observable rather than silent.
    """
    if timeout_s is None:
        return fn()
    outcome: Dict[str, object] = {}
    done = threading.Event()

    def runner() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller side
            outcome["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=runner, name="repro-job-attempt", daemon=True)
    thread.start()
    if not done.wait(timeout_s):
        _note_abandoned_thread(thread)
        raise JobTimeoutError(f"job attempt exceeded its {timeout_s}s deadline")
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome["value"]
