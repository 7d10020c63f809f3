"""The circuit breaker of the degradation ladder.

A breaker guards one ladder rung (the server's guards the ``"local"`` §5
rung).  After ``failure_threshold`` *consecutive* failures it opens: the
ladder skips that rung outright for ``cooldown_s`` (the response is degraded
with reason ``breaker_open:<rung>`` instead of paying the failure again).
After the cooldown one trial request is let through (half-open); success
closes the breaker, failure re-opens it for another cooldown.

Clock injection (``clock=``) keeps the state machine deterministic under
test; the default is :func:`time.monotonic`.  Thread-safe — ladder rungs
run on executor threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from .. import obs

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open after cooldown."""

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {cooldown_s}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0          # consecutive failures while closed
        self._opened_at: float = 0.0
        self._open = False
        self._trial_inflight = False
        self.opens = 0              # lifetime open transitions

    # ------------------------------------------------------------------

    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (cooldown elapsed)."""
        with self._lock:
            if not self._open:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown_s:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """Whether the ladder may try the guarded rung now.

        While open, returns ``False`` until the cooldown elapses; then lets
        exactly one trial through at a time (half-open) until an outcome is
        recorded.
        """
        with self._lock:
            if not self._open:
                return True
            if self._clock() - self._opened_at < self.cooldown_s:
                return False
            if self._trial_inflight:
                return False
            self._trial_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._open = False
            self._failures = 0
            self._trial_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            if self._open:
                # A failed half-open trial: re-open for a fresh cooldown.
                self._opened_at = self._clock()
                self._trial_inflight = False
                self.opens += 1
            else:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._open = True
                    self._opened_at = self._clock()
                    self._trial_inflight = False
                    self.opens += 1
                else:
                    return
        obs.count("serve.breaker_opens")

    def snapshot(self) -> Dict[str, object]:
        """State for the admin endpoint."""
        return {
            "state": self.state(),
            "consecutive_failures": self._failures,
            "failure_threshold": self.failure_threshold,
            "cooldown_s": self.cooldown_s,
            "opens": self.opens,
        }
