"""``repro.serve`` — resilient allocation-as-a-service.

A dependency-free asyncio JSON-over-HTTP server that keeps compiled
instances resident and answers solve / utility / ratio / info queries with
robustness as the first-class design:

* **Admission control** — a bounded request queue with load shedding: past
  ``max_pending`` in-flight requests the server answers a structured
  ``overloaded`` error immediately instead of queueing unboundedly.
* **Deadlines** — every request carries a deadline (its own ``deadline_s``
  or the server default) propagated into the solver via
  :func:`repro.engine.resilience.call_with_timeout`; a blown deadline is a
  structured ``deadline_exceeded`` response, never a hang.
* **Degradation ladder** — the §4/§5 local solve, then the §1.3 safe
  baseline, with one circuit breaker guarding the local rung.  The safe
  baseline is a constant-round *feasible* approximation, so a request that
  cannot finish a full §5/§4 solve inside its deadline still gets a
  provably feasible allocation, tagged ``degraded: true`` with the reason.
* **Micro-batching** — concurrent small solve requests arriving within a
  short window coalesce into one multi-instance kernel pass
  (:meth:`LocalMaxMinSolver.solve_many`), bitwise-equal to solo solves.
* **Observability + drain** — ``/healthz`` ``/readyz`` ``/metrics`` admin
  endpoints (counters, breaker states, ``obs.trace_payload()``,
  ``ResultCache.stats()``) and graceful drain on SIGTERM.

The synchronous pieces (:class:`InstanceRegistry`, :class:`CircuitBreaker`,
the ladder in :mod:`repro.serve.server`) are importable and testable without
an event loop; :class:`AllocationServer` is the asyncio shell around them.
"""

from .breaker import CircuitBreaker
from .protocol import (
    ERROR_STATUS,
    ServeError,
    error_response,
    ok_response,
)
from .registry import InstanceRegistry, ResidentInstance
from .server import AllocationServer, ServeConfig
from .harness import ServeClient, ServerHandle, chaos_barrage, classify_response

__all__ = [
    "AllocationServer",
    "ServeConfig",
    "CircuitBreaker",
    "InstanceRegistry",
    "ResidentInstance",
    "ServeClient",
    "ServerHandle",
    "chaos_barrage",
    "classify_response",
    "ServeError",
    "ERROR_STATUS",
    "ok_response",
    "error_response",
]
