"""The allocation server: asyncio shell + synchronous solve ladder.

``AllocationServer`` is a dependency-free JSON-over-HTTP/1.1 server
(``asyncio.start_server``, one request per connection, ``Connection:
close``).  The event loop only parses requests and routes; every solve,
cache probe and LP runs on a bounded ``ThreadPoolExecutor`` so the loop is
never blocked and the executor width *is* the solver concurrency bound.

Request lifecycle::

    admission ──► resolve instance ──► [cache] ──► [micro-batch] ──► ladder
        │                                              │                │
        └ shed (overloaded/draining)                   └ fallback ──────┘

* **Admission**: past ``max_pending`` in-flight requests, shed immediately
  with a structured ``overloaded``; after SIGTERM, ``draining``.
* **Deadline**: ``started + deadline_s`` is carried through every stage;
  each ladder rung runs under :func:`repro.engine.resilience.call_with_timeout`
  with the *remaining* budget, so a wedged rung costs its deadline, never a
  client-visible hang.
* **Ladder** (``algorithm: "local"``): the §4/§5 local solve, then the
  §1.3 safe baseline.  One circuit breaker gates the local rung, solo and
  coalesced alike; the safe rung is never gated and always receives at
  least ``safe_grace_s`` of budget — it is the constant-round, provably
  feasible answer of last resort.  An answer from the safe rung of a
  ``local`` request is tagged ``degraded: true`` with a machine-readable
  reason trail.  A ``safe`` request runs the safe rung alone.  With
  ``degrade: false`` the ladder is rung 0 only and a blown deadline is a
  structured ``deadline_exceeded``.
* **Micro-batching**: concurrent ``local`` solves sharing one parameter set
  coalesce through :class:`~repro.serve.batcher.MicroBatcher` into a single
  ``solve_many`` kernel pass (bitwise-equal to solo solves); a
  failed flush falls back to the solo ladder per request.  A solve that is
  the only request in flight skips the window and takes the solo ladder.
* **Caching**: non-degraded solve results are stored in the engine's
  checksummed :class:`~repro.engine.cache.ResultCache` (the persistent tier
  below the resident-instance LRU), keyed by instance digest, parameters
  and ``SOLVER_VERSIONS``.  Degraded answers are never cached.
* **Faults**: a :class:`~repro.faults.FaultPlan` in the config injects
  crashes / hangs / transients into server-side solve attempts (the rung
  index is the attempt number), which is how the chaos harness exercises
  the ladder.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..algo.general_solver import GeneralSolveResult, LocalMaxMinSolver
from ..algo.safe_algorithm import SafeAlgorithm
from ..analysis.ratios import measured_ratio
from ..core.lp import solve_maxmin_lp
from ..core.solution import Solution
from ..engine.cache import ResultCache
from ..engine.registry import SOLVER_VERSIONS
from ..engine.resilience import call_with_timeout, leaked_timeout_threads
from ..exceptions import JobTimeoutError, ReproError
from .batcher import MicroBatcher
from .breaker import CircuitBreaker
from .protocol import (
    OPS,
    ServeError,
    error_response,
    ok_response,
    parse_body,
    seconds_field,
)
from .registry import InstanceRegistry, ResidentInstance

__all__ = ["ServeConfig", "AllocationServer"]

logger = logging.getLogger(__name__)

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Bump when the wire shape of cached solve records changes.  At 2 the
#: records lost their ``backend`` field.
_SERVE_CACHE_SCHEMA = 2


@dataclass
class ServeConfig:
    """Tunables for :class:`AllocationServer` (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is ``server.port`` after start()
    workers: int = 4  # solver threads — the real concurrency bound
    max_pending: int = 64  # admission bound: in-flight requests before shedding
    default_deadline_s: float = 30.0
    safe_grace_s: float = 2.0  # minimum budget for the final safe rung
    # Micro-batching window, opened only when another request is in flight
    # (a lone solve never waits); 0 disables micro-batching.
    coalesce_window_s: float = 0.002
    registry_capacity: int = 64
    cache_dir: Optional[str] = None  # persistent ResultCache tier (None = off)
    faults: Optional[object] = None  # a repro.faults.FaultPlan, if chaos is wanted
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    drain_timeout_s: float = 10.0
    io_timeout_s: float = 30.0  # per-read socket timeout
    max_body_bytes: int = 32 * 1024 * 1024


def _values_payload(solution: Solution) -> object:
    """A solution's ``values`` on the wire.

    An ``{agent: value}`` object when every agent id is a string; otherwise
    (int or tuple ids, which JSON object keys cannot carry) a list in
    canonical agent order.  The ``utility`` op accepts both shapes.
    """
    agents = solution.instance.agents
    values = solution.value_array().tolist()
    if all(isinstance(v, str) for v in agents):
        return dict(zip(agents, values))
    return values


class AllocationServer:
    """Resident-instance allocation service with graceful degradation."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = InstanceRegistry(capacity=self.config.registry_capacity)
        self.cache: Optional[ResultCache] = (
            ResultCache(Path(self.config.cache_dir)) if self.config.cache_dir else None
        )
        self.breaker = CircuitBreaker(
            "local",
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self._injector = (
            self.config.faults.injector() if self.config.faults is not None else None
        )
        # Server-local counters: always live, even when repro.obs is disabled,
        # so /metrics has something to show.  obs mirrors them when enabled.
        self.counters: Dict[str, int] = {}
        self._inflight = 0
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._batcher: Optional[MicroBatcher] = (
            MicroBatcher(self._flush_batch, window_s=self.config.coalesce_window_s)
            if self.config.coalesce_window_s > 0
            else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._idle: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._started_monotonic: Optional[float] = None
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "AllocationServer":
        """Bind and start accepting; ``self.port`` holds the bound port."""
        self._idle = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        logger.info("repro.serve listening on %s:%s", self.config.host, self.port)
        return self

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work, stop.

        Idempotent.  In-flight requests get up to ``drain_timeout_s`` to
        finish; new requests (on already-open connections) are answered with
        a structured ``draining`` error.
        """
        if self._draining:
            return
        self._draining = True
        self._count("serve.drains")
        logger.info("repro.serve draining (%d in flight)", self._inflight)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight > 0 and self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), self.config.drain_timeout_s)
            except asyncio.TimeoutError:
                logger.warning(
                    "repro.serve drain timed out with %d requests in flight",
                    self._inflight,
                )
        self._executor.shutdown(wait=False)
        if self._stopped is not None:
            self._stopped.set()

    async def wait_closed(self) -> None:
        """Block until a drain completes (the serve-forever await)."""
        if self._stopped is not None:
            await self._stopped.wait()

    # -- plumbing ------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        obs.count(name, value)

    def _in_executor(self, fn: Callable[[], object]) -> "Awaitable[object]":
        return asyncio.get_running_loop().run_in_executor(self._executor, fn)

    def _inject(self, algorithm: str, digest: str, params: Dict[str, object], attempt: int) -> None:
        """Fire any configured fault for this solve attempt (rung index)."""
        if self._injector is not None:
            self._injector.on_job_attempt(algorithm, digest, params, attempt, attempt)

    # -- HTTP shell ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._respond(reader)
            if response is None:
                return
            status, body = response
            head = (
                f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - best-effort close
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> Optional[Tuple[int, bytes]]:
        """Read one request and encode its answer (``None``: the client sent nothing).

        Past the transport every failure is a structured error: a malformed
        request, a failed op and a payload that does not encode alike.
        """
        method, path = "-", "-"
        try:
            request = await self._read_request(reader)
            if request is None:
                return None
            method, path, raw = request
            status, payload = await self._route(method, path, raw)
            return status, json.dumps(payload, allow_nan=False).encode("utf-8")
        except (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            raise  # the transport failed: nothing to answer
        except ServeError as exc:
            status, payload = error_response(exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - never a traceback on the wire
            logger.exception("unhandled error serving %s %s", method, path)
            self._count("serve.internal_errors")
            status, payload = error_response("internal", f"{type(exc).__name__}: {exc}")
        return status, json.dumps(payload, allow_nan=False).encode("utf-8")

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        timeout = self.config.io_timeout_s
        request_line = await asyncio.wait_for(reader.readline(), timeout)
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ServeError("bad_request", "malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise ServeError("bad_request", "invalid Content-Length") from None
        if content_length < 0 or content_length > self.config.max_body_bytes:
            raise ServeError(
                "bad_request",
                f"body of {content_length} bytes exceeds limit {self.config.max_body_bytes}",
            )
        raw = (
            await asyncio.wait_for(reader.readexactly(content_length), timeout)
            if content_length
            else b""
        )
        return method, path, raw

    async def _route(
        self, method: str, path: str, raw: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if method == "GET":
            if path == "/healthz":
                return 200, self._healthz_payload()
            if path == "/readyz":
                if self._draining:
                    return error_response("draining", "server is draining")
                return 200, {"ok": True, "status": "ready"}
            if path == "/metrics":
                return 200, await self._metrics_payload()
            return error_response("not_found", f"no such endpoint {path!r}")
        if method == "POST" and path.startswith("/v1/"):
            op = path[len("/v1/") :]
            if op not in OPS:
                return error_response(
                    "not_found", f"unknown op {op!r}; expected one of {list(OPS)}"
                )
            return await self._serve_op(op, raw)
        return error_response("bad_request", f"unsupported {method} {path}")

    # -- admin payloads ------------------------------------------------

    def _healthz_payload(self) -> Dict[str, object]:
        return {
            "ok": True,
            "status": "draining" if self._draining else "serving",
            "inflight": self._inflight,
            "resident_instances": len(self.registry),
        }

    async def _metrics_payload(self) -> Dict[str, object]:
        cache_stats = (
            await self._in_executor(self.cache.stats) if self.cache is not None else None
        )
        resident, capacity, evictions = self.registry.snapshot()
        # Distributed fault-tolerance counters (retransmits, losses, agent
        # faults, degradation) accumulated by any resilient-runtime run in
        # this process — zeros until one happens.
        obs_counters = obs.counters_mark()
        resilience = {
            name: value
            for name, value in sorted(obs_counters.items())
            if name.startswith(("runtime.", "faults.", "resilient."))
        }
        return {
            "ok": True,
            "uptime_s": round(time.monotonic() - (self._started_monotonic or time.monotonic()), 3),
            "draining": self._draining,
            "inflight": self._inflight,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "resilience": resilience,
            "breakers": {self.breaker.name: self.breaker.snapshot()},
            "registry": {
                "resident": resident,
                "capacity": capacity,
                "evictions": evictions,
            },
            "cache": cache_stats,
            "leaked_timeout_threads": leaked_timeout_threads(),
            "obs": obs.trace_payload() if obs.enabled() else None,
        }

    # -- request path --------------------------------------------------

    async def _serve_op(self, op: str, raw: bytes) -> Tuple[int, Dict[str, object]]:
        self._count("serve.requests")
        if self._draining:
            return error_response("draining", "server is draining; no new requests admitted")
        if self._inflight >= self.config.max_pending:
            self._count("serve.shed")
            return error_response(
                "overloaded",
                f"admission queue full ({self.config.max_pending} requests in flight); "
                "retry with backoff",
            )
        self._inflight += 1
        self._count("serve.admitted")
        obs.gauge("serve.inflight", self._inflight)
        started = time.monotonic()
        try:
            body = parse_body(raw)
            payload = await self._dispatch(op, body, started)
            payload["elapsed_ms"] = round((time.monotonic() - started) * 1000.0, 3)
            if payload.get("degraded"):
                self._count("serve.degraded")
            return 200, payload
        except ServeError as exc:
            if exc.code == "deadline_exceeded":
                self._count("serve.deadline_exceeded")
            else:
                self._count(f"serve.errors.{exc.code}")
            return error_response(exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - structured error, never a traceback
            logger.exception("op %s failed", op)
            self._count("serve.internal_errors")
            return error_response("internal", f"{type(exc).__name__}: {exc}")
        finally:
            self._inflight -= 1
            if self._draining and self._inflight == 0 and self._idle is not None:
                self._idle.set()

    async def _dispatch(
        self, op: str, body: Dict[str, object], started: float
    ) -> Dict[str, object]:
        entry = await self._in_executor(lambda: self._resolve_entry(body))
        deadline_s = seconds_field(body, "deadline_s") or self.config.default_deadline_s
        deadline = started + deadline_s
        if op == "solve":
            return await self._op_solve(body, entry, deadline)
        if op == "ratio":
            return await self._op_ratio(body, entry, deadline)
        if op == "utility":
            return await self._op_utility(body, entry)
        return await self._op_info(entry)

    def _resolve_entry(self, body: Dict[str, object]) -> ResidentInstance:
        doc = body.get("instance")
        if doc is not None:
            if isinstance(doc, dict):
                doc = json.dumps(doc)
            if not isinstance(doc, str):
                raise ServeError(
                    "bad_request", "'instance' must be the JSON instance document"
                )
            return self.registry.admit_json(doc)
        digest = body.get("digest")
        if not isinstance(digest, str) or not digest:
            raise ServeError("bad_request", "request needs an 'instance' document or a 'digest'")
        return self.registry.get(digest)

    def _solve_params(self, body: Dict[str, object]) -> Dict[str, object]:
        algorithm = body.get("algorithm", "local")
        if algorithm not in ("local", "safe"):
            raise ServeError("bad_request", "'algorithm' must be 'local' or 'safe'")
        R = body.get("R", 3)
        if isinstance(R, bool) or not isinstance(R, int) or R < 2:
            raise ServeError("bad_request", "'R' must be an integer >= 2")
        flags = {}
        for name, default in (("degrade", True), ("include_values", False)):
            value = body.get(name, default)
            if not isinstance(value, bool):
                raise ServeError("bad_request", f"{name!r} must be a boolean")
            flags[name] = value
        return {"algorithm": algorithm, "R": R, **flags}

    # -- solve op ------------------------------------------------------

    async def _op_solve(
        self, body: Dict[str, object], entry: ResidentInstance, deadline: float
    ) -> Dict[str, object]:
        params = self._solve_params(body)
        key = self._cache_key(entry.digest, params) if self.cache is not None else None
        if key is not None:
            records = await self._in_executor(lambda: self.cache.get(key))
            if records:
                self._count("serve.cache_hits")
                rec = records[0]
                return ok_response(
                    "solve",
                    rec["result"],
                    digest=entry.digest,
                    cached=True,
                    coalesced=False,
                    degraded=False,
                    degraded_reason=None,
                    **rec["meta"],
                )
        # A lone solve takes the solo ladder at once: no company will join
        # its window.
        if (
            self._batcher is not None
            and self._inflight > 1
            and params["algorithm"] == "local"
            and self.breaker.allow()
        ):
            try:
                result, meta = await self._batcher.submit(
                    (params["R"], params["include_values"]),
                    (entry, deadline),
                )
            except Exception:  # noqa: BLE001 - batch failure → solo ladder
                self._count("serve.batch_fallbacks")
            else:
                if key is not None:
                    await self._cache_store(key, result, meta)
                return ok_response("solve", result, digest=entry.digest, cached=False, **meta)
        result, meta = await self._in_executor(
            lambda: self._solve_ladder(entry, params, deadline)
        )
        if key is not None and not meta["degraded"]:
            await self._cache_store(key, result, meta)
        return ok_response("solve", result, digest=entry.digest, cached=False, **meta)

    def _solve_ladder(
        self, entry: ResidentInstance, params: Dict[str, object], deadline: float
    ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Run the degradation ladder synchronously (executor thread).

        Returns ``(result, meta)``; raises :class:`ServeError` with
        ``deadline_exceeded`` or ``internal`` when every rung fails.
        """
        R, include_values = params["R"], params["include_values"]
        rungs = ["local", "safe"] if params["algorithm"] == "local" else ["safe"]
        if not params["degrade"]:
            rungs = rungs[:1]
        reasons: List[str] = []
        saw_timeout = False
        for idx, rung in enumerate(rungs):
            gated = rung == "local"
            remaining = deadline - time.monotonic()
            if rung == "safe" and params["degrade"]:
                # The safe rung is constant-round: always give it at least
                # the grace budget so a degraded answer stays possible.
                budget = max(remaining, self.config.safe_grace_s)
            elif remaining <= 0:
                saw_timeout = True
                reasons.append(f"deadline:{rung}")
                continue
            else:
                budget = remaining
            if gated and not self.breaker.allow():
                reasons.append(f"breaker_open:{rung}")
                continue

            def attempt(rung: str = rung, idx: int = idx):
                self._inject(rung, entry.digest, {"op": "solve", "R": R}, idx)
                if rung == "local":
                    solver = LocalMaxMinSolver(R=R)
                    return self._package_local(solver.solve(entry.instance), include_values), solver.name
                safe = SafeAlgorithm()
                solution, cert = safe.solve_with_certificate(entry.instance)
                return self._package_safe(solution, cert, include_values), safe.name

            try:
                result, label = call_with_timeout(attempt, budget)
            except JobTimeoutError:
                saw_timeout = True
                reasons.append(f"timeout:{rung}")
                if gated:
                    self.breaker.record_failure()
                continue
            except Exception as exc:  # noqa: BLE001 - any rung failure degrades
                reasons.append(f"error:{rung}:{type(exc).__name__}")
                if gated:
                    self.breaker.record_failure()
                continue
            if gated:
                self.breaker.record_success()
            degraded = idx > 0
            meta = {
                "algorithm": label,
                "degraded": degraded,
                "degraded_reason": "; ".join(reasons) if degraded else None,
                "coalesced": False,
            }
            return result, meta
        detail = "; ".join(reasons) or "no ladder rung available"
        if saw_timeout:
            raise ServeError(
                "deadline_exceeded",
                f"deadline elapsed before any ladder rung finished ({detail})",
            )
        raise ServeError("internal", f"all ladder rungs failed ({detail})")

    async def _flush_batch(
        self, key: Tuple[object, ...], items: List[Tuple[ResidentInstance, float]]
    ) -> List[Tuple[Dict[str, object], Dict[str, object]]]:
        """Solve a coalesced batch with one ``solve_many`` kernel pass."""
        R, include_values = key
        entries = [entry for entry, _ in items]
        deadline = min(d for _, d in items)

        def run():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise JobTimeoutError("batch deadline elapsed before dispatch")

            def attempt():
                for e in entries:
                    self._inject("local", e.digest, {"op": "solve_batch", "R": R}, 0)
                solver = LocalMaxMinSolver(R=R)
                return solver.solve_many([e.instance for e in entries])

            return call_with_timeout(attempt, remaining)

        try:
            results = await self._in_executor(run)
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        n = len(items)
        if n > 1:
            self._count("serve.coalesced_batches")
            self._count("serve.coalesced_requests", n)
        out = []
        for res in results:
            result = self._package_local(res, include_values)
            meta = {
                "algorithm": f"local-R{R}",
                "degraded": False,
                "degraded_reason": None,
                "coalesced": n > 1,
                "batch_size": n,
            }
            out.append((result, meta))
        return out

    # -- other ops -----------------------------------------------------

    async def _op_ratio(
        self, body: Dict[str, object], entry: ResidentInstance, deadline: float
    ) -> Dict[str, object]:
        params = self._solve_params(body)

        def run():
            result, meta = self._solve_ladder(entry, params, deadline)
            budget = max(deadline - time.monotonic(), self.config.safe_grace_s)
            try:
                optimum = call_with_timeout(
                    lambda: entry.lp_optimum(lambda inst: solve_maxmin_lp(inst).optimum),
                    budget,
                )
            except Exception as exc:  # noqa: BLE001 - LP failure degrades the ratio
                if not params["degrade"]:
                    if isinstance(exc, JobTimeoutError):
                        raise ServeError(
                            "deadline_exceeded", "deadline elapsed during LP optimum"
                        ) from exc
                    raise ServeError(
                        "internal", f"LP optimum failed: {type(exc).__name__}: {exc}"
                    ) from exc
                meta["degraded"] = True
                reason = f"lp_unavailable:{type(exc).__name__}"
                meta["degraded_reason"] = (
                    f"{meta['degraded_reason']}; {reason}" if meta["degraded_reason"] else reason
                )
                result["optimum"] = None
                result["measured_ratio"] = None
            else:
                result["optimum"] = optimum
                result["measured_ratio"] = measured_ratio(optimum, result["utility"])
            return result, meta

        result, meta = await self._in_executor(run)
        return ok_response("ratio", result, digest=entry.digest, **meta)

    async def _op_utility(
        self, body: Dict[str, object], entry: ResidentInstance
    ) -> Dict[str, object]:
        values = body.get("values")
        if not isinstance(values, (list, dict)):
            raise ServeError(
                "bad_request",
                "'values' must be a list (canonical agent order) or an {agent: value} object",
            )

        def run():
            try:
                if isinstance(values, dict):
                    solution = Solution(
                        entry.instance,
                        {str(k): float(v) for k, v in values.items()},
                        label="client",
                    )
                else:
                    arr = np.asarray(values, dtype=float)
                    if arr.ndim != 1 or arr.shape[0] != entry.instance.num_agents:
                        raise ServeError(
                            "bad_request",
                            f"'values' must hold {entry.instance.num_agents} numbers",
                        )
                    solution = Solution.from_agent_array(entry.instance, arr, label="client")
            except ServeError:
                raise
            except (TypeError, ValueError, KeyError, ReproError) as exc:
                raise ServeError("bad_request", f"invalid 'values': {exc}") from exc
            if not np.isfinite(solution.value_array()).all():
                raise ServeError("bad_request", "'values' must be finite numbers")
            return {
                "utility": solution.utility(),
                "feasible": bool(solution.is_feasible()),
                "num_agents": entry.instance.num_agents,
            }

        result = await self._in_executor(run)
        return ok_response("utility", result, digest=entry.digest)

    async def _op_info(self, entry: ResidentInstance) -> Dict[str, object]:
        def run():
            inst = entry.instance
            return {
                "digest": entry.digest,
                "name": inst.name,
                "agents": inst.num_agents,
                "constraints": inst.num_constraints,
                "objectives": inst.num_objectives,
                "edges": inst.num_edges,
                "delta_I": inst.delta_I,
                "delta_K": inst.delta_K,
                "special_form": bool(inst.is_special_form()),
                "connected": bool(inst.is_connected()),
            }

        result = await self._in_executor(run)
        return ok_response("info", result, digest=entry.digest)

    # -- result packaging / caching ------------------------------------

    @staticmethod
    def _package_local(res: GeneralSolveResult, include_values: bool) -> Dict[str, object]:
        result = {
            "utility": res.utility(),
            "guaranteed_ratio": res.certificate.guaranteed_ratio,
            "status": res.status,
            "feasible": bool(res.solution.is_feasible()),
        }
        if include_values:
            result["values"] = _values_payload(res.solution)
        return result

    @staticmethod
    def _package_safe(solution: Solution, cert, include_values: bool) -> Dict[str, object]:
        result = {
            "utility": solution.utility(),
            "guaranteed_ratio": cert.guaranteed_ratio,
            "status": "safe",
            "feasible": bool(solution.is_feasible()),
        }
        if include_values:
            result["values"] = _values_payload(solution)
        return result

    def _cache_key(self, digest: str, params: Dict[str, object]) -> str:
        doc = {
            "serve_schema": _SERVE_CACHE_SCHEMA,
            "op": "solve",
            "digest": digest,
            "algorithm": params["algorithm"],
            "R": params["R"],
            "include_values": params["include_values"],
            "solver_version": SOLVER_VERSIONS.get(params["algorithm"], "0"),
        }
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        return "serve-" + hashlib.sha256(blob).hexdigest()

    async def _cache_store(
        self, key: str, result: Dict[str, object], meta: Dict[str, object]
    ) -> None:
        record = {
            "result": result,
            "meta": {"algorithm": meta["algorithm"]},
        }
        try:
            await self._in_executor(lambda: self.cache.put(key, [record]))
            self._count("serve.cache_stores")
        except Exception:  # noqa: BLE001 - the cache tier is best-effort
            self._count("serve.cache_errors")
