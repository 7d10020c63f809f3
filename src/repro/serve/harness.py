"""Client + chaos harness for the allocation server.

Three pieces, shared by the test suite, the CI smoke and the serve
benchmark:

* :class:`ServeClient` — a tiny synchronous JSON client (``http.client``,
  one connection per request, hard socket timeout).  The socket timeout is
  the harness's hang detector: a server that ever leaves a client waiting
  past it is a failed chaos run.
* :class:`ServerHandle` — runs an :class:`~repro.serve.server.AllocationServer`
  on a background thread with its own event loop, for in-process tests.
  ``start()`` blocks until the port is bound; ``stop()`` drains gracefully.
* :func:`chaos_barrage` — fires N requests concurrently and classifies
  every outcome.  The resilience contract under chaos is *no client-visible
  hangs and no transport errors*: every request gets an exact answer, a
  degraded safe-baseline answer, or a structured error (``overloaded``,
  ``deadline_exceeded``, ...).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..core.instance import MaxMinInstance
from ..io.serialization import instance_to_json
from .server import AllocationServer, ServeConfig

__all__ = ["ServeClient", "ServerHandle", "chaos_barrage", "classify_response"]

#: ``(http_status, decoded_payload)`` as seen by a client.
Response = Tuple[int, Dict[str, object]]


def _instance_document(instance) -> object:
    """Accept a live ``MaxMinInstance``, a JSON string, or a parsed document.

    A live instance goes out as its canonical text, which the server
    matches against its residents with one hash.
    """
    if isinstance(instance, MaxMinInstance):
        return instance_to_json(instance)
    return instance


def _reject_constant(name: str) -> None:
    raise ValueError(f"response is not strict JSON: it holds {name}")


class ServeClient:
    """Minimal synchronous client; every call opens one short-lived connection.

    It parses responses strictly: a ``NaN`` or ``Infinity`` raises ``ValueError``.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Response:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            conn.request(
                method, path, body=payload, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
        finally:
            conn.close()

    # -- ops -----------------------------------------------------------

    def op(self, op: str, body: dict) -> Response:
        return self.request("POST", f"/v1/{op}", body)

    def solve(self, *, instance=None, digest: Optional[str] = None, **params) -> Response:
        body = dict(params)
        if instance is not None:
            body["instance"] = _instance_document(instance)
        if digest is not None:
            body["digest"] = digest
        return self.op("solve", body)

    def ratio(self, *, instance=None, digest: Optional[str] = None, **params) -> Response:
        body = dict(params)
        if instance is not None:
            body["instance"] = _instance_document(instance)
        if digest is not None:
            body["digest"] = digest
        return self.op("ratio", body)

    def utility(self, values, *, instance=None, digest: Optional[str] = None) -> Response:
        body: Dict[str, object] = {"values": values}
        if instance is not None:
            body["instance"] = _instance_document(instance)
        if digest is not None:
            body["digest"] = digest
        return self.op("utility", body)

    def info(self, *, instance=None, digest: Optional[str] = None) -> Response:
        body: Dict[str, object] = {}
        if instance is not None:
            body["instance"] = _instance_document(instance)
        if digest is not None:
            body["digest"] = digest
        return self.op("info", body)

    # -- admin ---------------------------------------------------------

    def healthz(self) -> Response:
        return self.request("GET", "/healthz")

    def readyz(self) -> Response:
        return self.request("GET", "/readyz")

    def metrics(self) -> Response:
        return self.request("GET", "/metrics")


class ServerHandle:
    """An in-process server on a background thread (tests, smoke, bench)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.server: Optional[AllocationServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def client(self, timeout_s: float = 30.0) -> ServeClient:
        return ServeClient(self.config.host, self.port, timeout_s=timeout_s)

    def start(self, timeout_s: float = 10.0) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("serve loop failed to start within its timeout")
        if self._boot_error is not None:
            raise RuntimeError(f"serve loop failed to bind: {self._boot_error}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        self.server = AllocationServer(self.config)

        async def boot() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - re-raised in start()
                self._boot_error = exc
            finally:
                self._ready.set()

        try:
            loop.run_until_complete(boot())
            if self._boot_error is None:
                loop.run_forever()
        finally:
            loop.close()

    def stop(self, timeout_s: float = 15.0) -> None:
        """Drain gracefully, stop the loop, join the thread."""
        if self.loop is None or self.server is None:
            return
        if self._boot_error is None and self.loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self.server.drain(), self.loop)
            try:
                future.result(timeout_s)
            except Exception:  # noqa: BLE001 - stop anyway; drain is best-effort
                pass
            self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(timeout_s)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def classify_response(outcome: object) -> str:
    """One label per chaos outcome.

    ``"transport_error"`` (the client saw a socket error or timeout — a
    resilience violation), ``"ok"``, ``"degraded"``, or the structured
    error code (``"overloaded"``, ``"deadline_exceeded"``, ...).
    """
    if isinstance(outcome, BaseException):
        return "transport_error"
    status, payload = outcome
    if not isinstance(payload, dict):
        return "transport_error"
    if payload.get("ok"):
        return "degraded" if payload.get("degraded") else "ok"
    error = payload.get("error")
    if isinstance(error, dict) and isinstance(error.get("code"), str):
        return error["code"]
    return "transport_error"


def chaos_barrage(
    client: ServeClient,
    requests: List[Tuple[str, dict]],
    *,
    concurrency: int = 16,
) -> List[object]:
    """Fire ``requests`` (``(op, body)`` pairs) concurrently.

    Returns one outcome per request, in order: a ``(status, payload)``
    response or the exception the client transport raised.  Feed each
    outcome to :func:`classify_response`; under chaos the contract is that
    *none* classify as ``transport_error``.
    """

    def one(item: Tuple[str, dict]) -> object:
        op, body = item
        try:
            return client.op(op, body)
        except Exception as exc:  # noqa: BLE001 - classified by the caller
            return exc

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(one, requests))
