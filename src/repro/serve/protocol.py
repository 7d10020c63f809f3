"""The serve wire protocol: request/response shapes and error codes.

Everything on the wire is JSON.  A request is one ``POST /v1/<op>`` with a
JSON body; an admin query is one ``GET``.  Responses share a single
envelope::

    {"ok": true,  "op": "solve", "result": {...}, "degraded": false, ...}
    {"ok": false, "error": {"code": "overloaded", "message": "..."}}

Error codes are a *closed* vocabulary (clients switch on them):

``bad_request``
    Malformed body, unknown op, missing/invalid fields (HTTP 400).
``not_found``
    A ``digest`` that is not resident in the registry (HTTP 404).  The
    client re-sends the request with the full ``instance`` document.
``overloaded``
    Admission control shed the request — the bounded queue is full
    (HTTP 503).  Structured, immediate, retryable.
``draining``
    The server is finishing in-flight work after SIGTERM and admits no new
    requests (HTTP 503).
``deadline_exceeded``
    The request's deadline elapsed and degradation was disabled (or even
    the safe baseline could not answer) (HTTP 504).
``internal``
    Every rung of the ladder failed for a non-deadline reason (HTTP 500).

A *degraded* success is still ``ok: true`` — the allocation is feasible,
merely further from the optimum than the full solve — with
``degraded: true`` and a machine-readable ``degraded_reason``.

Responses are strict JSON: a non-finite ``utility``, ``optimum`` or
``measured_ratio`` is sent as ``null``, and nothing else may be non-finite.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional, Tuple

from ..engine.resilience import check_timeout
from ..exceptions import EngineError, ReproError

__all__ = [
    "ServeError",
    "ERROR_STATUS",
    "ok_response",
    "error_response",
    "parse_body",
]

#: Error code → HTTP status.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "not_found": 404,
    "overloaded": 503,
    "draining": 503,
    "deadline_exceeded": 504,
    "internal": 500,
}

#: Ops accepted under ``POST /v1/<op>``.
OPS = ("solve", "utility", "ratio", "info")

#: Result fields that go out as ``null`` when they are not finite.
NULLABLE_NUMBERS = ("utility", "optimum", "measured_ratio")


class ServeError(ReproError):
    """A structured, client-visible serving failure.

    Carries one of the :data:`ERROR_STATUS` codes; the server turns it into
    the error envelope (never a traceback on the wire).
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown serve error code {code!r}")
        super().__init__(message)
        self.code = code

    def payload(self) -> Dict[str, object]:
        return {"ok": False, "error": {"code": self.code, "message": str(self)}}


def ok_response(op: str, result: Dict[str, object], **envelope: object) -> Dict[str, object]:
    """The success envelope: ``ok``/``op``/``result`` plus extra fields.

    A non-finite :data:`NULLABLE_NUMBERS` field of ``result`` becomes ``None``.
    """
    result = dict(result)
    for key in NULLABLE_NUMBERS:
        value = result.get(key)
        if isinstance(value, float) and not math.isfinite(value):
            result[key] = None
    payload: Dict[str, object] = {"ok": True, "op": op, "result": result}
    payload.update(envelope)
    payload.setdefault("degraded", False)
    return payload


def error_response(code: str, message: str) -> Tuple[int, Dict[str, object]]:
    """``(http_status, envelope)`` for a structured error."""
    return ERROR_STATUS[code], {
        "ok": False,
        "error": {"code": code, "message": message},
    }


def parse_body(raw: bytes) -> Dict[str, object]:
    """Decode a request body; raise ``bad_request`` on anything non-object."""
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeError("bad_request", f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ServeError("bad_request", "request body must be a JSON object")
    return body


def seconds_field(body: Dict[str, object], field: str) -> Optional[float]:
    """Read an optional deadline in seconds, with a structured error.

    The value must pass :func:`repro.engine.resilience.check_timeout`; JSON
    parsing accepts ``NaN``, ``Infinity`` and ``1e400``, and a wait on any
    of them fails instead of bounding the request.
    """
    value = body.get(field)
    if value is None:
        return None
    try:
        return check_timeout(value, repr(field))
    except EngineError as exc:
        raise ServeError("bad_request", str(exc)) from None
