"""JSON (de)serialization of instances and solutions.

Node identifiers may be arbitrary hashables inside the library (the
transformation pipeline, for example, creates tuple-shaped ids); on disk we
store a tagged JSON form that round-trips every supported id type *by
identity*: strings, ints, bools, floats, and arbitrarily nested tuples of
those.  Faithful round-tripping matters beyond aesthetics — the engine's
result cache is addressed by :func:`instance_digest`, so an id that decodes
to a different object would make ``load(save(inst))`` hash differently and
silently miss every cached result.  Ids outside the supported set therefore
raise :class:`SerializationError` at save time instead of being degraded to
``repr`` strings (the historical behaviour; documents written by older
versions with ``repr``-encoded ids are still readable and decode to those
strings).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Union

from .._types import NodeId
from ..exceptions import InvalidInstanceError, SerializationError

if TYPE_CHECKING:
    from ..core.instance import MaxMinInstance
    from ..core.solution import Solution

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "instance_digest",
    "save_instance",
    "load_instance",
    "solution_to_json",
    "save_solution",
]


def _encode_id(node_id: NodeId) -> Any:
    """Encode a node id as JSON-compatible data (tagged for round-tripping)."""
    if isinstance(node_id, str):
        return node_id
    if isinstance(node_id, bool):  # bool before int: bool is an int subclass
        return {"__kind__": "bool", "value": node_id}
    if isinstance(node_id, int):
        return {"__kind__": "int", "value": node_id}
    if isinstance(node_id, float):
        # repr round-trips every float exactly (including inf/-inf/nan) and,
        # unlike a raw JSON number, survives json encoders that reject
        # non-finite values.
        return {"__kind__": "float", "value": repr(node_id)}
    if isinstance(node_id, tuple):
        return {"__kind__": "tuple", "items": [_encode_id(x) for x in node_id]}
    raise SerializationError(
        f"node id {node_id!r} of type {type(node_id).__name__} cannot be serialized "
        "faithfully; supported id types are str, int, bool, float and tuples thereof"
    )


def _decode_id(data: Any) -> NodeId:
    if isinstance(data, str):
        return data
    if isinstance(data, Mapping):
        kind = data.get("__kind__")
        if kind == "bool":
            return bool(data["value"])
        if kind == "int":
            return int(data["value"])
        if kind == "float":
            return float(data["value"])
        if kind == "tuple":
            return tuple(_decode_id(x) for x in data["items"])
        if kind == "repr":  # legacy documents (pre-tagged bools / exotic ids)
            return str(data["value"])
    raise SerializationError(f"cannot decode node id from {data!r}")


def instance_to_json(instance: MaxMinInstance) -> str:
    """Serialise an instance to a JSON string."""
    payload: Dict[str, Any] = {
        "format": "repro.maxmin-lp",
        "version": 1,
        "name": instance.name,
        "agents": [_encode_id(v) for v in instance.agents],
        "constraints": [_encode_id(i) for i in instance.constraints],
        "objectives": [_encode_id(k) for k in instance.objectives],
        "a": [
            {"constraint": _encode_id(i), "agent": _encode_id(v), "coefficient": coeff}
            for (i, v), coeff in sorted(instance.a_coefficients.items(), key=repr)
        ],
        "c": [
            {"objective": _encode_id(k), "agent": _encode_id(v), "coefficient": coeff}
            for (k, v), coeff in sorted(instance.c_coefficients.items(), key=repr)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def instance_from_json(text: str) -> MaxMinInstance:
    """Inverse of :func:`instance_to_json`.

    Every failure — invalid JSON, a malformed document, or a document that
    describes no valid instance, such as one that lists an edge twice —
    raises :class:`SerializationError`.
    """
    from ..core.instance import MaxMinInstance

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "repro.maxmin-lp":
        raise SerializationError("not a repro.maxmin-lp document")
    try:
        a = {
            (_decode_id(row["constraint"]), _decode_id(row["agent"])): float(row["coefficient"])
            for row in payload["a"]
        }
        c = {
            (_decode_id(row["objective"]), _decode_id(row["agent"])): float(row["coefficient"])
            for row in payload["c"]
        }
        if len(a) != len(payload["a"]):
            _raise_duplicate_edge("constraint", payload["a"])
        if len(c) != len(payload["c"]):
            _raise_duplicate_edge("objective", payload["c"])
        return MaxMinInstance(
            agents=[_decode_id(x) for x in payload["agents"]],
            constraints=[_decode_id(x) for x in payload["constraints"]],
            objectives=[_decode_id(x) for x in payload["objectives"]],
            a=a,
            c=c,
            name=str(payload.get("name", "max-min-lp")),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed instance document: {exc}") from exc
    except (InvalidInstanceError, ValueError, OverflowError) as exc:
        # Valid JSON that is no valid instance (duplicate ids, a coefficient
        # that is not a positive finite number, ...): a document error too.
        raise SerializationError(str(exc)) from exc


def _raise_duplicate_edge(kind: str, rows: List[Mapping[str, Any]]) -> None:
    """Name the first row that repeats an earlier row's edge, worded like the
    array constructor's refusal."""
    seen = set()
    for row in rows:
        edge = (_decode_id(row[kind]), _decode_id(row["agent"]))
        if edge in seen:
            raise SerializationError(f"duplicate {kind} coefficient for ({edge[0]!r}, {edge[1]!r})")
        seen.add(edge)


def instance_digest(instance: Union[MaxMinInstance, str]) -> str:
    """Stable SHA-256 content digest of an instance.

    The digest is computed over the canonical JSON form produced by
    :func:`instance_to_json`, so two instances hash equal exactly when their
    names, node orders and sparse coefficients coincide.  It is stable across
    processes and interpreter runs (no dependence on ``hash()`` randomisation)
    and therefore suitable as a content-address for on-disk caches
    (see :mod:`repro.engine.cache`).

    Accepts either a live instance or a string already produced by
    :func:`instance_to_json` (so callers that serialised the instance anyway
    can avoid serialising twice).
    """
    import hashlib  # not at module level: loading OpenSSL costs a cold solve ~6 ms

    text = instance if isinstance(instance, str) else instance_to_json(instance)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_instance(instance: MaxMinInstance, path: Union[str, Path]) -> Path:
    """Write an instance to a ``.json`` file; returns the path."""
    path = Path(path)
    path.write_text(instance_to_json(instance), encoding="utf-8")
    return path


def load_instance(path: Union[str, Path]) -> MaxMinInstance:
    """Read an instance previously written by :func:`save_instance`."""
    return instance_from_json(Path(path).read_text(encoding="utf-8"))


def solution_to_json(solution: Solution, include_diagnostics: bool = True) -> str:
    """Serialise a solution (values plus optional diagnostics) to strict JSON.

    A non-finite utility is written as ``null``; a non-finite value raises
    :class:`ValueError`.  The text is ``json.dumps(payload, indent=2,
    allow_nan=False)`` of the document, byte for byte, but the rows are
    written from a template: ``indent`` forces json's pure-Python encoder,
    which took most of a 10⁴-agent save.  Strings are escaped by json's own
    ``encode_basestring_ascii`` and values written with ``repr``, as json
    writes a float.
    """
    instance = solution.instance
    values = solution.value_array().tolist()
    # Rows sit at depth 2 of the document; a tagged id is a nested object,
    # so its lines are indented by the six spaces of a row's fields.
    rows = [
        f'    {{\n      "agent": {_id_text(v)},\n      "value": {x!r}\n    }}'
        for v, x in zip(instance.agents, values)
    ]
    payload: Dict[str, Any] = {
        "format": "repro.maxmin-solution",
        "version": 1,
        "label": solution.label,
        "instance": instance.name,
        "values": [],
    }
    if include_diagnostics:
        utility = solution.utility()
        payload["utility"] = utility if math.isfinite(utility) else None
        payload["feasible"] = solution.is_feasible()
    if not all(map(math.isfinite, values)):
        # json's own refusal of the first non-finite value; ``indent`` picks
        # the encoder (and so the message) that writes the whole document.
        json.dumps(next(x for x in values if not math.isfinite(x)), indent=2, allow_nan=False)
    # Every key of the document sits at two spaces and nested lines deeper,
    # so this marks the one "values" key; the rows go in its place.
    head, _, tail = json.dumps(payload, indent=2, allow_nan=False).partition(
        '\n  "values": []'
    )
    block = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return head + '\n  "values": ' + block + tail


def _id_text(node_id: NodeId) -> str:
    """A node id as :func:`solution_to_json` writes it in a row."""
    if isinstance(node_id, str):
        return encode_basestring_ascii(node_id)
    return json.dumps(_encode_id(node_id), indent=2).replace("\n", "\n      ")


def save_solution(solution: Solution, path: Union[str, Path]) -> Path:
    """Write a solution to a ``.json`` file; returns the path."""
    path = Path(path)
    path.write_text(solution_to_json(solution), encoding="utf-8")
    return path
