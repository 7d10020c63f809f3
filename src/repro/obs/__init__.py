"""``repro.obs`` — dependency-free span tracing, counters and gauges.

The observability substrate for every solve path: the §5 kernels, the §4
transform pipeline, the exact LP, the preprocess peeler, the distributed
runtime and the batch engine all report through this module.  Four design
constraints shape it:

* **Near-zero overhead when off.**  Tracing is opt-in via
  :func:`configure`; while disabled, :func:`span` returns a shared no-op
  context manager and :func:`count`/:func:`gauge` return after one global
  flag test.  A tier-1 test guards the disabled-path overhead against a
  reference solve.
* **No dependencies.**  Pure stdlib (``time``, ``threading``); importable
  from worker processes and from the benchmarks without dragging in numpy
  or scipy.
* **Thread-safe.**  Each thread nests spans on its own stack, so a span
  opened on a server worker thread never adopts another thread's open
  span as its parent; span ids, counters and gauges update under one
  lock, so concurrent ``count()`` calls lose no increments.
* **Mergeable across processes.**  A worker's buffer is exported with
  :func:`snapshot` (plain JSON-compatible dicts), shipped back over the
  process-pool pickle channel and folded into the parent's collector with
  :func:`merge_snapshot` — deterministically, in the order the parent
  chooses (the engine merges in chunk-submission order).

Span records are flat dicts (``id``/``parent``/``name``/``start_s``/
``wall_s``/``cpu_s``/``attrs``/``proc``) kept in start order, which makes
the export trivially JSON-serializable and lets :func:`trace_payload`
derive a Chrome-trace-compatible event list (load the ``chrome_trace``
array in ``chrome://tracing`` or Perfetto) without a second bookkeeping
structure.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "configure",
    "enabled",
    "reset",
    "span",
    "count",
    "gauge",
    "snapshot",
    "counters_mark",
    "counters_since",
    "merge_snapshot",
    "trace_payload",
    "validate_trace",
    "validate_trace_file",
    "format_span_tree",
    "format_counter_table",
    "TRACE_FORMAT",
    "TRACE_VERSION",
]

TRACE_FORMAT = "repro.obs-trace"
TRACE_VERSION = 1


class _NullSpan:
    """The shared no-op returned by :func:`span` while tracing is disabled.

    A singleton with empty ``__enter__``/``__exit__`` keeps the disabled
    fast path to one flag test plus two trivial method calls — no object
    allocation, no clock reads.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: clocks started at ``__enter__``, closed at ``__exit__``.

    The record's keys are fixed at creation (only values change later), so
    a :func:`snapshot` taken on another thread can copy it at any time.
    """

    __slots__ = ("_collector", "_record", "_cpu0")

    def __init__(self, collector: "Collector", record: Dict[str, object]) -> None:
        self._collector = collector
        self._record = record
        self._cpu0 = 0.0

    def __enter__(self) -> "_Span":
        collector = self._collector
        record = self._record
        stack = collector.open_spans.ids
        record["parent"] = stack[-1] if stack else None
        collector.spans.append(record)
        stack.append(record["id"])
        record["start_s"] = time.perf_counter() - collector.origin
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> bool:
        record = self._record
        record["wall_s"] = (
            time.perf_counter() - self._collector.origin - record["start_s"]
        )
        record["cpu_s"] = time.process_time() - self._cpu0
        stack = self._collector.open_spans.ids
        # Tolerate exception-driven unwinding of inner spans.
        while stack and stack[-1] != record["id"]:
            stack.pop()
        if stack:
            stack.pop()
        return False

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self._record["attrs"].update(attrs)


class _OpenSpans(threading.local):
    """Ids of the spans open on the current thread, innermost last."""

    def __init__(self) -> None:
        self.ids: List[int] = []


class Collector:
    """The per-process trace buffer: spans in start order, counters, gauges.

    Each thread nests its spans on its own stack (``open_spans``); ``lock``
    guards span id allocation and every counter and gauge update.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict[str, object]] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.lock = threading.Lock()
        self.open_spans = _OpenSpans()
        self._next_id = 0

    def tables(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Consistent copies of the counters and the gauges."""
        with self.lock:
            return dict(self.counters), dict(self.gauges)

    def allocate_ids(self, n: int) -> int:
        """Reserve ``n`` consecutive span ids; returns the first."""
        with self.lock:
            first = self._next_id
            self._next_id += n
        return first

    def new_span(self, name: str, attrs: Dict[str, object]) -> _Span:
        record: Dict[str, object] = {
            "id": self.allocate_ids(1),
            "parent": None,
            "name": name,
            "start_s": 0.0,
            "wall_s": 0.0,
            "cpu_s": 0.0,
            "attrs": attrs,
            "proc": 0,
        }
        return _Span(self, record)


_enabled = False
_collector = Collector()


def _reinit_lock_after_fork() -> None:
    # A thread of the parent may have held the lock at fork time; the child
    # has no such thread, so it starts with a fresh lock (as ``logging`` does).
    _collector.lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_lock_after_fork)


def configure(*, enabled: bool) -> None:
    """Turn tracing on or off process-wide.  Enabling resets the buffer."""
    global _enabled
    if enabled and not _enabled:
        reset()
    _enabled = bool(enabled)


def enabled() -> bool:
    """Whether tracing is currently collecting."""
    return _enabled


def reset() -> None:
    """Drop every recorded span, counter and gauge."""
    global _collector
    _collector = Collector()


def span(name: str, **attrs):
    """A context manager timing the enclosed block as a named span.

    While tracing is disabled this returns a shared no-op object; while
    enabled it returns a live span nested under the innermost open span on
    this thread.  Use ``.set(key=value)`` on the returned object to attach
    attributes after entry::

        with obs.span("transform.reduce_degree", constraints=n) as sp:
            ...
            sp.set(added=extra)
    """
    if not _enabled:
        return _NULL_SPAN
    return _collector.new_span(name, dict(attrs))


def count(name: str, value: float = 1) -> None:
    """Add ``value`` to the named counter (no-op while disabled)."""
    if not _enabled:
        return
    collector = _collector
    with collector.lock:
        counters = collector.counters
        counters[name] = counters.get(name, 0) + value


def gauge(name: str, value: float) -> None:
    """Record the latest value of a named gauge (no-op while disabled)."""
    if not _enabled:
        return
    collector = _collector
    with collector.lock:
        collector.gauges[name] = value


def counters_mark() -> Dict[str, float]:
    """A snapshot of the current counter values, for later diffing."""
    return _collector.tables()[0]


def counters_since(mark: Dict[str, float]) -> Dict[str, float]:
    """Counter deltas accumulated since ``mark`` (zero deltas omitted)."""
    out: Dict[str, float] = {}
    for name, value in counters_mark().items():
        delta = value - mark.get(name, 0)
        if delta:
            out[name] = delta
    return out


def snapshot(reset_after: bool = False) -> Dict[str, object]:
    """Export the collector as a JSON-compatible payload.

    The payload is what :func:`merge_snapshot` accepts on the other side of
    a process boundary.  Open spans (still on the stack) are exported as-is
    with their current partial timings.
    """
    collector = _collector
    counters, gauges = collector.tables()
    payload = {
        "spans": [dict(record) for record in list(collector.spans)],
        "counters": counters,
        "gauges": gauges,
    }
    if reset_after:
        reset()
    return payload


def merge_snapshot(payload: Dict[str, object], proc: Optional[int] = None) -> None:
    """Fold a worker's :func:`snapshot` into this process's collector.

    Span ids are remapped to fresh local ids; the worker's root spans are
    attached under the innermost span open on the calling thread (so a
    parent-side ``engine.run_batch`` span adopts the workers' trees).
    Counters add, gauges overwrite — merging in a fixed order therefore
    yields a deterministic result.  ``proc`` labels the merged spans' virtual
    process lane (Chrome-trace ``tid``).
    """
    if not _enabled:
        return
    collector = _collector
    stack = collector.open_spans.ids
    attach_parent = stack[-1] if stack else None
    records = list(payload.get("spans", ()))
    next_id = collector.allocate_ids(len(records))
    id_map: Dict[int, int] = {}
    for record in records:
        new = dict(record)
        id_map[int(record["id"])] = next_id
        new["id"] = next_id
        next_id += 1
        old_parent = record.get("parent")
        if old_parent is None:
            new["parent"] = attach_parent
        else:
            new["parent"] = id_map.get(int(old_parent), attach_parent)
        if proc is not None:
            new["proc"] = proc
        collector.spans.append(new)
    with collector.lock:
        for name, value in payload.get("counters", {}).items():
            collector.counters[name] = collector.counters.get(name, 0) + value
        for name, value in payload.get("gauges", {}).items():
            collector.gauges[name] = value


# ----------------------------------------------------------------------
# Export: versioned trace payload + Chrome-trace event list
# ----------------------------------------------------------------------


def trace_payload(meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The versioned JSON trace: one record per span, plus a Chrome view.

    ``chrome_trace`` is a list of complete-duration (``"ph": "X"``) events
    in the Trace Event Format; ``ts``/``dur`` are microseconds.  Load it
    directly in ``chrome://tracing`` or Perfetto.
    """
    snap = snapshot()
    chrome = [
        {
            "name": record["name"],
            "ph": "X",
            "ts": round(record["start_s"] * 1e6, 3),
            "dur": round(record["wall_s"] * 1e6, 3),
            "pid": 0,
            "tid": record.get("proc", 0),
            "args": record["attrs"],
        }
        for record in snap["spans"]
    ]
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "meta": dict(meta or {}),
        "spans": snap["spans"],
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "chrome_trace": chrome,
    }


_SPAN_FIELDS = {
    "id": int,
    "name": str,
    "start_s": (int, float),
    "wall_s": (int, float),
    "cpu_s": (int, float),
    "attrs": dict,
    "proc": int,
}


def validate_trace(payload: object) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a valid v1 trace."""
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    if payload.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"trace format must be {TRACE_FORMAT!r}, got {payload.get('format')!r}"
        )
    if payload.get("version") != TRACE_VERSION:
        raise ValueError(
            f"trace version must be {TRACE_VERSION}, got {payload.get('version')!r}"
        )
    spans = payload.get("spans")
    if not isinstance(spans, list):
        raise ValueError("trace 'spans' must be a list")
    ids = set()
    for record in spans:
        if not isinstance(record, dict):
            raise ValueError("every span must be a JSON object")
        for field, kind in _SPAN_FIELDS.items():
            if field not in record:
                raise ValueError(f"span missing required field {field!r}")
            if not isinstance(record[field], kind) or isinstance(record[field], bool):
                raise ValueError(f"span field {field!r} has wrong type")
        parent = record.get("parent")
        if parent is not None and (isinstance(parent, bool) or not isinstance(parent, int)):
            raise ValueError("span 'parent' must be null or an integer id")
        if parent is not None and parent not in ids:
            raise ValueError(f"span {record['id']} references unknown parent {parent}")
        if record["id"] in ids:
            raise ValueError(f"duplicate span id {record['id']}")
        ids.add(record["id"])
    for section in ("counters", "gauges"):
        table = payload.get(section)
        if not isinstance(table, dict):
            raise ValueError(f"trace {section!r} must be an object")
        for name, value in table.items():
            if not isinstance(name, str) or isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ValueError(f"{section} entry {name!r} must map a string to a number")
    chrome = payload.get("chrome_trace")
    if not isinstance(chrome, list) or len(chrome) != len(spans):
        raise ValueError("'chrome_trace' must list exactly one event per span")
    for event in chrome:
        if not isinstance(event, dict) or event.get("ph") != "X":
            raise ValueError("chrome_trace events must be complete ('ph': 'X') events")


def validate_trace_file(path) -> Dict[str, object]:
    """Load a trace JSON file, validate it and return the payload."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_trace(payload)
    return payload


# ----------------------------------------------------------------------
# Rendering: span tree and counter table for ``--profile``
# ----------------------------------------------------------------------


def _aggregate_paths(
    spans: List[Dict[str, object]]
) -> List[Tuple[Tuple[str, ...], int, float, float]]:
    """Aggregate spans by name-path: (path, calls, total wall, total cpu)."""
    by_id = {record["id"]: record for record in spans}

    def path_of(record: Dict[str, object]) -> Tuple[str, ...]:
        parts: List[str] = []
        seen = set()
        node: Optional[Dict[str, object]] = record
        while node is not None and node["id"] not in seen:
            seen.add(node["id"])
            parts.append(node["name"])
            parent = node.get("parent")
            node = by_id.get(parent) if parent is not None else None
        return tuple(reversed(parts))

    order: List[Tuple[str, ...]] = []
    stats: Dict[Tuple[str, ...], List[float]] = {}
    for record in spans:
        path = path_of(record)
        if path not in stats:
            stats[path] = [0, 0.0, 0.0]
            order.append(path)
        entry = stats[path]
        entry[0] += 1
        entry[1] += record["wall_s"]
        entry[2] += record["cpu_s"]
    return [(path, int(s[0]), s[1], s[2]) for path, s in ((p, stats[p]) for p in order)]


def format_span_tree() -> str:
    """The collected spans as an indented tree, aggregated per call path."""
    rows = _aggregate_paths(list(_collector.spans))
    if not rows:
        return "(no spans recorded)"
    lines = [f"{'span':<46} {'calls':>6} {'wall':>10} {'cpu':>10}"]
    for path, calls, wall, cpu in rows:
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<46} {calls:>6} {wall * 1e3:>8.2f}ms {cpu * 1e3:>8.2f}ms")
    return "\n".join(lines)


def format_counter_table() -> str:
    """The counters (and gauges) as an aligned two-column table."""
    counters, gauges = _collector.tables()
    if not counters and not gauges:
        return "(no counters recorded)"
    lines = []
    if counters:
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            value = counters[name]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{name:<{width}}  {text}")
    if gauges:
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"{name:<{width}}  {gauges[name]:g} (gauge)")
    return "\n".join(lines)
