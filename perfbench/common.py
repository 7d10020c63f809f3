"""Shared pieces of the benchmark: paths, child processes, statistics, spans.

Everything here is stdlib only, so ``run.py`` can report a missing source
tree before it imports anything from ``repro``.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

#: Wall clock shared by this process and its children (CLOCK_MONOTONIC), so
#: spans recorded in a child line up with spans recorded here.
now = time.monotonic


class Context:
    """One run's settings: seed, window length, scratch dir and, if traced, the tracer."""

    __slots__ = ("seed", "seconds", "workdir", "tracer")

    def __init__(self, seed: int, seconds: float, workdir: Path, tracer: Optional["Tracer"]):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer

    @property
    def trace(self) -> bool:
        return self.tracer is not None


class Outcome:
    """What a workload reports: op counts, metric values and printed notes."""

    __slots__ = ("attempted", "failed", "metrics", "notes")

    def __init__(self, attempted: int, failed: int, metrics: Dict[str, float], notes: Dict[str, object]):
        self.attempted = attempted
        self.failed = failed
        self.metrics = metrics
        self.notes = notes


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class ChildResult:
    """Outcome of one child process: exit code, stdout, peak RSS, wall time."""

    __slots__ = ("returncode", "stdout", "peak_rss_mb", "start", "end")

    def __init__(self, returncode: int, stdout: bytes, peak_rss_mb: float, start: float, end: float):
        self.returncode = returncode
        self.stdout = stdout
        self.peak_rss_mb = peak_rss_mb
        self.start = start
        self.end = end

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(argv: Sequence[str], stderr_path: Path, timeout_s: float = 120.0) -> ChildResult:
    """Run one child to completion and read its own peak RSS from ``wait4``.

    ``wait4`` returns the rusage of exactly this child, unlike the
    cumulative ``RUSAGE_CHILDREN`` maximum.  stdout must stay small (it is
    read before the wait); stderr goes to ``stderr_path``.
    """
    with open(stderr_path, "ab") as err:
        start = now()
        proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE, stderr=err, env=child_env())
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            end = now()
        finally:
            timer.cancel()
        # The child is reaped; tell Popen so it never waits on the pid again.
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, usage.ru_maxrss / 1024.0, start, end)


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def run_worker(ctx: "Context", module: str) -> "Outcome":
    """Run ``module.work`` in a child interpreter (``worker.py``).

    The untraced outcome gains ``peak_rss_mb``, the child's own peak RSS.
    The child's spans, if traced, are adopted into ``ctx.tracer``.
    """
    argv = python_argv(
        str(BENCH_DIR / "worker.py"),
        module,
        str(ctx.workdir),
        str(ctx.seed),
        repr(ctx.seconds),
        "1" if ctx.trace else "0",
    )
    res = run_child(argv, ctx.workdir / "stderr.txt", timeout_s=150.0)
    if res.returncode != 0:
        err = (ctx.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"{module} worker exited with {res.returncode}:\n{err[-2000:]}")
    payload = json.loads(res.stdout.decode("utf-8").strip().splitlines()[-1])
    spans = payload.pop("spans")
    if ctx.tracer is not None:
        ctx.tracer.adopt(spans)
    metrics = payload["metrics"]
    if not ctx.trace:
        metrics["peak_rss_mb"] = res.peak_rss_mb
    return Outcome(payload["attempted"], payload["failed"], metrics, payload["notes"])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail(values: Sequence[float], pct: float) -> Tuple[float, int, int]:
    """``(value at pct, samples, samples strictly beyond that value)``."""
    value = percentile(values, pct)
    return value, len(values), sum(1 for v in values if v > value)


# ----------------------------------------------------------------------
# CPU steal
# ----------------------------------------------------------------------

#: A slice of the window in which the hypervisor took more than this share
#: of the machine's CPU time is left out of the end-to-end metrics.
STEAL_MAX = 0.05


def _cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` ticks over all CPUs from ``/proc/stat``; ``(0, 0)`` without it."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class StealMeter:
    """Splits a measurement window into slices and keeps the quiet ones.

    On a shared virtual machine the hypervisor can take the CPUs away for
    seconds at a time (``steal`` in ``/proc/stat``), and every op in that
    stretch runs slower.  The meter marks a slice boundary once ``slice_s``
    has passed (call :meth:`poll` between ops, and :meth:`mark` at the end
    of the window).  Slices whose steal share is at most :data:`STEAL_MAX`
    are kept; if they cover less than half of the window, the quietest
    slices that cover half are kept instead.  An op belongs to the slice
    in which it ended.
    """

    def __init__(self, slice_s: float = 1.0) -> None:
        self.slice_s = slice_s
        self.marks = [(now(), *_cpu_ticks())]

    def poll(self) -> None:
        if now() - self.marks[-1][0] >= self.slice_s:
            self.mark()

    def mark(self) -> None:
        self.marks.append((now(), *_cpu_ticks()))

    def _slices(self) -> Tuple[List[float], List[float], List[bool]]:
        """Per slice: duration, steal share, kept."""
        durations, shares = [], []
        for (t0, s0, n0), (t1, s1, n1) in zip(self.marks, self.marks[1:]):
            durations.append(t1 - t0)
            shares.append((s1 - s0) / (n1 - n0) if n1 > n0 else 0.0)
        keep = [share <= STEAL_MAX for share in shares]
        half = sum(durations) / 2.0
        if sum(d for d, k in zip(durations, keep) if k) < half:
            keep = [False] * len(shares)
            covered = 0.0
            for i in sorted(range(len(shares)), key=shares.__getitem__):
                if covered >= half:
                    break
                keep[i] = True
                covered += durations[i]
        return durations, shares, keep

    def select(self, ends: Sequence[float]) -> Tuple[List[bool], float]:
        """``(mask of the ops, by end time, that ended in a kept slice, kept wall time)``."""
        durations, _, keep = self._slices()
        bounds = [mark[0] for mark in self.marks]
        mask = []
        for end in ends:
            i = bisect.bisect_left(bounds, end) - 1  # slice i is (bounds[i], bounds[i+1]]
            mask.append(0 <= i < len(keep) and keep[i])
        return mask, sum(d for d, k in zip(durations, keep) if k)

    def summary(self, all_ms: Sequence[float]) -> str:
        """One line: slices kept, steal shares, and the op p50 with no slice dropped."""
        _, shares, keep = self._slices()
        if not shares:
            return "no slices"
        return (
            f"{sum(keep)}/{len(keep)} slices of ~{self.slice_s:g} s kept; steal share "
            f"median {median(shares):.3f}, max {max(shares):.3f}, limit {STEAL_MAX:g}; "
            f"op p50 over all {len(all_ms)} ops {median(all_ms):.4g} ms"
        )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent), written once at the end.

    A span opened with :meth:`span` nests under the innermost open one.
    Single-threaded: threaded callers hand their timings to one thread,
    which records them with :meth:`add`.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Record a finished span (e.g. one reported by a child process)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}
        )
        return span_id

    def adopt(self, spans: List[Dict[str, object]], parent: Optional[int] = None) -> None:
        """Add spans recorded by a child, keeping their nesting, under ``parent``."""
        offset = len(self.spans)
        for record in spans:
            up = record["parent"]
            self.add(
                record["name"],
                record["start"],
                record["end"],
                parent=parent if up is None else up + offset,
                **record["attrs"],
            )

    def span(self, name: str, **attrs: object) -> "_OpenSpan":
        return _OpenSpan(self, name, attrs)

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}), encoding="utf-8")


class _OpenSpan:
    __slots__ = ("tracer", "name", "attrs", "id", "start")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = -1
        self.start = 0.0

    def __enter__(self) -> "_OpenSpan":
        self.id = self.tracer.add(self.name, 0.0, 0.0, **self.attrs)
        self.tracer._stack.append(self.id)
        self.start = now()
        return self

    def __exit__(self, *exc) -> bool:
        end = now()
        record = self.tracer.spans[self.id]
        record["start"] = self.start
        record["end"] = end
        self.tracer._stack.pop()
        return False

    @property
    def duration_s(self) -> float:
        record = self.tracer.spans[self.id]
        return record["end"] - record["start"]


def exclusive_ms(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Per span name, the summed time (ms) its spans spent outside child spans.

    The values add up to the summed duration of the top-level spans, so a
    layer called from inside another is counted once, by its own name.
    """
    own = {}
    for record in spans:
        own[record["id"]] = record["end"] - record["start"]
    for record in spans:
        if record["parent"] is not None:
            own[record["parent"]] -= record["end"] - record["start"]
    totals: Dict[str, float] = {}
    for record in spans:
        totals[record["name"]] = totals.get(record["name"], 0.0) + own[record["id"]] * 1000.0
    return totals


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text(encoding="utf-8").strip()
            packed = git / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def env_stamp(seed: int) -> Dict[str, object]:
    """What a claim against a run names: commit, versions, cores, seed."""
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }
