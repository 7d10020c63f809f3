"""Chaos smoke: a seeded fault plan against a real sweep, end to end.

The CI guard for the fault-tolerance subsystem.  One scripted run suffers

* a worker crash mid-chunk (the parent's re-dispatch path runs for real),
* a transient solver error on the first attempt of one job (retried), and
* a corrupted result-cache entry (quarantined and recomputed on re-read),

and the script asserts that (a) the surviving records are bitwise-identical
to a fault-free run of the same batch, and (b) every recovery counter the
faults should trip is nonzero — a fault harness that silently stops firing
is itself a bug.

A second phase kills a sweep for real: a child process runs the batch
serially into a cache directory and hangs on the last instance's jobs; once
the earlier jobs' entries are on disk it gets SIGKILL, and a re-run with the
same cache directory must execute exactly the unfinished tail and return the
fault-free records.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.engine import ParallelExecutor, ResultCache, RetryPolicy, ratio_sweep_batch, run_batch
from repro.faults import CacheFault, FaultPlan, crash, hang, transient
from repro.generators import random_special_form_instance

#: How long the parent waits for the killed child's finished entries.
KILL_WAIT_S = 60.0


def smoke_batch():
    instances = [
        random_special_form_instance(10 + 2 * i, delta_K=3, constraint_rounds=1, seed=i)
        for i in range(3)
    ]
    return ratio_sweep_batch(instances, R_values=(2, 3), include_safe=True)


def tail_start(batch) -> int:
    """Index of the first job of the last instance (the tail the kill loses)."""
    return batch.owners.index(batch.owners[-1])


def run_killable_child(cache_dir: str) -> None:
    """Child side of the kill phase: a serial run that hangs on the tail."""
    batch = smoke_batch()
    digest = batch.jobs[-1].instance_digest[:12]
    plan = FaultPlan(job_faults=(hang(600.0, digest_prefix=digest, attempts=None),))
    run_batch(batch, cache_dir=cache_dir, faults=plan)


def kill_and_resume(batch, base_json: str, cache_dir: Path) -> list:
    """SIGKILL a sweep mid-run, then resume it from its cache directory."""
    failures = []
    finished = tail_start(batch)
    script = str(Path(__file__).resolve())
    child = subprocess.Popen([sys.executable, script, "--killable-child", str(cache_dir)])
    try:
        deadline = time.monotonic() + KILL_WAIT_S
        entries = 0
        while time.monotonic() < deadline and child.poll() is None:
            entries = sum(1 for _ in cache_dir.glob("??/*.json"))
            if entries >= finished:
                break
            time.sleep(0.05)
        if child.poll() is not None:
            failures.append(f"the killable child exited early with code {child.returncode}")
        elif entries < finished:
            failures.append(
                f"only {entries} of {finished} entries after {KILL_WAIT_S:.0f}s; "
                "the killable child never reached its hang"
            )
    finally:
        child.kill()  # SIGKILL: no cleanup runs in the child
        child.wait()
    print(f"killed the sweep with {entries} of {len(batch.jobs)} jobs cached")

    resumed = run_batch(batch, cache_dir=cache_dir)
    tail = len(batch.jobs) - finished
    if json.dumps(resumed.records) != base_json:
        failures.append("resumed records differ from the fault-free baseline")
    if resumed.executed_jobs != tail or resumed.cached_jobs != finished:
        failures.append(
            f"resume executed {resumed.executed_jobs} and read {resumed.cached_jobs} "
            f"from the cache; expected {tail} and {finished}"
        )
    print(f"resume: {resumed.executed_jobs} executed, {resumed.cached_jobs} cached")
    return failures


def main() -> int:
    batch = smoke_batch()
    baseline = run_batch(batch)
    base_json = json.dumps(baseline.records)
    print(f"baseline: {len(batch.jobs)} jobs, {len(baseline.records)} records")

    plan = FaultPlan(
        seed=7,
        job_faults=(
            crash(algorithm="safe", digest_prefix=batch.jobs[2].instance_digest[:12], attempts=(0,)),
            transient(
                algorithm="safe", digest_prefix=batch.jobs[5].instance_digest[:12], attempts=(0,)
            ),
        ),
        cache_faults=(CacheFault(mode="truncate", times=1),),
    )
    print(f"injecting: {plan.describe()}")

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        cache_root = Path(tmp) / "cache"
        obs.configure(enabled=True)
        mark = obs.counters_mark()
        chaos = run_batch(
            batch,
            executor=ParallelExecutor(max_workers=2, chunk_size=1),
            cache=ResultCache(cache_root, faults=plan),
            faults=plan,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
        )
        counters = obs.counters_since(mark)

        if json.dumps(chaos.records) != base_json:
            failures.append("chaos records differ from the fault-free baseline")
        if chaos.failed_jobs:
            failures.append(f"{len(chaos.failed_jobs)} jobs failed; expected full recovery")
        for name in ("engine.retries", "engine.redispatches", "faults.transient"):
            if counters.get(name, 0) <= 0:
                failures.append(f"counter {name} did not fire")

        # The corrupted entry is only discovered when the cache is re-read.
        mark = obs.counters_mark()
        verify_cache = ResultCache(cache_root)
        second = run_batch(batch, cache=verify_cache)
        counters2 = obs.counters_since(mark)
        obs.configure(enabled=False)

        if json.dumps(second.records) != base_json:
            failures.append("post-corruption re-run records differ from baseline")
        if counters2.get("cache.corrupt", 0) != 1:
            failures.append(
                f"expected exactly 1 corrupt cache entry, saw {counters2.get('cache.corrupt', 0)}"
            )

        recovery = {
            name: int(counters.get(name, 0))
            for name in ("engine.retries", "engine.redispatches", "faults.transient")
        }
        recovery["cache.corrupt"] = int(counters2.get("cache.corrupt", 0))
        print("recovery counters:", json.dumps(recovery))

        failures.extend(kill_and_resume(batch, base_json, Path(tmp) / "killed"))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "chaos smoke OK: records bitwise-identical under crash+transient+corruption "
        "and after kill -9 + resume"
    )
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--killable-child"]:
        run_killable_child(sys.argv[2])
        sys.exit(0)
    sys.exit(main())
