"""Fault-injection harness and resilient-engine contracts.

The contracts, in decreasing order of importance:

* **Chaos equivalence** — a seeded sweep that suffers a worker crash, a
  transient solver error and a corrupted cache entry produces records
  bitwise-identical to the fault-free run, with the recovery counters
  (``engine.retries`` / ``engine.redispatches`` / ``cache.corrupt``)
  proving the faults actually fired.
* **Containment** — a poison job (crashes every worker it touches) becomes
  a structured failure; its sibling jobs still complete.
* **Resumability** — a sweep re-run with the same cache directory
  executes only the jobs it has no entry for (``maxmin-lp sweep
  --cache-dir`` here; ``benchmarks/chaos_smoke.py`` SIGKILLs a real run).
* **Cache integrity** — truncated or bit-flipped entries are quarantined
  and recomputed, never served; an entry is fsynced before it becomes
  visible, and same-key writers never tear each other's files.
* **Runtime guards** — non-finite values on the vectorized wire raise with
  round/agent attribution; injected message drops are deterministic.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.distributed import (
    MessagePlane,
    ResilientRuntime,
    SynchronousRuntime,
    require_agent_outputs,
)
from repro.distributed import safe_agents as safe_agents_mod
from repro.engine import (
    BatchSpec,
    JobSpec,
    ParallelExecutor,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    ratio_sweep_batch,
    registry,
    run_batch,
)
from repro.exceptions import EngineError, FaultInjectionError, SerializationError, SimulationError
from repro.faults import CacheFault, FaultPlan, JobFault, MessageFault, crash, hang, transient
from repro.generators import cycle_instance, random_special_form_instance


@pytest.fixture(autouse=True)
def _obs_clean():
    yield
    obs.configure(enabled=False)
    obs.reset()


def small_instances():
    return [
        random_special_form_instance(8 + 2 * i, delta_K=3, constraint_rounds=1, seed=i)
        for i in range(3)
    ]


def small_batch(instances=None):
    return ratio_sweep_batch(instances or small_instances(), R_values=(2,), include_safe=True)


# ----------------------------------------------------------------------
# Fault plans: validation and determinism
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_job_fault_validation(self):
        with pytest.raises(EngineError):
            JobFault(kind="meteor-strike")
        with pytest.raises(EngineError):
            JobFault(kind="hang", hang_s=0.0)

    def test_cache_fault_validation(self):
        with pytest.raises(EngineError):
            CacheFault(mode="scramble")
        with pytest.raises(EngineError):
            CacheFault(times=0)

    def test_message_fault_validation(self):
        with pytest.raises(EngineError):
            MessageFault(round_number=0)
        with pytest.raises(EngineError):
            MessageFault(round_number=1, fraction=1.5)

    def test_job_fault_matching(self):
        fault = transient(algorithm="local", digest_prefix="ab", params=(("R", 3),))
        assert fault.matches("local", "abc123", {"R": 3, "tu_method": "recursion"})
        assert not fault.matches("safe", "abc123", {"R": 3})
        assert not fault.matches("local", "zzz", {"R": 3})
        assert not fault.matches("local", "abc123", {"R": 2})
        assert fault.fires_on(0) and not fault.fires_on(1)
        assert transient(attempts=None).fires_on(41)  # poison: every attempt

    def test_dropped_slots_deterministic_across_injectors(self):
        plan = FaultPlan(seed=5, message_faults=(MessageFault(round_number=2, fraction=0.4),))
        a = plan.injector().dropped_slots(2, 50)
        b = plan.injector().dropped_slots(2, 50)
        assert a == b and a  # same sample from the same (seed, round)
        assert plan.injector().dropped_slots(1, 50) is None  # other rounds untouched

    def test_plan_is_picklable_and_describes_itself(self):
        import pickle

        plan = FaultPlan(seed=1, job_faults=(crash(), hang(0.1), transient()))
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert "jobs=3" in plan.describe()


# ----------------------------------------------------------------------
# The headline acceptance test: chaos equivalence
# ----------------------------------------------------------------------


class TestChaosEquivalence:
    def test_faulted_sweep_matches_fault_free_run_bitwise(self, tmp_path):
        instances = small_instances()
        batch = small_batch(instances)
        baseline = run_batch(batch)
        base_json = json.dumps(baseline.records)

        # One worker crash (safe job of instance 0), one transient solver
        # error (safe job of instance 1), one corrupted cache entry.
        digest0 = batch.jobs[1].instance_digest[:12]
        digest1 = batch.jobs[3].instance_digest[:12]
        plan = FaultPlan(
            seed=7,
            job_faults=(
                crash(algorithm="safe", digest_prefix=digest0, attempts=(0,)),
                transient(algorithm="safe", digest_prefix=digest1, attempts=(0,)),
            ),
            cache_faults=(CacheFault(mode="truncate", times=1),),
        )

        obs.configure(enabled=True)
        mark = obs.counters_mark()
        chaos = run_batch(
            batch,
            executor=ParallelExecutor(max_workers=2, chunk_size=1),
            cache=ResultCache(tmp_path / "cache", faults=plan),
            faults=plan,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
        )
        counters = obs.counters_since(mark)
        assert json.dumps(chaos.records) == base_json
        assert counters.get("engine.retries", 0) > 0
        assert counters.get("engine.redispatches", 0) > 0
        assert counters.get("faults.transient", 0) > 0

        # The corrupted entry is caught on the next run: quarantined,
        # recomputed, and the records still match the fault-free baseline.
        mark = obs.counters_mark()
        verify_cache = ResultCache(tmp_path / "cache")
        second = run_batch(batch, cache=verify_cache)
        counters = obs.counters_since(mark)
        assert json.dumps(second.records) == base_json
        assert verify_cache.corrupt == 1
        assert counters.get("cache.corrupt", 0) == 1
        assert len(list((tmp_path / "cache" / "corrupt").glob("*.json"))) == 1


# ----------------------------------------------------------------------
# Retries, timeouts, degradation (serial path)
# ----------------------------------------------------------------------


class TestResilientExecution:
    def test_transient_fault_is_retried_to_success(self):
        batch = small_batch()
        baseline = run_batch(batch)
        plan = FaultPlan(job_faults=(transient(algorithm="safe", attempts=(0, 1)),))
        result = run_batch(
            batch, faults=plan, retry=RetryPolicy(max_retries=2, backoff_base_s=0.0)
        )
        assert result.records == baseline.records
        safe_results = [r for r in result.results if r.spec.algorithm == "safe"]
        assert all(r.attempts == 3 for r in safe_results)
        assert result.metrics["retries"] == 6  # 2 recoveries x 3 safe jobs

    def test_hang_blows_deadline_then_retry_succeeds(self):
        batch = small_batch(small_instances()[:1])
        baseline = run_batch(batch)
        plan = FaultPlan(job_faults=(hang(5.0, algorithm="safe", attempts=(0,)),))
        result = run_batch(
            batch,
            faults=plan,
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            timeout_s=0.2,
        )
        assert result.records == baseline.records
        (safe_result,) = [r for r in result.results if r.spec.algorithm == "safe"]
        assert safe_result.attempts == 2
        assert safe_result.metrics["timeouts"] == 1
        assert result.metrics["timeouts"] == 1

    def test_exhausted_retries_raise_by_default(self):
        batch = small_batch(small_instances()[:1])
        plan = FaultPlan(job_faults=(transient(algorithm="safe", attempts=None),))
        with pytest.raises(FaultInjectionError):
            run_batch(batch, faults=plan, retry=RetryPolicy(max_retries=1, backoff_base_s=0.0))

    def test_exhausted_retries_recorded_with_on_error_record(self):
        batch = small_batch()
        baseline = run_batch(batch)
        plan = FaultPlan(job_faults=(transient(algorithm="safe", attempts=None),))
        result = run_batch(
            batch,
            faults=plan,
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            on_error="record",
        )
        failed = result.failed_jobs
        assert len(failed) == 3  # every safe job
        for job in failed:
            assert job.error["type"] == "FaultInjectionError"
            assert job.records == [] and job.attempts == 2
        survivors = [rec for r in result.results if not r.failed for rec in r.records]
        expected = [
            rec
            for r in baseline.results
            if r.spec.algorithm != "safe"
            for rec in r.records
        ]
        assert survivors == expected
        assert result.metrics["failed"] == 3

    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ParallelExecutor(max_workers=2, chunk_size=1)],
        ids=["serial", "parallel"],
    )
    def test_on_error_record_needs_no_policy(self, executor):
        """Without a retry policy, deadline or fault plan a failing job is
        still recorded, and its healthy siblings' records come back; with
        the default ``on_error="raise"`` the job's own exception surfaces."""
        healthy = small_batch(small_instances()[:1])
        broken = JobSpec(instance_json="{}", instance_digest="0" * 64, algorithm="safe")
        batch = BatchSpec(jobs=healthy.jobs + [broken], owners=healthy.owners + [1])
        result = run_batch(batch, executor=executor, on_error="record")
        (failed,) = result.failed_jobs
        assert failed.spec == broken and failed.records == [] and failed.attempts == 1
        assert failed.error["type"] == "SerializationError"
        assert result.records == run_batch(healthy).records
        assert result.metrics["failed"] == 1
        with pytest.raises(SerializationError):
            run_batch(batch, executor=executor)

    def test_raise_stops_a_parallel_batch_at_the_failure(self, tmp_path):
        """Under the default ``on_error="raise"`` a failure raises as soon as
        its result lands: no later result is stored, and the pool cancels
        the chunks that have not started.  Every job sleeps first, so most
        of the batch is still queued when the failure lands."""
        healthy = ratio_sweep_batch(
            [random_special_form_instance(8 + i, delta_K=3, seed=i) for i in range(6)],
            R_values=(2,),
            include_safe=True,
        )
        broken = JobSpec(instance_json="{}", instance_digest="0" * 64, algorithm="safe")
        batch = BatchSpec(
            jobs=healthy.jobs[:1] + [broken] + healthy.jobs[1:],
            owners=healthy.owners[:1] + [6] + healthy.owners[1:],
        )
        with pytest.raises(SerializationError):
            run_batch(
                batch,
                executor=ParallelExecutor(max_workers=2, chunk_size=1),
                cache_dir=tmp_path,
                faults=FaultPlan(job_faults=(hang(0.1),)),
            )
        # Only the job ahead of the failure was stored, of 12 healthy ones.
        assert ResultCache(tmp_path).stats()["entries"] == 1

    def test_retry_policy_validation_and_deterministic_jitter(self):
        with pytest.raises(EngineError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(EngineError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(EngineError):
            RetryPolicy(backoff_factor=0.5)
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.2)
        delays = [policy.delay_s("digest", attempt) for attempt in range(3)]
        assert delays == [policy.delay_s("digest", attempt) for attempt in range(3)]
        for attempt, delay in enumerate(delays):
            base = 0.1 * 2.0 ** attempt
            assert base * 0.8 <= delay <= base * 1.2
        assert policy.delay_s("digest", 0) != policy.delay_s("other", 0)


# ----------------------------------------------------------------------
# Worker-crash recovery and poison quarantine (parallel path)
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_crashed_chunk_is_redispatched(self):
        batch = small_batch()
        baseline = run_batch(batch)
        plan = FaultPlan(job_faults=(crash(algorithm="safe", attempts=(0,)),))
        obs.configure(enabled=True)
        mark = obs.counters_mark()
        result = run_batch(
            batch, executor=ParallelExecutor(max_workers=2, chunk_size=2), faults=plan
        )
        counters = obs.counters_since(mark)
        assert json.dumps(result.records) == json.dumps(baseline.records)
        assert counters.get("engine.redispatches", 0) > 0
        assert result.metrics["redispatches"] > 0

    def test_poison_job_is_quarantined_and_siblings_complete(self):
        batch = small_batch()
        baseline = run_batch(batch)
        poison_digest = batch.jobs[1].instance_digest[:12]
        plan = FaultPlan(
            job_faults=(crash(algorithm="safe", digest_prefix=poison_digest, attempts=None),)
        )
        obs.configure(enabled=True)
        mark = obs.counters_mark()
        result = run_batch(
            batch,
            executor=ParallelExecutor(max_workers=2, chunk_size=1),
            faults=plan,
            on_error="record",
        )
        counters = obs.counters_since(mark)
        (failed,) = result.failed_jobs
        assert failed.error["poison"] is True
        assert failed.error["type"] == "PoisonJobError"
        assert failed.spec.algorithm == "safe"
        assert failed.spec.instance_digest.startswith(poison_digest)
        assert counters.get("engine.poison_jobs", 0) == 1
        survivors = [rec for r in result.results if not r.failed for rec in r.records]
        expected = [
            rec for r in baseline.results if r.spec != failed.spec for rec in r.records
        ]
        assert survivors == expected

    def test_serial_executor_has_no_expendable_worker(self):
        # A crash fault in a serial executor surfaces as FaultInjectionError
        # (documented degradation) rather than killing the test process.
        batch = small_batch(small_instances()[:1])
        plan = FaultPlan(job_faults=(crash(algorithm="safe", attempts=None),))
        result = run_batch(batch, faults=plan, on_error="record")
        (failed,) = result.failed_jobs
        assert failed.error["type"] == "FaultInjectionError"


# ----------------------------------------------------------------------
# Cache integrity
# ----------------------------------------------------------------------


class TestCacheIntegrity:
    KEY = "ab" * 32

    def test_missing_entry_is_plain_miss_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(self.KEY) is None
        assert cache.misses == 1 and cache.corrupt == 0
        assert not (tmp_path / "cache" / "corrupt").exists()

    def test_truncated_entry_is_quarantined_and_heals(self, tmp_path):
        plan = FaultPlan(cache_faults=(CacheFault(mode="truncate", times=1),))
        writer = ResultCache(tmp_path / "cache", faults=plan)
        writer.put(self.KEY, [{"x": 1}])

        reader = ResultCache(tmp_path / "cache")
        obs.configure(enabled=True)
        mark = obs.counters_mark()
        assert reader.get(self.KEY) is None
        assert obs.counters_since(mark).get("cache.corrupt", 0) == 1
        assert reader.corrupt == 1 and reader.misses == 1
        assert (tmp_path / "cache" / "corrupt" / f"{self.KEY}.json").is_file()
        assert self.KEY not in reader
        # Self-heal: a clean rewrite hits again.
        reader.put(self.KEY, [{"x": 1}])
        assert reader.get(self.KEY) == [{"x": 1}]

    def test_bitflip_is_caught_by_checksum(self, tmp_path):
        plan = FaultPlan(seed=11, cache_faults=(CacheFault(mode="bitflip", times=1),))
        writer = ResultCache(tmp_path / "cache", faults=plan)
        writer.put(self.KEY, [{"utility": 0.25, "algorithm": "safe-degree"}])
        reader = ResultCache(tmp_path / "cache")
        assert reader.get(self.KEY) is None  # parseable or not, never served
        assert reader.corrupt == 1

    def test_stats_count_corruptions_and_exclude_quarantine(self, tmp_path):
        plan = FaultPlan(cache_faults=(CacheFault(mode="truncate", times=1),))
        cache = ResultCache(tmp_path / "cache", faults=plan)
        cache.put(self.KEY, [{"x": 1}])  # corrupted on disk
        cache.put("cd" * 32, [{"y": 2}])  # clean
        reader = ResultCache(tmp_path / "cache")
        assert reader.get(self.KEY) is None
        assert reader.get("cd" * 32) == [{"y": 2}]
        stats = reader.stats()
        assert stats["corrupt"] == 1 and stats["hits"] == 1
        assert stats["entries"] == 1  # the quarantined file is not an entry

    def test_old_version_entries_read_as_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "cache" / self.KEY[:2] / f"{self.KEY}.json"
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "format": "repro.engine-result",
                    "version": 1,
                    "key": self.KEY,
                    "records": [{"x": 1}],
                }
            )
        )
        assert cache.get(self.KEY) is None
        assert cache.corrupt == 0  # stale format, not corruption

    def test_put_fsyncs_its_temporary_file_before_replacing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        path = cache.put(self.KEY, [{"x": 1}])
        (fsync, inode), (replace, src_inode, dst) = events
        assert (fsync, replace) == ("fsync", "replace")
        assert inode == src_inode  # the synced file is the one moved into place
        assert dst == os.fspath(path)
        assert cache.get(self.KEY) == [{"x": 1}]

    def test_same_key_writers_and_a_reader_race_cleanly(self, tmp_path):
        """Threads storing one key while another reads it: no put raises and
        the reader never sees a torn entry (so nothing is quarantined)."""
        cache = ResultCache(tmp_path / "cache")
        records = [{"utility": 0.5, "algorithm": "safe-degree", "pad": "x" * 4096}]
        writers, puts = 4, 150
        start = threading.Barrier(writers + 1)
        done = threading.Event()
        errors = []
        reads = []

        def write():
            start.wait()
            try:
                for _ in range(puts):
                    cache.put(self.KEY, records)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        def read():
            start.wait()
            while not done.is_set():
                reads.append(cache.get(self.KEY))

        threads = [threading.Thread(target=write) for _ in range(writers)]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads + [reader]:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [reader])
        assert errors == []
        assert cache.corrupt == 0
        assert all(got is None or got == records for got in reads)
        assert cache.get(self.KEY) == records
        entry_dir = tmp_path / "cache" / self.KEY[:2]
        assert list(entry_dir.iterdir()) == [entry_dir / f"{self.KEY}.json"]  # no temp files left


# ----------------------------------------------------------------------
# Runtime guards (satellites)
# ----------------------------------------------------------------------


class _NaNAgentProtocol:
    """Minimal protocol: agent 0 sends one non-finite value in round 2."""

    def begin(self, plane):
        pass

    def compose(self, round_number, inbox_mask, inbox_values, plane):
        mask = np.zeros(plane.num_slots, dtype=bool)
        values = np.zeros(plane.num_slots)
        if round_number == 2:
            slot = int(plane.agent_indptr[0])  # agent 0's first port
            mask[slot] = True
            values[slot] = np.inf
        return mask, values

    def outputs(self, plane):
        return np.zeros(len(plane.comp.agents))


class TestRuntimeFaults:
    @pytest.mark.parametrize(
        "runtime_cls", [SynchronousRuntime, ResilientRuntime], ids=["plain", "resilient"]
    )
    def test_nonfinite_message_raises_with_round_and_agents(self, runtime_cls):
        instance = cycle_instance(6, coefficient_range=(0.5, 2.0), seed=3)
        plane = MessagePlane(instance)
        runtime = runtime_cls(plane)
        obs.configure(enabled=True)
        mark = obs.counters_mark()
        with pytest.raises(SimulationError, match=r"round 2.*NaN/inf") as excinfo:
            runtime.run(_NaNAgentProtocol(), rounds=3)
        assert repr(plane.comp.agents[0]) in str(excinfo.value)
        assert obs.counters_since(mark).get("runtime.nonfinite_messages", 0) == 1

    def test_message_drop_is_visible_to_the_protocol(self):
        instance = cycle_instance(6, coefficient_range=(0.5, 2.0), seed=3)
        plan = FaultPlan(seed=1, message_faults=(MessageFault(round_number=1, fraction=1.0),))
        runtime = SynchronousRuntime(MessagePlane(instance), faults=plan)
        obs.configure(enabled=True)
        mark = obs.counters_mark()
        # The safe protocol notices the missing inbox slots and refuses to
        # fabricate state — exactly the failure a lossy link should surface.
        with pytest.raises(SimulationError):
            runtime.run(
                safe_agents_mod.VectorizedSafeProtocol(),
                rounds=safe_agents_mod.SAFE_ALGORITHM_ROUNDS,
            )
        assert obs.counters_since(mark).get("faults.dropped_messages", 0) > 0

    def test_fault_free_plan_leaves_run_untouched(self):
        instance = cycle_instance(6, coefficient_range=(0.5, 2.0), seed=3)
        base = SynchronousRuntime(MessagePlane(instance)).run(
            safe_agents_mod.VectorizedSafeProtocol(),
            rounds=safe_agents_mod.SAFE_ALGORITHM_ROUNDS,
        )
        plan = FaultPlan(seed=1, message_faults=(MessageFault(round_number=99, fraction=1.0),))
        faulted = SynchronousRuntime(MessagePlane(instance), faults=plan).run(
            safe_agents_mod.VectorizedSafeProtocol(),
            rounds=safe_agents_mod.SAFE_ALGORITHM_ROUNDS,
        )
        assert faulted.outputs == base.outputs
        assert faulted.total_messages == base.total_messages

    def test_require_agent_outputs_partially_missing(self):
        instance = cycle_instance(5, seed=0)
        full = np.ones(instance.num_agents)
        partial = full.copy()
        partial[-2:] = np.nan
        with pytest.raises(SimulationError, match="2 agent"):
            require_agent_outputs(instance, partial)
        require_agent_outputs(instance, full)  # no raise


# ----------------------------------------------------------------------
# Validation edges (satellites)
# ----------------------------------------------------------------------


class TestValidation:
    def test_executor_configuration_negative_values(self):
        with pytest.raises(EngineError, match="max_workers"):
            ParallelExecutor(max_workers=-1)
        with pytest.raises(EngineError, match="chunk_size"):
            ParallelExecutor(chunk_size=-3)

    def test_run_batch_rejects_unknown_on_error(self):
        with pytest.raises(EngineError, match="on_error"):
            run_batch(small_batch(), on_error="explode")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e300], ids=["nan", "inf", "1e300"])
    def test_unusable_timeout_is_refused(self, bad):
        """A wait on NaN returns at once and one past ``threading.TIMEOUT_MAX``
        overflows: either would fail every attempt, so neither is accepted."""
        with pytest.raises(EngineError, match="timeout_s"):
            run_batch(small_batch(), timeout_s=bad)
        with pytest.raises(EngineError, match="timeout_s"):
            JobSpec(instance_json="{}", instance_digest="0" * 64, algorithm="safe", timeout_s=bad)

    def test_batched_dispatch_rejects_resilience_knobs(self):
        with pytest.raises(EngineError, match="batched"):
            run_batch(small_batch(), dispatch="batched", retry=RetryPolicy())
        with pytest.raises(EngineError, match="batched"):
            run_batch(small_batch(), dispatch="batched", faults=FaultPlan())
        with pytest.raises(EngineError, match="batched"):
            run_batch(small_batch(), dispatch="batched", timeout_s=1.0)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCLI:
    def test_sweep_resumes_from_cache_dir(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "sweep",
            "cycle",
            "--sizes",
            "6",
            "8",
            "--r-values",
            "2",
            "--retries",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 executed, 0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 cached" in second

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e300", "0", "-1"])
    def test_sweep_unusable_timeout_is_a_usage_error(self, bad, capsys, monkeypatch):
        import repro.analysis.sweeps as sweeps
        import repro.cli as cli

        def no_jobs(*args, **kwargs):
            raise AssertionError("the sweep ran")

        # ``_sweep`` imports the sweep runner when it runs, from its module.
        monkeypatch.setattr(sweeps, "run_ratio_sweep_batch", no_jobs)
        argv = ["sweep", "cycle", "--sizes", "6", "--r-values", "2", "--timeout-s", bad]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --timeout-s must be") and err.count("\n") == 1

    def test_sweep_exits_nonzero_when_jobs_fail(self, capsys, monkeypatch):
        """A sweep that records failed jobs must not exit 0 — partial results
        are not full success, and CI gates on the exit status."""
        from repro.cli import main

        def explode(spec):
            raise RuntimeError(f"injected failure for {spec.algorithm}")

        monkeypatch.setattr(registry, "execute_job", explode)
        args = [
            "sweep",
            "cycle",
            "--sizes",
            "6",
            "--r-values",
            "2",
            "--no-safe",
            "--retries",
            "0",
        ]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "failed jobs" in captured.err
        assert "RuntimeError" in captured.err
        assert "injected failure" in captured.err

    def test_sweep_partial_failure_also_exits_nonzero(self, capsys, monkeypatch):
        from repro.cli import main

        real_execute = registry.execute_job

        def flaky(spec):
            if dict(spec.params).get("R") == 3:
                raise RuntimeError("R=3 jobs poisoned")
            return real_execute(spec)

        monkeypatch.setattr(registry, "execute_job", flaky)
        args = [
            "sweep",
            "cycle",
            "--sizes",
            "6",
            "--r-values",
            "2",
            "3",
            "--no-safe",
            "--retries",
            "0",
        ]
        assert main(args) == 1
        captured = capsys.readouterr()
        # The surviving records still print before the failure report.
        assert "worst-case summary" in captured.out
        assert "failed jobs (1)" in captured.err
