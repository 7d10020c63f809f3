"""Tests for the batch-execution engine (:mod:`repro.engine`).

The engine's contracts, in decreasing order of importance:

* **Executor equivalence** — ``ParallelExecutor`` output is identical to
  ``SerialExecutor`` output (same records, same order) for any batch,
  checked here both on fixed families and property-style over randomly
  generated special-form instances.
* **Cache correctness** — hits return exactly what was computed; any change
  to the instance, the parameters or the solver version lands on a new key
  (content addressing means "invalidation" is just a different address); a
  warm cache performs zero solver calls.
* **Sweep fidelity** — :func:`repro.analysis.sweeps.run_ratio_sweep` through
  the engine reproduces the legacy serial loop record-for-record.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.ratios import compare_algorithms
from repro.analysis.sweeps import run_ratio_sweep, run_ratio_sweep_batch
from repro.cli import main as cli_main
from repro.engine import (
    BatchSpec,
    JobSpec,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    default_executor,
    execute_job,
    make_jobs_for_instance,
    ratio_sweep_batch,
    run_batch,
)
from repro.engine import registry
from repro.exceptions import EngineError
from repro.generators import cycle_instance, random_special_form_instance
from repro.io.serialization import instance_digest, instance_to_json

from conftest import special_form_family


def small_family():
    return [
        cycle_instance(5, coefficient_range=(0.5, 2.0), seed=1),
        cycle_instance(6),
        random_special_form_instance(10, delta_K=3, constraint_rounds=1, seed=2),
    ]


# ----------------------------------------------------------------------
# Instance hashing
# ----------------------------------------------------------------------


class TestInstanceDigest:
    def test_deterministic_and_json_equivalent(self, general_instance):
        digest = instance_digest(general_instance)
        assert digest == instance_digest(general_instance)
        assert digest == instance_digest(instance_to_json(general_instance))
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_sensitive_to_content(self, tiny_instance):
        from repro.core.builder import InstanceBuilder

        builder = InstanceBuilder(name="tiny")
        builder.add_constraint_term("i1", "a", 1.0)
        builder.add_constraint_term("i1", "b", 2.0)  # coefficient differs
        builder.add_objective_term("k1", "a", 1.0)
        builder.add_objective_term("k1", "b", 1.0)
        assert instance_digest(builder.build()) != instance_digest(tiny_instance)

    def test_sensitive_to_name(self, tiny_instance):
        renamed = tiny_instance.sub_instance(
            tiny_instance.agents, tiny_instance.constraints, tiny_instance.objectives,
            name="other-name",
        )
        assert instance_digest(renamed) != instance_digest(tiny_instance)


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------


class TestJobModel:
    def test_make_jobs_order_matches_compare_algorithms(self, special_form_cycle):
        jobs = make_jobs_for_instance(
            special_form_cycle, R_values=(2, 4), include_safe=True, include_optimum=True
        )
        assert [j.algorithm for j in jobs] == ["local", "local", "safe", "lp-optimum"]
        assert [dict(j.params).get("R") for j in jobs] == [2, 4, None, None]

    def test_cache_key_depends_on_version_params_instance(self, special_form_cycle, unit_cycle):
        [job] = make_jobs_for_instance(special_form_cycle, R_values=(3,), include_safe=False)
        assert job.cache_key("1") != job.cache_key("2")
        other_params = JobSpec(
            instance_json=job.instance_json,
            instance_digest=job.instance_digest,
            algorithm=job.algorithm,
            params=(("R", 4),),
        )
        assert other_params.cache_key("1") != job.cache_key("1")
        [other_inst] = make_jobs_for_instance(unit_cycle, R_values=(3,), include_safe=False)
        assert other_inst.cache_key("1") != job.cache_key("1")

    def test_execute_job_rejects_unknown_algorithm(self, tiny_instance):
        spec = JobSpec(
            instance_json=instance_to_json(tiny_instance),
            instance_digest=instance_digest(tiny_instance),
            algorithm="does-not-exist",
        )
        with pytest.raises(EngineError):
            execute_job(spec)

    def test_jobs_records_match_compare_algorithms(self, special_form_cycle):
        jobs = make_jobs_for_instance(
            special_form_cycle, R_values=(2, 3), include_safe=True, include_optimum=True
        )
        records = [record for job in jobs for record in execute_job(job)]
        expected = compare_algorithms(
            special_form_cycle, R_values=(2, 3), include_safe=True, include_optimum_row=True
        )
        assert records == expected


# ----------------------------------------------------------------------
# Executor equivalence
# ----------------------------------------------------------------------


class TestExecutorEquivalence:
    def test_identical_records_and_order_on_family(self):
        batch = ratio_sweep_batch(small_family(), R_values=(2, 3))
        serial = run_batch(batch, executor=SerialExecutor())
        parallel = run_batch(batch, executor=ParallelExecutor(max_workers=2, chunk_size=2))
        assert parallel.records == serial.records
        # Byte-identical once serialized, not merely == on floats.
        assert json.dumps(parallel.records) == json.dumps(serial.records)

    def test_chunking_preserves_order(self):
        batch = ratio_sweep_batch(special_form_family(), R_values=(2,), include_safe=False)
        serial = run_batch(batch, executor=SerialExecutor())
        for chunk_size in (1, 2, len(batch)):
            parallel = run_batch(
                batch, executor=ParallelExecutor(max_workers=3, chunk_size=chunk_size)
            )
            assert parallel.records == serial.records

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        agents=st.integers(min_value=6, max_value=14),
        seed=st.integers(min_value=0, max_value=10_000),
        R=st.sampled_from([2, 3]),
    )
    def test_property_parallel_equals_serial(self, agents, seed, R):
        instances = [
            random_special_form_instance(agents, delta_K=3, constraint_rounds=1, seed=seed),
            random_special_form_instance(agents + 2, delta_K=3, constraint_rounds=2, seed=seed + 1),
        ]
        batch = ratio_sweep_batch(instances, R_values=(R,), include_safe=True)
        serial = run_batch(batch, executor=SerialExecutor())
        parallel = run_batch(batch, executor=ParallelExecutor(max_workers=2, chunk_size=1))
        assert json.dumps(parallel.records) == json.dumps(serial.records)

    def test_default_executor_resolution(self):
        assert isinstance(default_executor(None), SerialExecutor)
        assert isinstance(default_executor(1), SerialExecutor)
        pool = default_executor(3)
        assert isinstance(pool, ParallelExecutor) and pool.max_workers == 3

    def test_invalid_executor_configuration(self):
        with pytest.raises(EngineError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(EngineError):
            ParallelExecutor(chunk_size=0)

    def test_empty_batch(self):
        result = run_batch(BatchSpec(), executor=ParallelExecutor(max_workers=2))
        assert result.records == [] and result.executed_jobs == 0

    def test_misbehaving_executor_is_rejected(self):
        class DropsOneOutput(SerialExecutor):
            def map_jobs(self, specs, **kwargs):
                records, metrics = super().map_jobs(specs, **kwargs)
                return records[:-1], metrics[:-1]

        batch = ratio_sweep_batch(small_family()[:1], R_values=(2,))
        with pytest.raises(EngineError, match="alignment"):
            run_batch(batch, executor=DropsOneOutput())


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_cold_then_warm(self, tmp_path):
        batch = ratio_sweep_batch(small_family(), R_values=(2, 3))
        cold = run_batch(batch, cache_dir=tmp_path)
        assert cold.executed_jobs == len(batch) and cold.cached_jobs == 0
        warm = run_batch(batch, cache_dir=tmp_path)
        assert warm.executed_jobs == 0 and warm.cached_jobs == len(batch)
        assert warm.records == cold.records
        assert all(result.from_cache for result in warm.results)

    def test_warm_cache_performs_zero_solver_calls(self, tmp_path, monkeypatch):
        batch = ratio_sweep_batch(small_family(), R_values=(2,))
        run_batch(batch, cache_dir=tmp_path)

        calls = []
        real_execute = registry.execute_job
        monkeypatch.setattr(
            registry, "execute_job", lambda spec: calls.append(spec) or real_execute(spec)
        )
        warm = run_batch(batch, cache_dir=tmp_path)
        assert calls == []
        assert warm.executed_jobs == 0

    def test_partial_hit_executes_only_new_jobs(self, tmp_path):
        family = small_family()
        run_batch(ratio_sweep_batch(family[:2], R_values=(2,)), cache_dir=tmp_path)
        mixed = run_batch(ratio_sweep_batch(family, R_values=(2,)), cache_dir=tmp_path)
        per_instance = 2  # local-R2 + safe
        assert mixed.cached_jobs == 2 * per_instance
        assert mixed.executed_jobs == 1 * per_instance
        # Cached and fresh results interleave back into canonical order.
        assert mixed.records == run_batch(ratio_sweep_batch(family, R_values=(2,))).records

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        batch = ratio_sweep_batch(small_family()[:1], R_values=(2,), include_safe=False)
        run_batch(batch, cache_dir=tmp_path)
        monkeypatch.setitem(registry.SOLVER_VERSIONS, "local", "test-bump")
        rerun = run_batch(batch, cache_dir=tmp_path)
        assert rerun.executed_jobs == len(batch) and rerun.cached_jobs == 0

    def test_parameter_change_misses(self, tmp_path):
        family = small_family()[:1]
        run_batch(ratio_sweep_batch(family, R_values=(2,), include_safe=False), cache_dir=tmp_path)
        other_R = run_batch(
            ratio_sweep_batch(family, R_values=(3,), include_safe=False), cache_dir=tmp_path
        )
        assert other_R.executed_jobs == 1

    def test_corrupt_entry_is_a_miss_and_self_heals(self, tmp_path):
        batch = ratio_sweep_batch(small_family()[:1], R_values=(2,), include_safe=False)
        first = run_batch(batch, cache_dir=tmp_path)
        entries = list(tmp_path.rglob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{ not json", encoding="utf-8")
        healed = run_batch(batch, cache_dir=tmp_path)
        assert healed.executed_jobs == 1
        assert healed.records == first.records
        assert run_batch(batch, cache_dir=tmp_path).executed_jobs == 0

    def test_invalid_utf8_entry_is_a_miss(self, tmp_path):
        batch = ratio_sweep_batch(small_family()[:1], R_values=(2,), include_safe=False)
        first = run_batch(batch, cache_dir=tmp_path)
        [entry] = list(tmp_path.rglob("*.json"))
        entry.write_bytes(b"\xff\xfe\x00garbage")
        healed = run_batch(batch, cache_dir=tmp_path)
        assert healed.executed_jobs == 1 and healed.records == first.records

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        batch = ratio_sweep_batch(small_family()[:1], R_values=(2,), include_safe=False)
        run_batch(batch, cache_dir=tmp_path)
        [entry] = list(tmp_path.rglob("*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["version"] = 999
        entry.write_text(json.dumps(payload), encoding="utf-8")
        assert run_batch(batch, cache_dir=tmp_path).executed_jobs == 1

    def test_cache_root_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("", encoding="utf-8")
        with pytest.raises(EngineError):
            ResultCache(not_a_dir)

    def test_records_json_roundtrip_preserves_values(self, tmp_path):
        cache = ResultCache(tmp_path)
        records = [{"x": 1, "ratio": float("inf"), "ok": True, "name": "α"}]
        cache.put("ab" + "0" * 62, records)
        assert cache.get("ab" + "0" * 62) == records
        assert cache.get("ff" + "0" * 62) is None
        assert cache.hits == 1 and cache.misses == 1


# ----------------------------------------------------------------------
# Sweep fidelity and CLI
# ----------------------------------------------------------------------


class TestSweepIntegration:
    def test_engine_sweep_matches_legacy_loop(self):
        instances = small_family()
        expected = []
        for instance in instances:
            expected.extend(compare_algorithms(instance, R_values=(2, 3), include_safe=True))
        assert run_ratio_sweep(instances, R_values=(2, 3)) == expected
        assert run_ratio_sweep(instances, R_values=(2, 3), jobs=2) == expected

    def test_extra_fields_applied_per_instance(self):
        instances = small_family()
        rows = run_ratio_sweep(
            instances,
            R_values=(2,),
            include_safe=False,
            extra_fields={"n": lambda inst: inst.num_agents, "tag": lambda inst: "demo"},
        )
        assert [row["n"] for row in rows] == [inst.num_agents for inst in instances]
        assert all(row["tag"] == "demo" for row in rows)

    def test_cli_sweep_warm_cache_zero_jobs(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep", "cycle",
            "--sizes", "5", "6",
            "--r-values", "2",
            "--cache-dir", str(cache_dir),
        ]
        assert cli_main(argv) == 0
        out_cold = capsys.readouterr().out
        assert "4 executed, 0 cached" in out_cold

        calls = []
        real_execute = registry.execute_job
        monkeypatch.setattr(
            registry, "execute_job", lambda spec: calls.append(spec) or real_execute(spec)
        )
        assert cli_main(argv) == 0
        out_warm = capsys.readouterr().out
        assert "0 executed, 4 cached" in out_warm
        assert calls == [], "warm maxmin-lp sweep re-run must perform zero solver calls"

    def test_cli_sweep_parallel_full_table(self, capsys):
        assert cli_main(
            ["sweep", "cycle", "--sizes", "5", "--r-values", "2", "--jobs", "2", "--full-table"]
        ) == 0
        out = capsys.readouterr().out
        assert "worst-case summary: cycle" in out
        assert "local-R2" in out and "size" in out


class TestBatchedDispatch:
    """dispatch="batched" must be observationally identical to per-job."""

    def test_records_identical_to_per_job(self):
        instances = small_family() + [cycle_instance(40, coefficient_range=(0.5, 2.0), seed=0)]
        per_job = run_batch(
            ratio_sweep_batch(instances, R_values=(2, 3), include_optimum=True)
        )
        batched = run_batch(
            ratio_sweep_batch(instances, R_values=(2, 3), include_optimum=True),
            dispatch="batched",
        )
        assert batched.records == per_job.records

    def test_batched_dispatch_fills_and_reads_cache(self, tmp_path):
        instances = small_family()
        cache = ResultCache(tmp_path / "cache")
        cold = run_batch(
            ratio_sweep_batch(instances, R_values=(2,)), cache=cache, dispatch="batched"
        )
        assert cold.executed_jobs > 0 and cold.cached_jobs == 0
        warm = run_batch(
            ratio_sweep_batch(instances, R_values=(2,)), cache=cache, dispatch="batched"
        )
        assert warm.executed_jobs == 0
        assert warm.records == cold.records

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(EngineError):
            run_batch(BatchSpec(), dispatch="sideways")

    def test_batched_dispatch_rejects_process_fanout(self):
        with pytest.raises(EngineError):
            run_batch(BatchSpec(), dispatch="batched", jobs=4)
        with pytest.raises(EngineError):
            run_batch(BatchSpec(), dispatch="batched", executor=SerialExecutor())

    def test_cli_sweep_batched_with_jobs_errors(self, capsys):
        code = cli_main(
            ["sweep", "cycle", "--sizes", "5", "--dispatch", "batched", "--jobs", "2"]
        )
        assert code == 2
        assert "in-process" in capsys.readouterr().err

    def test_execute_jobs_batched_mixed_algorithms(self):
        instance = small_family()[0]
        specs = make_jobs_for_instance(
            instance, R_values=(2, 3), include_safe=True, include_optimum=True
        )
        batched = registry.execute_jobs_batched(specs)
        per_job = [registry.execute_job(spec) for spec in specs]
        assert batched == per_job
