"""Tests for :mod:`repro.obs` and its integration with the solve paths.

Covers the ISSUE-mandated guards: the disabled tracer's overhead bound, the
span-nesting / attribute round-trip through the versioned trace JSON, the
deterministic cross-process metric merge under :class:`ParallelExecutor`,
and the counter-value equivalence between the per-tree bisection that the
oracle runs and the batched kernel.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro import obs
from repro.algo.kernels import batched_upper_bounds
from repro.algo.local_solver import IncrementalSolveState, SpecialFormLocalSolver
from repro.algo.upper_bound import compute_upper_bounds
from repro.engine.batch import ratio_sweep_batch, run_batch
from repro.engine.cache import ResultCache
from repro.engine.executors import ParallelExecutor, SerialExecutor
from repro.exceptions import EngineError
from repro.generators import cycle_instance, random_special_form_instance


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test leaves tracing disabled and the buffer empty."""
    yield
    obs.configure(enabled=False)
    obs.reset()


# ----------------------------------------------------------------------
# Core collector behaviour
# ----------------------------------------------------------------------


def test_disabled_tracer_is_inert():
    assert not obs.enabled()
    with obs.span("anything", x=1) as sp:
        sp.set(y=2)
    obs.count("some.counter", 5)
    obs.gauge("some.gauge", 1.5)
    snap = obs.snapshot()
    assert snap["spans"] == []
    assert snap["counters"] == {}
    assert snap["gauges"] == {}


def test_disabled_overhead_is_under_two_percent_of_reference_solve():
    """The no-op fast path must be negligible against a real solve.

    One solve issues on the order of a dozen obs calls (7 spans + ~6
    counters); this bounds the cost of one hundred disabled span+count
    pairs — several times that — against 2% of the solve's wall time.  The
    instance is sized so that the solve takes a few milliseconds, which
    puts the budget near 1 µs per disabled pair.
    """
    instance = cycle_instance(1408, coefficient_range=(0.5, 2.0), seed=3)
    solver = SpecialFormLocalSolver(R=3)
    solver.solve(instance)  # warm caches (compiled view, transforms)
    t_solve = min(
        _timed(lambda: solver.solve(instance)) for _ in range(3)
    )

    calls = 20_000
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("x"):
            pass
        obs.count("x")
    per_call = (time.perf_counter() - start) / calls
    assert per_call * 100 < 0.02 * t_solve


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_counters_marks_and_gauges():
    obs.configure(enabled=True)
    obs.count("a", 2)
    obs.count("a")
    obs.gauge("g", 7.0)
    obs.gauge("g", 9.0)
    mark = obs.counters_mark()
    obs.count("a", 5)
    obs.count("b", 0)  # zero deltas are omitted from the diff
    assert obs.counters_since(mark) == {"a": 5}
    snap = obs.snapshot()
    assert snap["counters"]["a"] == 8
    assert snap["gauges"]["g"] == 9.0


def test_span_nesting_and_attrs_roundtrip_through_trace_json():
    obs.configure(enabled=True)
    with obs.span("outer", phase="demo") as outer:
        with obs.span("inner", depth=1) as inner:
            inner.set(items=3)
        outer.set(done=True)
    payload = json.loads(json.dumps(obs.trace_payload(meta={"test": "roundtrip"})))
    obs.validate_trace(payload)
    assert payload["meta"] == {"test": "roundtrip"}

    by_name = {record["name"]: record for record in payload["spans"]}
    outer_rec, inner_rec = by_name["outer"], by_name["inner"]
    assert outer_rec["parent"] is None
    assert inner_rec["parent"] == outer_rec["id"]
    assert outer_rec["attrs"] == {"phase": "demo", "done": True}
    assert inner_rec["attrs"] == {"depth": 1, "items": 3}
    assert outer_rec["wall_s"] >= inner_rec["wall_s"] >= 0.0

    chrome = payload["chrome_trace"]
    assert len(chrome) == 2
    assert {event["name"] for event in chrome} == {"outer", "inner"}
    assert all(event["ph"] == "X" for event in chrome)


def test_span_stack_survives_exceptions():
    obs.configure(enabled=True)
    with pytest.raises(RuntimeError):
        with obs.span("outer"):
            with obs.span("inner"):
                raise RuntimeError("boom")
    with obs.span("after"):
        pass
    by_name = {record["name"]: record for record in obs.snapshot()["spans"]}
    assert by_name["after"]["parent"] is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(format="other"),
        lambda p: p.update(version=99),
        lambda p: p["spans"][0].pop("wall_s"),
        lambda p: p["spans"][0].update(id=p["spans"][1]["id"]),
        lambda p: p["spans"][0].update(parent=12345),
        lambda p: p["counters"].update(bad=True),
        lambda p: p["chrome_trace"].pop(),
        lambda p: p["chrome_trace"][0].update(ph="B"),
    ],
)
def test_validate_trace_rejects_malformed_payloads(mutate):
    obs.configure(enabled=True)
    with obs.span("a"):
        with obs.span("b"):
            pass
    obs.count("c", 1)
    payload = json.loads(json.dumps(obs.trace_payload()))
    obs.validate_trace(payload)  # sanity: valid before mutation
    mutate(payload)
    with pytest.raises(ValueError):
        obs.validate_trace(payload)


def test_merge_snapshot_remaps_ids_and_sums_counters():
    obs.configure(enabled=True)
    worker = {
        "spans": [
            {"id": 0, "parent": None, "name": "w-root", "start_s": 0.0,
             "wall_s": 1.0, "cpu_s": 1.0, "attrs": {}, "proc": 0},
            {"id": 1, "parent": 0, "name": "w-child", "start_s": 0.1,
             "wall_s": 0.5, "cpu_s": 0.5, "attrs": {}, "proc": 0},
        ],
        "counters": {"a": 3, "b": 1},
        "gauges": {"g": 2.0},
    }
    obs.count("a", 4)
    with obs.span("parent-open"):
        obs.merge_snapshot(worker, proc=7)
    snap = obs.snapshot()
    by_name = {record["name"]: record for record in snap["spans"]}
    parent_rec = by_name["parent-open"]
    root_rec, child_rec = by_name["w-root"], by_name["w-child"]
    # Worker roots attach under the innermost open parent span; ids are fresh.
    assert root_rec["parent"] == parent_rec["id"]
    assert child_rec["parent"] == root_rec["id"]
    assert root_rec["proc"] == child_rec["proc"] == 7
    assert len({record["id"] for record in snap["spans"]}) == 3
    assert snap["counters"] == {"a": 7, "b": 1}
    assert snap["gauges"] == {"g": 2.0}


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------


def _run_threads(*targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


def test_spans_nest_under_their_own_thread():
    """A opens outer, B opens outer, then A opens inner: inner's parent is A's outer."""
    obs.configure(enabled=True)
    a_outer, b_outer, a_inner = threading.Event(), threading.Event(), threading.Event()

    def thread_a():
        with obs.span("outer", thread="A"):
            a_outer.set()
            assert b_outer.wait(10)
            with obs.span("inner", thread="A"):
                pass
            a_inner.set()

    def thread_b():
        assert a_outer.wait(10)
        with obs.span("outer", thread="B"):
            b_outer.set()
            assert a_inner.wait(10)

    _run_threads(thread_a, thread_b)
    payload = obs.trace_payload()
    obs.validate_trace(payload)
    by_key = {(r["name"], r["attrs"]["thread"]): r for r in payload["spans"]}
    assert by_key[("outer", "A")]["parent"] is None
    assert by_key[("outer", "B")]["parent"] is None
    assert by_key[("inner", "A")]["parent"] == by_key[("outer", "A")]["id"]


def test_concurrent_spans_keep_parents_and_unique_ids():
    obs.configure(enabled=True)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker(tag):
        def run():
            for _ in range(500):
                with obs.span("outer", thread=tag):
                    with obs.span("inner", thread=tag):
                        pass

        return run

    try:
        _run_threads(*(worker(t) for t in range(4)))
    finally:
        sys.setswitchinterval(old)
    payload = obs.trace_payload()
    obs.validate_trace(payload)  # rejects duplicate ids
    by_id = {r["id"]: r for r in payload["spans"]}
    assert len(by_id) == 4 * 500 * 2
    for record in payload["spans"]:
        if record["name"] == "outer":
            assert record["parent"] is None
        else:
            parent = by_id[record["parent"]]
            assert parent["name"] == "outer"
            assert parent["attrs"]["thread"] == record["attrs"]["thread"]


def test_counts_are_not_lost_under_threads():
    obs.configure(enabled=True)
    calls = 100_000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker():
        for _ in range(calls):
            obs.count("hits")

    try:
        _run_threads(*([worker] * 4))
    finally:
        sys.setswitchinterval(old)
    assert obs.snapshot()["counters"]["hits"] == 4 * calls


# ----------------------------------------------------------------------
# Solver integration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("r", [0, 1, 2])
def test_bisection_iteration_counts_match_across_backends(r):
    """Both t_u searches count per-tree margin evaluations the same way.

    The kernel's bracketed search never needs more evaluations than the
    oracle's bisection, and strictly fewer on the random instance.
    """
    for strictly_fewer, instance in (
        (False, cycle_instance(9, coefficient_range=(0.5, 2.0), seed=1)),
        (True, random_special_form_instance(14, delta_K=3, seed=2)),
    ):
        obs.configure(enabled=True)
        mark = obs.counters_mark()
        compute_upper_bounds(instance, r)
        ref = obs.counters_since(mark)
        mark = obs.counters_mark()
        batched_upper_bounds(instance.compiled(), r)
        vec = obs.counters_since(mark)
        ref_evals = ref.get("kernels.bisection_iterations", 0)
        vec_evals = vec.get("kernels.bisection_iterations", 0)
        assert vec_evals <= ref_evals
        if strictly_fewer:
            assert vec_evals < ref_evals
        assert ref.get("kernels.trees_total") == vec.get("kernels.trees_total")
        obs.configure(enabled=False)


def test_tree_stage_spans_nest_under_upper_bounds():
    """The tree build and the ``t_u`` search are spans of their own inside
    ``kernels.upper_bounds``, on the solve and the incremental path alike."""
    instance = random_special_form_instance(30, delta_K=3, seed=4)
    solver = SpecialFormLocalSolver(R=3)
    state = IncrementalSolveState(solver, instance)
    delta = state.comp.delta()
    i = instance.constraints[0]
    delta.set_constraint_coefficient(i, instance.agents_of_constraint(i)[0], 1.7)
    edited = delta.apply()

    obs.configure(enabled=True)
    solver.solve(instance)
    state.apply_delta(edited)
    spans = obs.snapshot()["spans"]

    def stage_spans(path):
        roots = {rec["id"] for rec in spans if rec["name"] == path}
        bounds = {
            rec["id"]
            for rec in spans
            if rec["name"] == "kernels.upper_bounds" and rec["parent"] in roots
        }
        return sorted(rec["name"] for rec in spans if rec["parent"] in bounds)

    for path in ("solve.special_form", "solve.incremental"):
        assert stage_spans(path) == ["kernels.build_trees", "kernels.tu_search"], path


def test_result_views_read_the_kernel_arrays():
    instance = cycle_instance(8, coefficient_range=(0.5, 2.0), seed=5)
    result = SpecialFormLocalSolver(R=3).solve(instance)
    assert set(result.upper_bounds) == set(instance.agents)
    assert result.minimum_smoothed_bound() == min(result.smoothed_bounds.values())


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


def test_job_metrics_carry_true_elapsed_and_counters(tmp_path):
    instances = [cycle_instance(8, seed=s) for s in range(2)]
    batch = ratio_sweep_batch(instances, R_values=(2,), include_safe=False)
    obs.configure(enabled=True)
    result = run_batch(batch, cache_dir=tmp_path / "cache")
    for job in result.results:
        assert not job.from_cache
        assert job.metrics is not None
        assert job.metrics["elapsed_s"] > 0.0
        assert job.metrics["counters"]  # solver counters attributed to the job
    rollup = result.metrics
    assert rollup["jobs"] == 2 and rollup["executed"] == 2 and rollup["cached"] == 0
    assert rollup["wall_s"] == result.elapsed_s
    # The batch rollup is the sum of the per-job counter deltas.
    summed = {}
    for job in result.results:
        for name, value in job.metrics["counters"].items():
            summed[name] = summed.get(name, 0) + value
    assert rollup["counters"] == summed

    # Warm re-run: everything cached, metrics None, no counter rollup.
    rerun = run_batch(batch, cache_dir=tmp_path / "cache")
    assert rerun.executed_jobs == 0
    assert all(job.from_cache and job.metrics is None for job in rerun.results)
    assert "counters" not in rerun.metrics


def test_parallel_metric_merge_is_deterministic_and_complete():
    instances = [cycle_instance(6 + 2 * s, seed=s) for s in range(4)]
    batch = ratio_sweep_batch(instances, R_values=(2,), include_safe=False)

    def run_traced():
        obs.configure(enabled=False)
        obs.configure(enabled=True)  # disabled→enabled edge resets the buffer
        result = run_batch(
            batch, executor=ParallelExecutor(max_workers=2, chunk_size=2)
        )
        merged = obs.snapshot()["counters"]
        obs.configure(enabled=False)
        return result, merged

    first, merged_first = run_traced()
    second, merged_second = run_traced()
    # Deterministic merge: identical counters across repeated parallel runs.
    assert merged_first == merged_second
    assert first.records == second.records
    # Complete merge: the parent's counters are the sum of the per-job deltas
    # (zero-valued counters appear in snapshots but are omitted from deltas).
    summed = {}
    for job in first.results:
        assert job.metrics is not None and job.metrics["elapsed_s"] > 0.0
        for name, value in job.metrics["counters"].items():
            summed[name] = summed.get(name, 0) + value
    assert {name: value for name, value in merged_first.items() if value} == summed
    # And the parallel counters equal a serial run's (distinct instances, so
    # no cross-process memo effects can skew them).
    obs.configure(enabled=False)
    obs.configure(enabled=True)
    serial = run_batch(batch, executor=SerialExecutor())
    assert obs.snapshot()["counters"] == merged_first
    assert serial.records == first.records


def test_custom_executor_subclass_still_runs_without_metrics():
    class Doubler(SerialExecutor):
        def map_jobs(self, specs, **kwargs):
            return super().map_jobs(list(specs) + list(specs))

    batch = ratio_sweep_batch([cycle_instance(6, seed=0)], R_values=(2,), include_safe=False)
    with pytest.raises(EngineError, match="alignment"):
        run_batch(batch, executor=Doubler())  # alignment check must still fire


def test_result_cache_stats(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0, "entries": 0}
    assert cache.get("ab" * 32) is None
    cache.put("ab" * 32, [{"x": 1}])
    assert cache.get("ab" * 32) == [{"x": 1}]
    stats = cache.stats()
    assert stats == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0, "entries": 1}


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------


def test_cli_profile_and_trace_out(tmp_path, capsys):
    from repro.cli import main

    instance_path = tmp_path / "inst.json"
    trace_path = tmp_path / "trace.json"
    assert main(["generate", "cycle", str(instance_path), "--size", "8"]) == 0
    assert (
        main(["solve", str(instance_path), "--profile", "--trace-out", str(trace_path)])
        == 0
    )
    out = capsys.readouterr().out
    assert "solve.general" in out
    assert "kernels.upper_bounds" in out
    assert "solution.objective_passes" in out
    payload = obs.validate_trace_file(trace_path)
    assert payload["meta"]["command"] == "solve"
    assert any(record["name"] == "solve.special_form" for record in payload["spans"])
    assert not obs.enabled()  # the CLI restores the prior tracing state


def test_cli_sweep_profile(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "sweep-trace.json"
    code = main(
        [
            "sweep", "cycle", "--sizes", "8", "--r-values", "2",
            "--profile", "--trace-out", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "engine.run_batch" in out
    assert f"trace written to {trace_path}" in out
    obs.validate_trace_file(trace_path)
    assert not obs.enabled()


def test_cli_info_prints_cache_stats(tmp_path, capsys):
    from repro.cli import main

    instance_path = tmp_path / "inst.json"
    assert main(["generate", "cycle", str(instance_path), "--size", "8"]) == 0
    cache_dir = tmp_path / "cache"
    ResultCache(cache_dir).put("cd" * 32, [{"x": 1}])
    assert main(["info", str(instance_path), "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "result cache" in out
    assert "entries" in out
