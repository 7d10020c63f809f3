"""Tests for serialization, graph export and the command-line interface."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.solution import Solution
from repro.cli import build_parser, main
from repro.exceptions import SerializationError
from repro.generators import cycle_instance, random_instance
from repro.io import (
    from_networkx,
    instance_from_json,
    instance_to_json,
    load_graphml,
    load_instance,
    save_graphml,
    save_instance,
    save_solution,
    solution_to_json,
    to_networkx,
)
from repro.transforms import to_special_form

from conftest import invalid_instance_documents, repeated_edge_documents


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestJsonSerialization:
    def test_roundtrip_simple(self, general_instance, tmp_path):
        path = save_instance(general_instance, tmp_path / "inst.json")
        restored = load_instance(path)
        assert restored == general_instance
        assert restored.name == general_instance.name

    def test_roundtrip_tuple_ids(self, general_instance, tmp_path):
        # The transformation pipeline generates tuple-shaped identifiers.
        transformed = to_special_form(general_instance).transformed
        path = save_instance(transformed, tmp_path / "transformed.json")
        restored = load_instance(path)
        assert restored == transformed

    def test_roundtrip_integer_ids(self):
        from repro.core.instance import MaxMinInstance

        inst = MaxMinInstance([1, 2], [10], [20], {(10, 1): 1.0, (10, 2): 1.0}, {(20, 1): 1.0, (20, 2): 1.0})
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_invalid_documents(self):
        with pytest.raises(SerializationError):
            instance_from_json("not json at all {")
        with pytest.raises(SerializationError):
            instance_from_json(json.dumps({"format": "something-else"}))
        with pytest.raises(SerializationError):
            instance_from_json(json.dumps({"format": "repro.maxmin-lp", "agents": []}))

    def test_solution_serialization(self, tiny_instance, tmp_path):
        sol = Solution(tiny_instance, {"a": 0.5, "b": 0.25}, label="manual")
        text = solution_to_json(sol)
        payload = json.loads(text)
        assert payload["label"] == "manual"
        assert payload["utility"] == pytest.approx(0.75)
        path = save_solution(sol, tmp_path / "sol.json")
        assert path.exists()


class TestNodeIdRoundTrip:
    """Regression: bool/float ids used to degrade to repr strings, so a
    save/load hop changed the instance digest and the engine's result cache
    silently missed forever after."""

    @staticmethod
    def _chain(agents):
        from repro.core.instance import MaxMinInstance

        a = {("c", agents[0]): 1.0, ("c", agents[1]): 2.0}
        c = {("o", v): 1.0 for v in agents}
        return MaxMinInstance(agents, ["c"], ["o"], a, c, name="id-roundtrip")

    def test_bool_ids_roundtrip_by_identity(self):
        inst = self._chain([True, False])
        restored = instance_from_json(instance_to_json(inst))
        assert restored.agents == (True, False)
        assert all(type(v) is bool for v in restored.agents)
        assert restored == inst

    def test_float_ids_roundtrip_by_identity(self):
        inst = self._chain([0.5, -2.25, float("inf")])
        restored = instance_from_json(instance_to_json(inst))
        assert restored.agents == (0.5, -2.25, float("inf"))
        assert all(type(v) is float for v in restored.agents)

    def test_digest_stable_after_save_load_hop(self, tmp_path):
        from repro.io import instance_digest

        inst = self._chain([True, 2, ("nested", False, 1.5)])
        path = save_instance(inst, tmp_path / "exotic.json")
        restored = load_instance(path)
        assert restored == inst
        assert instance_digest(restored) == instance_digest(inst)

    def test_exotic_ids_rejected_instead_of_degraded(self):
        inst = self._chain([frozenset({"x"}), "b"])
        with pytest.raises(SerializationError, match="faithfully"):
            instance_to_json(inst)

    def test_legacy_repr_documents_still_decode(self):
        from repro.io.serialization import _decode_id

        assert _decode_id({"__kind__": "repr", "value": "True"}) == "True"

    @given(
        st.lists(
            st.one_of(
                st.booleans(),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.floats(allow_nan=False),
                st.text(max_size=8),
                st.tuples(st.booleans(), st.integers(), st.text(max_size=4)),
            ),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_digest_stability_property(self, agent_ids):
        from repro.io import instance_digest

        inst = self._chain(agent_ids)
        text = instance_to_json(inst)
        restored = instance_from_json(text)
        assert restored == inst
        assert instance_to_json(restored) == text
        assert instance_digest(restored) == instance_digest(inst)


class TestGraphml:
    def test_to_networkx_attributes(self, tiny_instance):
        graph = to_networkx(tiny_instance)
        assert graph.number_of_nodes() == 4
        kinds = {data["kind"] for _n, data in graph.nodes(data=True)}
        assert kinds == {"agent", "constraint", "objective"}

    def test_networkx_roundtrip(self, general_instance):
        graph = to_networkx(general_instance)
        restored = from_networkx(graph)
        assert restored.num_agents == general_instance.num_agents
        assert restored.num_edges == general_instance.num_edges
        assert restored.delta_I == general_instance.delta_I

    def test_graphml_file_roundtrip(self, tmp_path):
        instance = cycle_instance(4, coefficient_range=(0.5, 2.0), seed=1)
        path = save_graphml(instance, tmp_path / "inst.graphml")
        restored = load_graphml(path)
        assert restored.num_agents == instance.num_agents
        assert restored.num_constraints == instance.num_constraints
        assert restored.is_special_form()

    def test_from_networkx_rejects_bad_graphs(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_node("x")  # no kind attribute
        with pytest.raises(SerializationError):
            from_networkx(graph)

        graph = nx.Graph()
        graph.add_node("a", kind="agent")
        graph.add_node("b", kind="agent")
        graph.add_edge("a", "b", coeff=1.0)
        with pytest.raises(SerializationError):
            from_networkx(graph)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "cycle", "out.json", "--size", "4"])
        assert args.command == "generate" and args.family == "cycle"

    def test_generate_info_compare_solve(self, tmp_path, capsys):
        instance_path = str(tmp_path / "inst.json")
        assert main(["generate", "cycle", instance_path, "--size", "4"]) == 0
        assert main(["info", instance_path]) == 0
        out = capsys.readouterr().out
        assert "special form" in out

        assert main(["compare", instance_path, "--r-values", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "local-R2" in out and "lp-optimum" in out

        solution_path = str(tmp_path / "sol.json")
        assert (
            main(
                [
                    "solve",
                    instance_path,
                    "-R",
                    "2",
                    "--with-safe",
                    "--with-optimum",
                    "--output",
                    solution_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "safe-degree" in out
        assert (tmp_path / "sol.json").exists()

    @pytest.mark.parametrize("command", ["solve", "info", "compare"])
    def test_missing_instance_file_is_a_one_line_error(self, command, capsys):
        """A bad path is a usage error: one line on stderr, exit 2, no trace."""
        assert main([command, "/no/such/instance.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: instance file not found:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["solve", "info", "compare"])
    def test_malformed_instance_file_is_a_one_line_error(
        self, command, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json", encoding="utf-8")
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid instance file")
        assert "Traceback" not in captured.err

        # Valid JSON that is not an instance document fails the same way.
        not_instance = tmp_path / "list.json"
        not_instance.write_text('[1, 2, 3]', encoding="utf-8")
        assert main([command, str(not_instance)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid instance file")

    @pytest.mark.parametrize(
        "text", [text for _, text in invalid_instance_documents()],
        ids=[case for case, _ in invalid_instance_documents()],
    )
    def test_invalid_instance_document_is_a_one_line_error(self, text, tmp_path, capsys):
        """Valid JSON describing no valid instance: one line, exit 2."""
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["solve", str(bad), "-R", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid instance file")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [(text, message) for _, text, message in repeated_edge_documents()],
        ids=[family for family, _, _ in repeated_edge_documents()],
    )
    def test_repeated_edge_is_a_one_line_error(self, text, message, tmp_path, capsys):
        """A document that lists an edge twice is refused in the array
        constructor's words, not loaded with the later row's coefficient."""
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["solve", str(bad), "-R", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid instance file {bad}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{inst}", "-R", "1"],
            ["compare", "{inst}", "--r-values", "1", "3"],
            ["sweep", "cycle", "--sizes", "6", "--r-values", "1"],
            ["dynamics", "cycle", "--size", "8", "--ticks", "1", "-R", "1"],
        ],
        ids=["solve", "compare", "sweep", "dynamics"],
    )
    def test_r_below_two_is_a_usage_error(self, argv, tmp_path, capsys):
        """Every R goes through one argparse type: exit 2 with a usage line."""
        inst = save_instance(cycle_instance(6), tmp_path / "inst.json")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(inst=inst) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "R must be >= 2, got 1" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "random", "{out}", "--size", "1"],
            ["generate", "special-form", "{out}", "--size", "1"],
            ["generate", "sensor", "{out}", "--size", "0"],
            ["generate", "random", "{out}", "--delta-i", "0"],
            ["generate", "torus", "{out}", "--size", "-5"],
            ["sweep", "random", "--sizes", "1"],
            ["sweep", "cycle", "--sizes", "6", "--jobs", "0"],
            ["sweep", "cycle", "--sizes", "6", "--jobs", "-2"],
            ["dynamics", "cycle", "--size", "8", "--churn", "0"],
            ["dynamics", "cycle", "--size", "8", "--churn", "-1"],
            ["dynamics", "cycle", "--size", "8", "--ticks", "-1"],
        ],
        ids=lambda argv: " ".join(argv).replace(" {out}", ""),
    )
    def test_out_of_range_size_or_count_is_a_usage_error(self, argv, tmp_path, capsys):
        """Exit 2 with an error line: no traceback, no clamp, no file."""
        out = tmp_path / "out.json"
        try:
            code = main([arg.format(out=out) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_churn_delta_refuses_fewer_than_one_edit(self):
        import numpy as np

        from repro.distributed.dynamics import random_churn_delta

        for edits in (0, -1):
            with pytest.raises(ValueError, match="edits"):
                random_churn_delta(cycle_instance(6), np.random.default_rng(0), edits=edits)

    def test_tree_node_limit_is_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        """An R whose alternating trees pass the node limit: one line, exit 2."""
        import repro.algo.kernels as kernels_mod

        monkeypatch.setattr(kernels_mod, "MAX_TREE_NODES", 10_000)
        inst = save_instance(
            random_instance(50, delta_I=3, delta_K=3, seed=1), tmp_path / "inst.json"
        )
        assert main(["solve", str(inst), "-R", "40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alternating trees for R=40 exceed the limit of 10000")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sweep_tree_node_limit_is_a_one_line_error(self, monkeypatch, capsys):
        """The same refusal inside a sweep job: the engine re-raises the job's
        own SolverError as soon as it lands, so one line, exit 2, and none of
        the other seven jobs runs."""
        import repro.algo.kernels as kernels_mod
        from repro.engine import registry

        calls = []
        execute_job = registry.execute_job

        def spy(spec):
            calls.append(spec)
            return execute_job(spec)

        monkeypatch.setattr(kernels_mod, "MAX_TREE_NODES", 10_000)
        monkeypatch.setattr(registry, "execute_job", spy)
        argv = ["sweep", "random", "--sizes", "50", "60", "70", "80", "--r-values", "40"]
        assert main(argv) == 2
        assert len(calls) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: alternating trees for R=40 exceed the limit of 10000"
        )
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("target", ["generate", "solve --output", "solve --trace-out"])
    def test_unwritable_output_is_a_one_line_error(self, target, tmp_path, capsys):
        inst = str(save_instance(cycle_instance(6), tmp_path / "inst.json"))
        missing = tmp_path / "no-such-dir" / "out.json"
        argv = {
            "generate": ["generate", "cycle", str(missing), "--size", "6"],
            "solve --output": ["solve", inst, "--output", str(missing)],
            "solve --trace-out": ["solve", inst, "--trace-out", str(missing)],
        }[target]
        try:
            assert main(argv) == 2
        finally:
            obs.reset()  # --trace-out leaves its spans in the buffer
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_solution_file_is_strict_json(self, tmp_path):
        """An instance without objectives has utility inf: written as null."""
        from repro.core.instance import MaxMinInstance

        inst = MaxMinInstance(
            ["u", "v"], ["i"], [], {("i", "u"): 1.0, ("i", "v"): 1.0}, {}, name="no-objectives"
        )
        path = save_instance(inst, tmp_path / "inst.json")
        assert main(["solve", str(path), "--output", str(tmp_path / "s.json")]) == 0
        payload = json.loads((tmp_path / "s.json").read_text(), parse_constant=_reject_constant)
        assert payload["utility"] is None and payload["feasible"] is True
        assert [row["value"] for row in payload["values"]] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "family", ["random", "special-form", "torus", "sensor", "ring"]
    )
    def test_generate_all_families(self, family, tmp_path):
        path = str(tmp_path / f"{family}.json")
        assert main(["generate", family, path, "--size", "9", "--seed", "1"]) == 0
        instance = load_instance(path)
        assert instance.num_agents > 0


@pytest.fixture(scope="module")
def special200(tmp_path_factory):
    """``generate special-form --size 200 --seed 1``: the input of ``solve --dist``."""
    path = tmp_path_factory.mktemp("dist") / "inst.json"
    assert main(["generate", "special-form", str(path), "--size", "200", "--seed", "1"]) == 0
    return path


_DIST_HEADER = [
    "sf-random-n200-dK3-m1-s1 (n=200, distributed)",
    "=============================================",
    "algorithm     utility  feasible  rounds  messages  exact  safe  failed",
    "------------  -------  --------  ------  --------  -----  ----  ------",
]
_LOST_LINKS = (
    "  round 3: link_loss 40 slot(s) [agent 'v13' port 1 -> constraint 'i70' port 1; "
    "agent 'v23' port 1 -> constraint 'i73' port 1; agent 'v25' port 1 -> constraint 'i1' port 1]"
)


#: ``solve`` flag sets that would crash the run or change nothing, and the
#: error line each one gets.
_UNUSABLE_FAULT_FLAGS = [
    (["--dist", "--drop-fraction", "1.5"], "--drop-fraction must lie in [0, 1], got 1.5"),
    (["--dist", "--drop-fraction", "nan"], "--drop-fraction must lie in [0, 1], got nan"),
    (["--dist", "--drop-fraction", "-0.5"], "--drop-fraction must lie in [0, 1], got -0.5"),
    (["--dist", "--retransmit-budget", "-1"], "--retransmit-budget must be >= 0, got -1"),
    (
        ["--dist", "--drop-fraction", "0.1", "--drop-round", "0"],
        "--drop-round must lie in [1, 19], the rounds of the protocol at R=3; got 0",
    ),
    (
        ["--dist", "--drop-fraction", "0.1", "--drop-round", "50"],
        "--drop-round must lie in [1, 19], the rounds of the protocol at R=3; got 50",
    ),
    (
        ["--dist", "--crash-agent", "1", "--crash-round", "0"],
        "--crash-round must lie in [1, 19], the rounds of the protocol at R=3; got 0",
    ),
    (
        ["--dist", "--crash-agent", "3", "--crash-round", "50"],
        "--crash-round must lie in [1, 19], the rounds of the protocol at R=3; got 50",
    ),
    (["--dist", "--persistent-loss"], "--persistent-loss needs --drop-fraction"),
    (["--dist", "--drop-round", "5"], "--drop-round needs --drop-fraction"),
    (["--dist", "--faults-seed", "4"], "--faults-seed needs --drop-fraction"),
    (["--dist", "--crash-round", "4"], "--crash-round needs --crash-agent"),
    (["--dist", "--with-safe"], "--with-safe does not apply to --dist"),
    (["--dist", "--with-optimum"], "--with-optimum does not apply to --dist"),
    (["--drop-fraction", "0.1"], "--drop-fraction needs --dist"),
    (["--drop-round", "5"], "--drop-round needs --dist"),
    (["--persistent-loss"], "--persistent-loss needs --dist"),
    (["--retransmit-budget", "3"], "--retransmit-budget needs --dist"),
    (["--crash-agent", "1"], "--crash-agent needs --dist"),
    (["--crash-round", "2"], "--crash-round needs --dist"),
    (["--faults-seed", "4"], "--faults-seed needs --dist"),
]


class TestSolveDist:
    """``solve --dist``: its output bytes per fault mix, and its flag rules."""

    @pytest.mark.parametrize(
        "flags, lines, digest",
        [
            pytest.param(
                [],
                [
                    "resilient-R3  0.6372   yes       19      10400     200    0     0",
                    "certificate: 200 exact / 0 safe / 0 failed; 0 retransmit(s), "
                    "0/0 message(s) lost (budget 2), 0 fault event(s)",
                ],
                "69c4dafb50afebefbad05492aa416d24afc1cfbf9d567037070aa2da4d5ed2a4",
                id="clean",
            ),
            pytest.param(
                ["--drop-fraction", "0.05"],
                [
                    "resilient-R3  0.6372   yes       19      10400     200    0     0",
                    "certificate: 200 exact / 0 safe / 0 failed; 40 retransmit(s), "
                    "0/40 message(s) lost (budget 2), 0 fault event(s)",
                ],
                "69c4dafb50afebefbad05492aa416d24afc1cfbf9d567037070aa2da4d5ed2a4",
                id="transient-loss",
            ),
            pytest.param(
                ["--drop-fraction", "0.05", "--persistent-loss",
                 "--crash-agent", "3", "--crash-round", "2"],
                [
                    "resilient-R3  0.5482   yes       19      10400     16     183   1",
                    "certificate: 16 exact / 183 safe / 1 failed; 80 retransmit(s), "
                    "40/40 message(s) lost (budget 2), 2 fault event(s)",
                    "  round 2: agent_crash 'v3'",
                    _LOST_LINKS,
                ],
                "7905c5dab0889b96964baad8156edd980b1108fdf9035c84935094ce8aecb51d",
                id="persistent-loss-and-crash",
            ),
            pytest.param(
                ["--drop-fraction", "0.05", "--retransmit-budget", "0"],
                [
                    "resilient-R3  0.5482   yes       19      10400     16     184   0",
                    "certificate: 16 exact / 184 safe / 0 failed; 0 retransmit(s), "
                    "40/40 message(s) lost (budget 0), 1 fault event(s)",
                    _LOST_LINKS,
                ],
                "f4d17d4c826b0e4d4a2239d7884d46e31867230ddea26980a8aed56143a8c3a1",
                id="no-budget",
            ),
        ],
    )
    def test_output_is_pinned(self, flags, lines, digest, special200, tmp_path, capsys):
        """Stdout and the solution file, byte for byte, per fault mix."""
        import hashlib

        out = tmp_path / "solution.json"
        argv = ["solve", str(special200), "-R", "3", "--dist", *flags, "--output", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            *_DIST_HEADER, *lines, f"solution written to {out}"
        ]
        assert captured.err == ""
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags, message",
        _UNUSABLE_FAULT_FLAGS,
        ids=[" ".join(flags) for flags, _ in _UNUSABLE_FAULT_FLAGS],
    )
    def test_unusable_fault_flag_is_a_one_line_error(self, flags, message, special200, capsys):
        """A fault flag that would crash the run or change nothing: exit 2."""
        assert main(["solve", str(special200), "-R", "3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
    @pytest.mark.parametrize("dist", [[], ["--dist"]], ids=["solve", "solve --dist"])
    @pytest.mark.parametrize("R", ["2", "3"])
    def test_overflowing_capacity_sum_is_a_one_line_error(self, R, dist, tmp_path, capsys):
        """Finite capacities whose sum overflows: one line naming the objective."""
        from repro.generators import perturb_coefficient

        instance = cycle_instance(4)
        for i, v in list(instance.a_coefficients):
            instance = perturb_coefficient(instance, i, v, 1e-308)
        path = save_instance(instance, tmp_path / "inst.json")
        assert main(["solve", str(path), "-R", R, *dist]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the capacities of the agents of objective 'k3' are finite but "
            "their sum overflows; scale the coefficients into floating-point range\n"
        )
