"""Cold-start guard: each command loads only what it runs.

The everyday commands never load scipy or networkx.

Both packages cost more than the whole ``import repro.cli`` without them, so
they are imported inside the functions that use them (the exact LP,
components, GraphML, the bandwidth generator, the oracle's smoothing).
Connectivity reads the compiled arrays, so ``info`` on a file or a serve
upload loads neither.
The per-node oracles of :mod:`repro.oracle` are test and benchmark code, so
the same probes check that no command imports them.  :mod:`repro.distributed`
loads only for the commands that run it (``solve --dist`` and
``dynamics``).  The packages that re-export names resolve them on first
access and each CLI handler imports its own subsystem, so ``import repro.cli`` and ``--help``
load no numpy, and ``solve`` loads neither the batch engine, the
generators, the §4 stage classes nor a process pool.  Each case runs in a
fresh interpreter, because this test process has long since imported all of
them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.generators import random_instance, random_special_form_instance
from repro.io.serialization import save_instance

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs BODY, then prints the loaded scipy / networkx / oracle / distributed
#: modules as JSON.
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "networkx")
    or m.split(".")[:2] in (["repro", "oracle"], ["repro", "distributed"])
)))
"""


#: Runs BODY, then prints every loaded module as JSON.
EVERY_MODULE = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""

#: The packages whose ``__init__`` resolves its re-exports on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.algo",
    "repro.transforms",
    "repro.io",
    "repro.engine",
    "repro.analysis",
    "repro.generators",
)

#: The per-stage §4 transcription, which only the oracle runs.
STAGE_MODULES = tuple(
    f"repro.transforms.{name}"
    for name in (
        "augment_singleton_constraints",
        "reduce_constraint_degree",
        "split_agents_by_objective",
        "augment_singleton_objectives",
        "normalise_coefficients",
    )
)


def _run(body: str, probe: str = PROBE):
    """``(stdout lines, modules)`` of BODY in a fresh interpreter: the heavy
    modules with the default probe, every module with ``EVERY_MODULE``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe.format(body=body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    """A small general instance: solve runs preprocess, §4, §5 and the back-map."""
    path = tmp_path_factory.mktemp("cold") / "instance.json"
    instance = random_instance(40, delta_I=3, delta_K=3, seed=3)
    assert not instance.is_special_form()
    save_instance(instance, path)
    return path


@pytest.fixture(scope="module")
def special_file(tmp_path_factory):
    """A small special-form instance: what ``solve --dist`` accepts."""
    path = tmp_path_factory.mktemp("cold") / "special.json"
    save_instance(random_special_form_instance(30, delta_K=3, seed=3), path)
    return path


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve"])
def test_import_loads_neither(module):
    _, heavy = _run(f"import {module}")
    assert heavy == []


def test_solve_loads_neither(instance_file, tmp_path):
    sol = tmp_path / "sol.json"
    argv = ["solve", str(instance_file), "-R", "3", "--output", str(sol)]
    _, heavy = _run(f"import repro.cli\nassert repro.cli.main({argv!r}) == 0")
    assert heavy == []
    assert json.loads(sol.read_text(encoding="utf-8"))["feasible"] is True


def test_solve_loads_only_what_it_runs(instance_file, tmp_path):
    """A cold ``solve --output`` loads the solve path and its table writer:
    no engine, generator, oracle or service module, no §4 stage class, no
    process pool."""
    sol = tmp_path / "sol.json"
    argv = ["solve", str(instance_file), "-R", "3", "--output", str(sol)]
    _, loaded = _run(f"import repro.cli\nassert repro.cli.main({argv!r}) == 0", EVERY_MODULE)
    unused = [["repro", p] for p in ("engine", "distributed", "faults", "serve", "generators", "oracle")]
    assert [m for m in loaded if m.split(".")[:2] in unused] == []
    assert [m for m in loaded if m.startswith("repro.analysis")] == [
        "repro.analysis",
        "repro.analysis.reporting",
    ]
    assert [m for m in loaded if m in STAGE_MODULES] == []
    pools = ("multiprocessing", "concurrent.futures")
    assert [m for m in loaded if m in pools or m.startswith(tuple(p + "." for p in pools))] == []
    assert json.loads(sol.read_text(encoding="utf-8"))["feasible"] is True


HELP = """
import contextlib, io
import repro.cli
try:
    with contextlib.redirect_stdout(io.StringIO()):
        repro.cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
"""


@pytest.mark.parametrize("body", ["import repro.cli", HELP], ids=["import", "help"])
def test_cli_import_and_help_load_no_numpy(body):
    _, loaded = _run(body, EVERY_MODULE)
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("repro.core")] == []


def test_every_lazy_export_is_its_definition():
    """Each name in each package's ``__all__`` is listed by ``dir`` and
    resolves, on first access, to the object its defining module binds under
    that name (a class or function by its ``__module__``, data by a module
    of the package)."""
    body = f"""
import importlib, types
for name in {LAZY_PACKAGES!r}:
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package)), name
    for attr in package.__all__:
        obj = getattr(package, attr)
        assert not isinstance(obj, types.ModuleType), (name, attr)
        if isinstance(obj, (type, types.FunctionType)):
            home = importlib.import_module(obj.__module__)
            assert obj.__module__.startswith(name) and getattr(home, attr) is obj, (name, attr)
        else:
            homes = [m for n, m in sys.modules.items() if n == name or n.startswith(name + ".")]
            assert any(vars(m).get(attr) is obj for m in homes), (name, attr)
"""
    _run(body)


@pytest.mark.parametrize(
    "body",
    [
        "from repro import LocalMaxMinSolver, preprocess\nfunction = preprocess",
        "import repro.core.preprocess\n"
        "from repro import preprocess\n"
        "from repro.core import preprocess as core_preprocess\n"
        "assert core_preprocess is preprocess\n"
        "function = preprocess",
    ],
    ids=["first-access", "after-submodule-import"],
)
def test_preprocess_is_the_function(body):
    """``preprocess`` names a submodule and its function; the packages bind
    the function whichever is imported first."""
    _run(
        body
        + "\nassert function is sys.modules['repro.core.preprocess'].preprocess"
        + "\nassert callable(function) and function.__name__ == 'preprocess'"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "random", "{tmp}/g.json", "--size", "30"],
        ["dynamics", "cycle", "--size", "20", "--ticks", "2"],
        ["solve", "{special}", "-R", "3", "--dist", "--drop-fraction", "0.05"],
    ],
)
def test_other_commands_load_neither(argv, tmp_path, special_file):
    """The commands that run :mod:`repro.distributed` may load it, nothing else."""
    argv = [arg.format(tmp=tmp_path, special=special_file) for arg in argv]
    _, heavy = _run(f"import repro.cli\nassert repro.cli.main({argv!r}) == 0")
    assert [m for m in heavy if not m.startswith("repro.distributed")] == []


def connected_per_networkx(path) -> bool:
    import networkx as nx

    from repro.io.serialization import load_instance

    return nx.is_connected(load_instance(path).communication_graph())


def test_info_loads_neither(instance_file):
    """``maxmin-lp info`` reports connectivity without a graph."""
    argv = ["info", str(instance_file)]
    lines, heavy = _run(f"import repro.cli\nassert repro.cli.main({argv!r}) == 0")
    row = next(line for line in lines if line.split()[:1] == ["connected"])
    assert row.split()[-1] == ("yes" if connected_per_networkx(instance_file) else "no")
    assert heavy == []


def test_serve_info_upload_loads_neither(instance_file):
    """A serve ``info`` upload answers ``connected`` without a graph."""
    body = "\n".join(
        [
            "from repro.serve.harness import ServerHandle",
            "from repro.serve.server import ServeConfig",
            f"text = open({str(instance_file)!r}, encoding='utf-8').read()",
            "with ServerHandle(ServeConfig(workers=1)) as handle:",
            "    status, payload = handle.client().info(instance=text)",
            "assert status == 200, payload",
            "print(payload['result']['connected'])",
        ]
    )
    lines, heavy = _run(body)
    assert lines[-1] == str(connected_per_networkx(instance_file))
    assert heavy == []


def test_with_optimum_still_solves_the_lp(instance_file):
    """The exact LP loads scipy on first use: deferred, not removed."""
    argv = ["solve", str(instance_file), "-R", "3", "--with-optimum"]
    lines, heavy = _run(f"import repro.cli\nassert repro.cli.main({argv!r}) == 0")
    assert any(line.startswith("lp-optimum") for line in lines)
    assert "scipy.optimize" in heavy
    assert not any(m.startswith("networkx") for m in heavy)
