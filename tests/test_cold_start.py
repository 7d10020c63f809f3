"""Cold-start guard: the everyday commands never load scipy or networkx.

Both packages cost more than the whole ``import repro.cli`` without them, so
they are imported inside the functions that use them (the exact LP,
connectivity, GraphML, the bandwidth generator, the oracle's smoothing).
The per-node oracles of :mod:`repro.oracle` are test and benchmark code, so
the same probes check that nothing on the solve or serve path imports them.
Each case runs in a fresh interpreter, because this test process has long
since imported all three.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.generators import random_instance
from repro.io.serialization import save_instance

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs BODY, then prints the loaded scipy / networkx / oracle modules as JSON.
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx") or m == "repro.oracle"
)))
"""


def _run(body: str):
    """``(stdout lines, heavy modules)`` of BODY in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "random", "{tmp}/g.json", "--size", "30"],
        ["dynamics", "cycle", "--size", "20", "--ticks", "2"],
    ],
)
def test_other_commands_load_neither(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    _, heavy = _run(f"import repro.cli\nassert repro.cli.main({argv!r}) == 0")
    assert heavy == []


def test_with_optimum_still_solves_the_lp(instance_file):
    """The exact LP loads scipy on first use: deferred, not removed."""
    argv = ["solve", str(instance_file), "-R", "3", "--with-optimum"]
    lines, heavy = _run(f"import repro.cli\nassert repro.cli.main({argv!r}) == 0")
    assert any(line.startswith("lp-optimum") for line in lines)
    assert "scipy.optimize" in heavy
    assert not any(m.startswith("networkx") for m in heavy)
