"""Every exported name resolves, the package re-exports exactly the library
modules' names, and the names the benchmark reads resolve."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import vsbdf3

MODULES = ("time_grid", "bdf_kernels", "ratio_analysis", "spectral", "allen_cahn", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"vsbdf3.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_package_reexports_every_library_module_and_not_the_cli():
    # each module's __all__ is the one list of its public names; the package
    # holds the same objects, so a name two modules export is one object
    exported = set()
    for name in MODULES[:-1]:  # all but cli
        mod = importlib.import_module(f"vsbdf3.{name}")
        exported.update(mod.__all__)
        assert all(getattr(vsbdf3, attr, None) is getattr(mod, attr) for attr in mod.__all__), name
    public = {attr for attr, value in vars(vsbdf3).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == exported
    # importing the package leaves the command-line harness unloaded
    probe = "import sys, vsbdf3; print('vsbdf3.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(vsbdf3.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


def test_names_the_benchmark_reads_resolve(monkeypatch):
    # bench/ drives the package through these names, and its tracer patches
    # the TimeGrid methods in the class dict; without one, a traced run or
    # the bench tests fail
    from vsbdf3 import allen_cahn, cli

    assert {"step", "ratio", "from_json"} <= set(vars(vsbdf3.TimeGrid))
    grid = vsbdf3.TimeGrid.from_json('{"T": 0.03, "steps": [0.01, 0.02]}')
    assert vsbdf3.assemble_B(grid).B.shape == (2, 2)
    op = vsbdf3.fourier_operator(4)
    n = op.n_unknowns
    assert op.L.shape == op.Gx.shape == op.Gy.shape == (n, n) and op.w.shape == (n,)
    x, y = op.mesh
    assert vsbdf3.energy(op, 0.05 * np.sin(x) * np.sin(y), 0.16) > 0.0
    assert all(callable(f) for f in (cli.main, cli.run, cli.emit))
    ok, trace = vsbdf3.certify_positive_definite(grid)
    assert ok and len(trace.p) == 2 and trace.first_negative is None
    assert vsbdf3.sylvester_trace_A_from_ratios([1.732] * 119).first_negative == 90
    res = vsbdf3.run(vsbdf3.SolverConfig(grid, op, 0.16, forcing="none"))
    assert [d.newton_iterations for d in res.diagnostics] == [
        len(d.inner_iterations) for d in res.diagnostics]
    # the tracer hooks step in allen_cahn's namespace, and the Newton count
    # wraps the run the cli module calls; a refactor must keep both in the path
    assert "step" in allen_cahn.__all__
    calls = []

    def counted(config):
        calls.append(config)
        return allen_cahn.run(config)

    monkeypatch.setattr(cli, "run", counted)
    assert cli.main(["--quiet", "energy", "--eps2", "0.16", "--tau", "0.01", "--steps", "3",
                     "--m", "4"]) == 0
    assert len(calls) == 1
