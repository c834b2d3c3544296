"""Which scipy submodules each command loads, in a fresh interpreter.

``scipy.optimize`` and ``scipy.sparse`` are imported by the functions that
call them (``scipy.optimize`` brings ``scipy.special`` with it), and
``scipy.stats`` never, so that a command starts without paying for solvers it
does not use.  Each case runs in its own process, because the test run has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOY = REPO / "configs" / "toy.json"
SOLVERS = {"scipy.optimize", "scipy.sparse", "scipy.special", "scipy.stats"}

RUN = """\
import contextlib, io, json, sys
import evbandit, evbandit.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert evbandit.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def loaded_after(commands, tmp_path) -> set:
    """scipy modules loaded after importing the CLI and running ``commands``."""
    commands = [argv + ["--out", str(tmp_path)] for argv in commands]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def without_valley(tmp_path) -> Path:
    doc = json.loads(TOY.read_text())
    doc["policies"].remove("valley")
    p = tmp_path / "no_valley.json"
    p.write_text(json.dumps(doc))
    return p


def test_import_and_index_load_no_solver(tmp_path):
    assert not loaded_after([], tmp_path) & SOLVERS
    assert not loaded_after([["index", "--config", str(TOY)]], tmp_path) & SOLVERS


def test_index_oracle_loads_no_solver(tmp_path):
    """The bisection oracle runs on the exact backward pass, not on the
    sparse arm MDP."""
    loaded = loaded_after([["index", "--config", str(TOY), "--verify-oracle"]], tmp_path)
    assert not loaded & SOLVERS


def test_simulate_without_valley_loads_no_scipy(tmp_path):
    """The t quantile of the confidence intervals is computed in-package."""
    cfg = without_valley(tmp_path)
    loaded = loaded_after([["simulate", "--config", str(cfg), "--seeds", "4"]], tmp_path)
    assert loaded == set()


def test_bound_without_oracle_loads_no_solver(tmp_path):
    """The dual reads its kinks from the index table and its activation
    frequency from the exact subsidy solve, not from the sparse arm MDP."""
    loaded = loaded_after([["bound", "--config", str(TOY)]], tmp_path)
    assert not loaded & SOLVERS


def test_no_command_loads_scipy_stats(tmp_path):
    loaded = loaded_after([
        ["index", "--config", str(TOY), "--verify-oracle"],
        ["simulate", "--config", str(TOY), "--seeds", "4"],  # valley solves LPs
        ["bound", "--config", str(TOY), "--verify-oracle"],
        ["fitcost", "--trace", str(REPO / "data" / "sample_rt_prices.csv")],
    ], tmp_path)
    assert {"scipy.optimize", "scipy.sparse", "scipy.special"} <= loaded
    assert "scipy.stats" not in loaded
