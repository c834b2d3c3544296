"""Which scipy submodules (and numpy.ma) each command loads, in a fresh
interpreter.

``scipy.optimize`` is imported only by the valley planner's LP, which calls
it (it brings ``scipy.sparse`` and ``scipy.special`` with it), and
``scipy.stats`` never, so that a command starts without paying for solvers it
does not use; ``bound --verify-oracle``'s certificate and the library's
subsidy solvers, value iteration included, run on numpy alone;
``multiprocessing`` only by a simulation that shards its seeds.
Each case runs in its own process, because the test run has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from evbandit.config import load_run_config
from evbandit.sim import SHARD_MIN_WORK, default_horizon

REPO = Path(__file__).resolve().parent.parent
TOY = REPO / "configs" / "toy.json"
DYNAMIC = REPO / "configs" / "dynamic_cost.json"
SOLVERS = {"scipy.optimize", "scipy.sparse", "scipy.special", "scipy.stats"}

RUN = """\
import contextlib, io, json, sys
import evbandit, evbandit.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert evbandit.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith(sys.argv[2]))))
"""


LIBRARY = """\
import json, sys
import evbandit
from evbandit.config import load_run_config
from evbandit.whittle import SubsidyProblem, solve_subsidy
inst = load_run_config(sys.argv[1]).instance
evbandit.compute_index_table(inst)
solve_subsidy(SubsidyProblem.of(inst), 0.3)
evbandit.subsidy_value_iteration(inst, 0.3)
print(json.dumps(sorted(m for m in sys.modules if m.startswith(sys.argv[2]))))
"""


def run_fresh(script: str, arg: str, prefix: str) -> set:
    """Modules named ``prefix``... loaded after ``script`` ran with ``arg``
    and ``prefix`` as its arguments in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, arg, prefix],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after(commands, tmp_path, prefix="scipy.") -> set:
    """Modules named ``prefix``... loaded after importing the CLI and running
    ``commands``."""
    return run_fresh(RUN, json.dumps([argv + ["--out", str(tmp_path)] for argv in commands]), prefix)


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
    """The bisection oracle runs on the exact backward pass, not on value
    iteration."""
    loaded = loaded_after([["index", "--config", str(TOY), "--verify-oracle"]], tmp_path)
    assert not loaded & SOLVERS


def test_library_solvers_load_no_scipy():
    """The index recursion, the exact subsidy solve and value iteration, which
    sweeps the law's own entries with np.bincount: no scipy module at all."""
    assert run_fresh(LIBRARY, str(TOY), "scipy") == set()


def test_simulate_without_valley_loads_no_scipy(tmp_path):
    """The t quantile of the confidence intervals is computed in-package."""
    cfg = without_valley(tmp_path)
    loaded = loaded_after([["simulate", "--config", str(cfg), "--seeds", "4"]], tmp_path)
    assert loaded == set()


def test_bound_without_oracle_loads_no_solver(tmp_path):
    """The dual reads its kinks from the index table and its activation
    frequency from the exact subsidy solve, not from an occupancy solve."""
    loaded = loaded_after([["bound", "--config", str(TOY)]], tmp_path)
    assert not loaded & SOLVERS


def test_bound_oracle_loads_no_lp_solver(tmp_path):
    """The LP certificate solves its two bases by sweeps over the lead time
    and forms its products on the law's entries with np.bincount and
    np.add.at, building no matrix: no scipy."""
    loaded = loaded_after([["bound", "--config", str(DYNAMIC), "--verify-oracle"]], tmp_path)
    assert loaded == set()


def test_plain_commands_load_no_numpy_ma(tmp_path):
    """numpy.ma costs 8-12 ms to import; np.unique without return_inverse
    imports it, so the dual's kinks and the cost fit's distinct-price check
    sort and compare neighbours instead."""
    loaded = loaded_after([
        ["index", "--config", str(DYNAMIC)],
        ["simulate", "--config", str(DYNAMIC), "--seeds", "4"],
        ["bound", "--config", str(DYNAMIC)],
        ["bound", "--config", str(REPO / "configs" / "fig3_constant_cost.json")],
    ], tmp_path, prefix="numpy.")
    assert "numpy.ma" not in loaded


def test_no_command_loads_scipy_stats(tmp_path):
    loaded = loaded_after([
        ["index", "--config", str(TOY), "--verify-oracle"],
        ["simulate", "--config", str(TOY), "--seeds", "4"],  # valley solves LPs
        ["bound", "--config", str(TOY), "--verify-oracle"],
        ["fitcost", "--trace", str(REPO / "data" / "sample_rt_prices.csv")],
    ], tmp_path)
    assert {"scipy.optimize", "scipy.sparse", "scipy.special"} <= loaded
    assert "scipy.stats" not in loaded


def seeds_for_work(cfg: Path, work: int) -> int:
    """The most seeds with which ``simulate`` on ``cfg`` runs at most
    ``work`` charger-slots, summed over its policies."""
    run = load_run_config(cfg)
    horizon = run.horizon or default_horizon(run.instance, run.truncation_tol)
    return work // (horizon * run.instance.n_chargers * len(set(run.policies)))


def test_plain_commands_load_no_multiprocessing(tmp_path):
    """Below 2 * SHARD_MIN_WORK charger-slots a simulation runs in this
    process alone; at it, on more than one core, it shards its seeds."""
    cfg = without_valley(tmp_path)
    below = seeds_for_work(cfg, 2 * SHARD_MIN_WORK - 1)
    loaded = loaded_after([
        ["index", "--config", str(cfg)],
        ["bound", "--config", str(cfg)],
        ["simulate", "--config", str(cfg), "--seeds", str(below)],
    ], tmp_path, prefix="multiprocessing")
    assert loaded == set()
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        at = ["simulate", "--config", str(cfg), "--seeds", str(below + 1)]
        assert "multiprocessing" in loaded_after([at], tmp_path, prefix="multiprocessing")
