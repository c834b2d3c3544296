"""End-to-end checks of the command line entry points, run in process."""

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit import cli
from evbandit.pwl import PWLBatch

REPO = Path(__file__).resolve().parent.parent
FIXTURE_CSV = REPO / "data" / "sample_rt_prices.csv"

TINY = {
    "instance": {
        "n_chargers": 2,
        "capacity": 1,
        "discount": 0.9,
        "t_max": 2,
        "b_max": 1,
        "penalty": {"quadratic": 0.4},
        "arrivals": {"rho": 0.7},
        "cost": {"constant": 0.5},
    },
    "policies": ["whittle", "edf"],
    "seeds": 6,
    "horizon": 50,
}


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(TINY))
    return p


class TestIndexCommand:
    def test_writes_both_table_files(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "idx"
        rc = cli.main(["index", "--config", str(tiny_config), "--out", str(out)])
        assert rc == 0
        assert (out / "index_table.csv").exists()
        assert (out / "index_table.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_oracle_check_passes_on_a_correct_table(self, tiny_config, tmp_path):
        rc = cli.main([
            "index", "--config", str(tiny_config),
            "--out", str(tmp_path / "idx"), "--verify-oracle",
        ])
        assert rc == 0

    def test_oracle_disagreement_exits_3(self, tiny_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "index_by_bisection", lambda inst, st, tol=1e-8: 42.0)
        rc = cli.main([
            "index", "--config", str(tiny_config),
            "--out", str(tmp_path / "idx"), "--verify-oracle",
        ])
        assert rc == 3
        assert "verification failure" in capsys.readouterr().err


class TestSimulateCommand:
    def test_runs_and_writes_artifacts(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = cli.main([
            "simulate", "--config", str(tiny_config),
            "--out", str(out), "--seeds", "4",
        ])
        assert rc == 0
        assert (out / "episodes.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["policies"]) == {"whittle", "edf"}
        assert "whittle" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tiny_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main([
                "simulate", "--config", str(tiny_config),
                "--out", str(out), "--seeds", "4",
            ])
            assert rc == 0
            outs.append((out / "episodes.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_paired_baseline_flag(self, tiny_config, tmp_path, capsys):
        rc = cli.main([
            "simulate", "--config", str(tiny_config),
            "--out", str(tmp_path / "sim"), "--seeds", "4",
            "--paired-baseline", "edf",
        ])
        assert rc == 0
        assert "vs edf" in capsys.readouterr().out

    def test_unknown_baseline_exits_2(self, tiny_config, tmp_path, capsys):
        rc = cli.main([
            "simulate", "--config", str(tiny_config),
            "--out", str(tmp_path / "sim"), "--paired-baseline", "llf",
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


class TestBoundCommand:
    def test_writes_bound_json(self, tiny_config, tmp_path):
        out = tmp_path / "bnd"
        rc = cli.main(["bound", "--config", str(tiny_config), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "bound.json").read_text())
        assert {"bound", "per_charger", "lambda", "activation_frequency", "method"} <= set(doc)
        assert doc["per_charger"] == pytest.approx(doc["bound"] / 2)

    def test_verify_oracle_records_both_routes(self, tiny_config, tmp_path):
        out = tmp_path / "bnd"
        rc = cli.main([
            "bound", "--config", str(tiny_config), "--out", str(out), "--verify-oracle",
        ])
        assert rc == 0
        doc = json.loads((out / "bound.json").read_text())
        assert doc["method"] == "both"
        assert doc["lp_value"] == pytest.approx(doc["dual_value"], abs=1e-4)

    def test_cross_check_failure_exits_3(self, tiny_config, tmp_path, monkeypatch, capsys):
        def boom(inst, method="dual", details=False):
            raise RuntimeError("LP and dual disagree")

        monkeypatch.setattr(cli, "solve_bound", boom)
        rc = cli.main([
            "bound", "--config", str(tiny_config),
            "--out", str(tmp_path / "bnd"), "--verify-oracle",
        ])
        assert rc == 3
        assert "verification failure" in capsys.readouterr().err


class TestFitcostCommand:
    def test_fits_the_checked_in_trace(self, tmp_path):
        out = tmp_path / "fit"
        rc = cli.main(["fitcost", "--trace", str(FIXTURE_CSV), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "cost_chain.json").read_text())
        assert len(doc["levels"]) == 5
        assert len(doc["matrix"]) == 5
        assert doc["retail_price"] > max(doc["levels"]) * 0  # present and numeric

    def test_per_period_matrices(self, tmp_path):
        out = tmp_path / "fit"
        rc = cli.main([
            "fitcost", "--trace", str(FIXTURE_CSV),
            "--k", "3", "--n-periods", "24", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "cost_chain.json").read_text())
        assert "matrices" in doc and len(doc["matrices"]) == 24

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        rc = cli.main([
            "fitcost", "--trace", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "fit"),
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


def set_path(doc, path, value):
    """Set ``doc[k1][k2]...`` for a path of keys and list positions."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "changes, flags",
    [
        ({"seeds": [-1, 2]}, []),
        ({"seeds": 1}, []),
        ({"seeds": True}, []),
        ({"policies": ["fifo"], "baseline": None}, []),
        ({}, ["--seeds", "1"]),
        ({"policies": [], "baseline": None}, []),
        ({"policies": ["edf", "edf"]}, []),
        ({"seeds": [3, 3]}, []),
        ({"horizon": "abc"}, []),
        ({"horizon": [1]}, []),
        ({"truncation_tol": "x"}, []),
        ({"instance.t_max": "x"}, []),
        ({"instance.capacity": None}, []),
        ({"instance.arrivals.n_periods": "x"}, []),
        ({"verify_oracle": "no"}, []),
        ({"instance.t_max": 10**9}, []),
        ({"instance.b_max": 10**9}, []),
        ({"instance.arrivals.n_periods": 10**9}, []),
        ({"instance.n_chargers": 10**9}, []),
        ({"seeds": 10**9}, []),
        ({}, ["--seeds", str(10**9)]),
        ({"horizon": 10**9}, []),
        ({"instance.cost": {"file": str(FIXTURE_CSV), "k": 2, "n_periods": 10**9}}, []),
        # 400 literal cost levels: the arm MDP's kron of the move table with
        # the dense 400 x 400 cost matrix would hold about 2.9e8 entries
        ({"instance.t_max": 12, "instance.b_max": 9,
          "instance.cost": {"levels": [0.5] * 400, "matrix": [[1 / 400] * 400] * 400}}, []),
    ],
    ids=[
        "negative-seed", "one-seed", "bool-seeds", "unknown-policy", "seeds-flag-1",
        "no-policies", "repeated-policy", "repeated-seeds", "horizon-string", "horizon-list",
        "tol-string", "t-max-string", "capacity-null", "n-periods-string", "verify-oracle-string",
        "t-max-huge", "b-max-huge", "n-periods-huge", "n-chargers-huge", "seeds-huge",
        "seeds-flag-huge", "horizon-huge", "fitted-periods-huge", "cost-levels-huge",
    ],
)
def test_bad_run_settings_exit_2(changes, flags, tmp_path, capsys, monkeypatch):
    def not_refused(*args, **kwargs):
        raise AssertionError("the run was not refused before it was built")

    monkeypatch.setattr(cli, "monte_carlo", not_refused)
    doc = json.loads((REPO / "configs" / "toy.json").read_text())
    for path, value in changes.items():
        set_path(doc, path.split("."), value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["index", "simulate"])
def test_failed_recursion_check_exits_3(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(PWLBatch, "nondecreasing",
                        lambda self, tol=0.0: np.zeros(self.n.size, dtype=bool))
    argv = [command, "--config", str(REPO / "configs" / "toy.json"), "--out", str(tmp_path)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("verification failure:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["index", "simulate"])
@pytest.mark.parametrize("call", [1, 2], ids=["lead-time-1", "recursion"])
def test_knot_disagreement_exits_3(call, command, tmp_path, capsys, monkeypatch):
    """The middle piece of one batch of g_1's, the lead-time-1 one or the
    first the recursion assembles, is lifted by 1 and so breaks continuity."""
    stitch = PWLBatch.stitch
    calls = []

    def lifted(pieces, knots):
        calls.append(None)
        if len(calls) == call:
            pieces = [pieces[0], dataclasses.replace(pieces[1], Y=pieces[1].Y + 1.0), pieces[2]]
        return stitch(pieces, knots)

    monkeypatch.setattr(PWLBatch, "stitch", staticmethod(lifted))
    argv = [command, "--config", str(REPO / "configs" / "toy.json"), "--out", str(tmp_path)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert len(calls) == call
    assert rc == 3
    assert err.startswith("verification failure: g_1 at T=") and err.count("\n") == 1
    assert "pieces disagree at knot" in err


def config_paths(node, prefix=()):
    """Every key and list position in a config document, as paths."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from config_paths(value, prefix + (key,))


TOY = json.loads((REPO / "configs" / "toy.json").read_text())
TOY_PATHS = sorted(config_paths(TOY), key=str) + [("horizon",), ("truncation_tol",)]
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), 0.5, 1e-9]),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.builds(dict),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TOY_PATHS), JUNK), min_size=1, max_size=3))
def test_mutated_config_keeps_the_exit_contract(mutations):
    doc = json.loads(json.dumps(TOY))
    for path, value in mutations:
        try:
            set_path(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the parent
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "cfg.json"
        p.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["index", "--config", str(p), "--out", tmp])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert err.getvalue().count("\n") == 1


def test_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"polices": ["edf"]}))
    rc = cli.main(["index", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_shipped_toy_config_end_to_end(tmp_path):
    out = tmp_path / "toy"
    rc = cli.main([
        "simulate", "--config", str(REPO / "configs" / "toy.json"),
        "--out", str(out), "--seeds", "6",
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["policies"]) == 5


# sha256 of the CLI's output files on the shipped configs, recorded before the
# per-charger law was shared by the arm MDP, the joint DP and the simulator
# (the dynamic_cost table, the one Markov-cost pin, before the index recursion
# dropped g_h for h > 1; the fig3_constant_cost simulation, where the LLLP
# interchange swaps, before the simulator drew one world for all policies);
# a refactor must leave them byte-identical
PINNED = {
    ("simulate", "toy", "episodes.csv"):
        "cd8175b9edc4421263861bdd7b3274b94b96929e9c57bf025b1765e9826d9a7f",
    ("simulate", "toy", "summary.json"):
        "8528dbc3c2556be72b687e442ef8bed973594bffb7deae7d235f1c6c3711cefd",
    ("index", "toy", "index_table.csv"):
        "21e478d8e21ab78f41f0d480d673f6ec56713ecb3305f1338eb065bb3e10aa67",
    ("index", "fig3_constant_cost", "index_table.csv"):
        "fee6319e64c5644f09ca8dbda5557060c3459bdce911f96587d2d35cb2f4ddf4",
    ("index", "dynamic_cost", "index_table.csv"):
        "e7943697126a75b2ea087d86aa61659f8a9d0558a6fbb99a068f850b651830cc",
    ("simulate", "fig3_constant_cost", "episodes.csv"):
        "3081844ae0d668702919f28db6c9d3d5aaa51e25d8f16402bf344b9922eba84a",
    ("simulate", "fig3_constant_cost", "summary.json"):
        "748b5babc5cab2b56140222d68b4ef765ee72c8e7b81743f853fd8166335d10d",
}


def test_outputs_match_pinned_hashes(tmp_path):
    got = {}
    for command, config, name in PINNED:
        out = tmp_path / f"{command}_{config}"
        if not out.exists():
            argv = [command, "--config", str(REPO / "configs" / f"{config}.json"), "--out", str(out)]
            assert cli.main(argv + (["--seeds", "8"] if command == "simulate" else [])) == 0
        got[(command, config, name)] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert got == PINNED


# No shipped config has more than one period, so this pins the periodic branch
# of the recursion: a 4-period fit of the sample price trace with K=5, T<=6 and
# B<=5.  The sha256 of its index_table.csv was recorded before the recursion
# ran on batches of functions.
PERIODIC = {
    "instance": {
        "t_max": 6,
        "b_max": 5,
        "discount": 0.99,
        "penalty": {"quadratic": 0.2},
        "arrivals": {"rho": 0.85, "n_periods": 4},
        "cost": {"file": str(FIXTURE_CSV), "k": 5, "n_periods": 4},
    },
}
PERIODIC_TABLE_SHA256 = "1981a81cf36ebce96c1efa18f6ab1a0e504ee3c12213ac2b0b0c0ec9920dae54"


def test_periodic_fitted_table_matches_pinned_hash(tmp_path):
    p = tmp_path / "periodic.json"
    p.write_text(json.dumps(PERIODIC))
    assert cli.main(["index", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    got = hashlib.sha256((tmp_path / "o" / "index_table.csv").read_bytes()).hexdigest()
    assert got == PERIODIC_TABLE_SHA256
