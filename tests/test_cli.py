"""End-to-end checks of the command line entry points, run in process."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit import bound, cli, sim, whittle
from evbandit.config import instance_from_dict, load_run_config
from evbandit.pwl import PWLBatch
from evbandit.whittle import IndexTable

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
        monkeypatch.setattr(cli, "index_by_bisection",
                            lambda inst: np.full((3, 2, 1, 1), 42.0))
        rc = cli.main([
            "index", "--config", str(tiny_config),
            "--out", str(tmp_path / "idx"), "--verify-oracle",
        ])
        assert rc == 3
        assert "verification failure" in capsys.readouterr().err

    @pytest.mark.parametrize("name, n_states", [
        ("toy", 18), ("fig3_constant_cost", 120), ("dynamic_cost", 600),
    ])
    def test_oracle_checks_every_state(self, name, n_states, tmp_path, capsys):
        rc = cli.main([
            "index", "--config", str(REPO / "configs" / f"{name}.json"),
            "--out", str(tmp_path / "idx"), "--verify-oracle",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        line = next(x for x in out.splitlines() if x.startswith("oracle check"))
        assert line.startswith(f"oracle check on {n_states} states: max |err| = ")
        assert float(line.rsplit("= ", 1)[1]) <= 1e-8

    def test_moved_table_entry_exits_3(self, tmp_path, monkeypatch, capsys):
        real = cli.compute_index_table

        def moved(inst):
            v = real(inst).values.copy()
            v[2, -1, 0, 0] += 2e-6  # the largest B of its row: still nondecreasing
            return IndexTable(v)

        monkeypatch.setattr(cli, "compute_index_table", moved)
        rc = cli.main([
            "index", "--config", str(REPO / "configs" / "toy.json"),
            "--out", str(tmp_path / "idx"), "--verify-oracle",
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert "oracle check on 18 states: max |err| = 2.00e-06" in captured.out
        assert captured.err.startswith("verification failure: index table disagrees")

    def test_oracle_bracket_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        real = whittle.subsidy_pass

        def never_active(instance, nu):
            for u, act in real(instance, nu):
                yield u, np.zeros_like(act)

        monkeypatch.setattr(whittle, "subsidy_pass", never_active)
        rc = cli.main([
            "index", "--config", str(REPO / "configs" / "toy.json"),
            "--out", str(tmp_path / "idx"), "--verify-oracle",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("verification failure: bisection oracle: bracket failure: state "
                              "(T, B, j, tau) = (1, 0, 0, 0) does not turn from active to passive")
        assert err.count("\n") == 1
        assert "Traceback" not in err


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

    def test_printed_table_is_summary_json(self, tmp_path, capsys):
        # the table on stdout shows summary.json's numbers, rounded as printed
        config = tmp_path / "three.json"
        config.write_text(json.dumps({**TINY, "policies": ["llf", "whittle", "edf"]}))
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out),
                       "--paired-baseline", "edf"])
        assert rc == 0
        rows = json.loads((out / "summary.json").read_text())["policies"]
        want = []
        for p in ("llf", "whittle", "edf"):
            line = f"  {p:14s} {rows[p]['mean_reward']:12.3f} +- {rows[p]['ci95_half_width']:.3f}"
            if p != "edf":
                line += (f"   vs edf: {rows[p]['paired_diff_vs_edf']:+.3f}"
                         f" +- {rows[p]['paired_ci95_half_width']:.3f}")
            want.append(line)
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
        assert printed == want

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_still_writes_and_exits_0(self, tiny_config, tmp_path, unbuffered):
        # the reader leaves before the first line, as ``| head -0`` does; with
        # stdout buffered or not, every print after that meets a closed pipe
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        paths = [str(REPO / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        out = tmp_path / "sim"
        proc = subprocess.Popen(
            [sys.executable, "-m", "evbandit", "simulate", "--config", str(tiny_config),
             "--out", str(out), "--seeds", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, err
        assert err == ""
        assert (out / "episodes.csv").read_text().count("\n") == 1 + 2 * 4
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["policies"]) == {"whittle", "edf"}

    def test_seeds_flag_replaces_an_over_budget_count(self, tmp_path):
        # 10**9 seeds x 50 slots x 2 chargers is over WORK_BUDGET; --seeds 4 is what runs
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({**TINY, "seeds": 10**9}))
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--seeds", "4"])
        assert rc == 0
        assert (out / "episodes.csv").read_text().count("\n") == 1 + 2 * 4

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

    @pytest.mark.parametrize("via", ["flag", "key"])
    def test_verify_oracle_records_both_routes(self, via, tmp_path):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({**TINY, "verify_oracle": via == "key"}))
        out = tmp_path / "bnd"
        flag = ["--verify-oracle"] if via == "flag" else []
        rc = cli.main(["bound", "--config", str(config), "--out", str(out), *flag])
        assert rc == 0
        doc = json.loads((out / "bound.json").read_text())
        assert doc["method"] == "both"
        assert doc["lp_value"] == pytest.approx(doc["dual_value"], abs=1e-4)

    def test_cross_check_failure_exits_3(self, tiny_config, tmp_path, monkeypatch, capsys):
        def boom(inst, verify=False, table=None):
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

    @pytest.mark.parametrize("periods", [None, 4], ids=["one-matrix", "four-periods"])
    def test_written_chain_loads_as_the_fitted_one(self, periods, tmp_path):
        """cost_chain.json, as a config's cost block, is the chain the file
        mode fits (a null n_periods is left out, so one matrix)."""
        flags = [] if periods is None else ["--n-periods", str(periods)]
        out = tmp_path / "fit"
        assert cli.main(["fitcost", "--trace", str(FIXTURE_CSV), *flags, "--out", str(out)]) == 0
        written = json.loads((out / "cost_chain.json").read_text())
        fitted = {"file": str(FIXTURE_CSV), "n_periods": periods}
        arrivals = {"n_periods": periods or 1}
        got, want = (instance_from_dict({"arrivals": arrivals, "cost": cost}).cost
                     for cost in (written, fitted))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.P, want.P)

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        rc = cli.main([
            "fitcost", "--trace", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "fit"),
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


@pytest.mark.parametrize("flag", [
    "--n-periods=0", "--n-periods=-1", "--n-periods=1000000000",
    "--alpha=-1", "--alpha=nan", "--alpha=inf",
    "--slot-minutes=nan", "--slot-minutes=inf", "--slot-minutes=1e-300",
    "--retail-price=nan", "--retail-price=inf", "--retail-price=1e-320",
])
def test_fitcost_bad_arguments_exit_2(flag, tmp_path, capsys):
    rc = cli.main(["fitcost", "--trace", str(FIXTURE_CSV), flag, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "cost_chain.json").exists()


ANY_FLOAT = st.one_of(st.floats(),
                      st.sampled_from([math.nan, math.inf, 0.0, -1.0, 1e-300, 1e-3]))
# flag: (valid values, any value); each example fuzzes one or two flags
FITCOST_ARGS = {
    "--k": (st.sampled_from([1, 2, 5]), st.one_of(st.integers(-2, 10), st.just(10**12))),
    "--slot-minutes": (st.sampled_from([15.0, 60.0, 240.0]), ANY_FLOAT),
    "--alpha": (st.sampled_from([0.0, 0.5, 3.0]), ANY_FLOAT),
    "--retail-price": (st.sampled_from([None, 1.0, 80.0]), st.one_of(st.none(), ANY_FLOAT)),
    "--n-periods": (st.sampled_from([None, 1, 24]),
                    st.one_of(st.none(), st.integers(-2, 1000), st.just(10**9))),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fitcost_arguments_keep_the_exit_contract(data):
    fuzzed = data.draw(st.sets(st.sampled_from(sorted(FITCOST_ARGS)), min_size=1, max_size=2))
    argv = ["fitcost", "--trace", str(FIXTURE_CSV)]
    for flag, (valid, anything) in FITCOST_ARGS.items():
        value = data.draw(anything if flag in fuzzed else valid, label=flag)
        if value is not None:
            argv.append(f"{flag}={value!r}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", tmp])
        text = (Path(tmp) / "cost_chain.json").read_text() if rc == 0 else ""
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert err.getvalue().count("\n") == 1
        return
    doc = json.loads(text, parse_constant=_no_constant)
    P = np.array(doc["matrix"] if "matrix" in doc else doc["matrices"])
    assert np.all(P >= 0)
    assert np.allclose(P.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("argv", [
    ["index", "--config", str(REPO / "configs" / "toy.json")],
    ["fitcost", "--trace", str(FIXTURE_CSV)],
])
def test_out_that_is_a_file_exits_2(argv, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(argv + ["--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write to --out")


def test_linear_penalty_table_indexes_every_state(tmp_path, capsys):
    """Equal penalty increments round to ones that fall by about 1e-16, which
    the lead-time-1 knots must absorb rather than refuse."""
    doc = json.loads((REPO / "configs" / "toy.json").read_text())
    table = [0, 0.3, 0.6, 0.9, 1.2]
    assert np.diff(np.diff(table)).min() < 0
    doc["instance"].update(t_max=4, b_max=4, penalty={"table": table})
    p = tmp_path / "linear.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["index", "--config", str(p), "--out", str(tmp_path / "o"), "--verify-oracle"])
    assert rc == 0
    # T = 1..4, B = 0..4, two cost levels: every state goes to the oracle
    assert "oracle check on 40 states" in capsys.readouterr().out


def set_path(doc, path, value):
    """Set ``doc[k1][k2]...`` for a path of keys and list positions."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# T <= 60, B <= 40, 10 cost levels and 4 periods: 96,000 index states
INDEX_TOO_LARGE = {"instance.t_max": 60, "instance.b_max": 40, "instance.arrivals.n_periods": 4,
                   "instance.cost": {"levels": [0.5] * 10, "matrix": np.eye(10).tolist()}}


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
        # its pmf fits, but 1e8 charger states would not: refused before the law is built
        ({"instance.t_max": 10**7}, []),
        ({"instance.b_max": 10**9}, []),
        ({"instance.arrivals.n_periods": 10**9}, []),
        ({"instance.n_chargers": 10**9}, []),
        ({"seeds": 10**9}, []),
        ({}, ["--seeds", str(10**9)]),
        ({"horizon": 10**9}, []),
        ({"instance.cost": {"file": str(FIXTURE_CSV), "k": 2, "n_periods": 10**9}}, []),
        # 400 literal cost levels: with the dense 400 x 400 cost matrix the
        # occupancy LP would hold 4.7e7 nonzeros, about 4.2 GiB to build
        ({"instance.t_max": 12, "instance.b_max": 9,
          "instance.cost": {"levels": [0.5] * 400, "matrix": [[1 / 400] * 400] * 400}}, []),
        # 400 levels on a 1e6-state grid: the law's rewards alone would take 6.4 GB
        ({"instance.t_max": 1000, "instance.b_max": 999,
          "instance.cost": {"levels": [0.5] * 400, "matrix": np.eye(400).tolist()}}, []),
        # its arrays fit, but the index recursion's work bound is 9.2e9 units
        (INDEX_TOO_LARGE, []),
        ({"instance.n_chargers": 0, "instance.capacity": 0}, []),
        # a cost block takes only its own mode's keys
        ({"instance.cost": {"constant": 0.5, "k": 7}}, []),
        ({"instance.cost.alpha": 0.5}, []),
        ({"instance.cost": {"file": str(FIXTURE_CSV), "matrix": [[1.0]]}}, []),
        # (1 + max |c| + F(b_max)) / (1 - beta) = 1e309 overflows a float
        ({"instance.n_chargers": 3, "instance.penalty": {"table": [0, 1e300, 1e308]}}, []),
        # toy's arrivals say uniform_feasible, which a pmf contradicts
        ({"instance.arrivals.pmf": [[0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]]}, []),
    ],
    ids=[
        "negative-seed", "one-seed", "bool-seeds", "unknown-policy", "seeds-flag-1",
        "no-policies", "repeated-policy", "repeated-seeds", "horizon-string", "horizon-list",
        "tol-string", "t-max-string", "capacity-null", "n-periods-string", "verify-oracle-string",
        "t-max-huge", "t-max-1e7", "b-max-huge", "n-periods-huge", "n-chargers-huge", "seeds-huge",
        "seeds-flag-huge", "horizon-huge", "fitted-periods-huge", "cost-levels-huge",
        "cost-levels-long-grid", "index-work-huge", "no-chargers", "constant-with-k", "levels-with-alpha",
        "file-with-matrix", "magnitude-huge", "uniform-kind-with-pmf",
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


def test_index_over_its_work_budget_exits_2_before_building(tmp_path, capsys, monkeypatch):
    def not_refused(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "compute_index_table", not_refused)
    doc = json.loads((REPO / "configs" / "toy.json").read_text())
    for path, value in INDEX_TOO_LARGE.items():
        set_path(doc, path.split("."), value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        rc = cli.main(["index", "--config", str(p), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: run too large: its index table") and err.count("\n") == 1
    assert peak < 5 << 20


@pytest.mark.parametrize("command", ["index", "bound"])
def test_no_chargers_exits_2(command, tmp_path, capsys):
    """Every command refuses a station without chargers (simulate: the
    no-chargers case above); the bound used to divide by zero."""
    doc = json.loads((REPO / "configs" / "toy.json").read_text())
    doc["instance"].update(n_chargers=0, capacity=0)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    rc = cli.main([command, "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: bad instance") and err.count("\n") == 1


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
def test_falling_root_function_names_its_state(command, tmp_path, capsys, monkeypatch):
    """The last E g row with two breakpoints or more, in the first E g
    combine (the one call that passes group=), falls by 1 more than the
    affine part of f rises, so f fails least_roots' monotonicity check, and
    the one error line names that row's state."""
    combine = PWLBatch.combine

    def falling(self, members, weights, group=None):
        out = combine(self, members, weights, group)
        if group is None:
            return out
        row = np.flatnonzero(out.n >= 2)[-1]
        Y = out.Y.copy()
        Y[row, 1] = Y[row, 0] - (out.X[row, 1] - out.X[row, 0]) - 1.0
        return dataclasses.replace(out, Y=Y)

    monkeypatch.setattr(PWLBatch, "combine", falling)
    argv = [command, "--config", str(REPO / "configs" / "toy.json"), "--out", str(tmp_path)]
    rc = cli.main(argv)
    assert rc == 3
    assert capsys.readouterr().err == ("verification failure: f at T=2, B=2, j=1, tau=0: "
                                       "least_root requires a nondecreasing function\n")


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


@pytest.fixture
def huge_penalty_toy(tmp_path):
    """toy with a quadratic penalty of 2e98: its indices lie near 1e99, where
    adjacent floats are far more than the oracle's 2e-8 apart, and HiGHS
    gives up on its valley plans."""
    doc = json.loads(json.dumps(TOY))
    doc["instance"]["penalty"] = {"quadratic": 2e98}
    p = tmp_path / "huge_penalty.json"
    p.write_text(json.dumps(doc))
    return p


def test_huge_penalty_oracle_ends_within_the_contract(huge_penalty_toy, tmp_path):
    """Both oracles pass: the index bisection, and the bound's certificate,
    whose reduced costs cancel duals near 1e99."""
    # a fresh process, so that a bisection that never ends fails on the timeout
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    for command in ("index", "bound"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "evbandit", command,
             "--config", str(huge_penalty_toy), "--verify-oracle", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr


def test_huge_penalty_table_off_by_a_thousand_tolerances_exits_3(huge_penalty_toy, tmp_path,
                                                                 monkeypatch, capsys):
    """The table and the oracle agree near 1e99 to about 3e-17 relative; the
    tolerance scales with the instance, but a table moved by a thousand
    tolerances still fails."""
    real = cli.compute_index_table

    def shifted(inst):
        v = real(inst).values.copy()
        v[1:, 1:] += 1e3 * cli.ORACLE_REL * inst.scale
        return IndexTable(v)

    monkeypatch.setattr(cli, "compute_index_table", shifted)
    rc = cli.main(["index", "--config", str(huge_penalty_toy), "--verify-oracle",
                   "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("verification failure: index table disagrees")


@pytest.mark.parametrize("kappa", [1e36, 1e66, 1e96])
def test_large_penalty_oracle_brackets_every_index(kappa, tmp_path):
    """1 + max |c| rounds away against a penalty increment this large, so the
    T = 1 index 1 - c + dF(b_max) meets the bound on the activation gain; the
    oracle's bracket, twice that bound either way, still holds it; and the
    bound's certificate holds too."""
    doc = json.loads(json.dumps(TOY))
    doc["instance"]["penalty"] = {"quadratic": kappa}
    p = tmp_path / "penalty.json"
    p.write_text(json.dumps(doc))
    for command in ("index", "bound"):
        assert cli.main([command, "--config", str(p), "--verify-oracle", "--out", str(tmp_path)]) == 0


def test_ulp_drop_penalty_passes_both_oracles(tmp_path):
    """toy at b_max 3 with a linear penalty whose increments fall by an ulp,
    so that level 1's indexes cross and its g_1 takes the crossed middle
    piece: index and bound --verify-oracle both pass."""
    doc = json.loads(json.dumps(TOY))
    doc["instance"].update(b_max=3, penalty={"table": [0.0, 0.2, 0.6000000000000001, 1.0]})
    p = tmp_path / "ulp_drop.json"
    p.write_text(json.dumps(doc))
    for command in ("index", "bound"):
        assert cli.main([command, "--config", str(p), "--verify-oracle", "--out", str(tmp_path)]) == 0


def test_tied_indexes_at_a_large_penalty_pass_the_monotonicity_check(tmp_path):
    """index(2, 3, j=1) lies one rounding (6e-8) below index(2, 2, j=1), near
    3.75e8, which an absolute tolerance of 1e-9 took for a decrease in B."""
    config = tmp_path / "large_penalty.json"
    config.write_text(json.dumps({"instance": {
        "n_chargers": 2, "capacity": 1, "discount": 0.5, "t_max": 3, "b_max": 3,
        "penalty": {"table": [0.0, 7.5e8, 1.5e9, 2.5e9]},
        "cost": {"levels": [0.0, 0.32589638], "matrix": [[1.0, 0.0], [0.0, 1.0]]}}}))
    assert cli.main(["index", "--config", str(config), "--out", str(tmp_path)]) == 0
    v = IndexTable.from_json(tmp_path / "index_table.json", load_run_config(config).instance).values
    assert 0.0 < v[2, 2, 1, 0] - v[2, 3, 1, 0] < 1e-7


def test_long_stay_runs_every_command(tmp_path):
    """A 12-hour stay in 5-minute slots: t_max = 144, b_max = 60 and one cost
    level give 8,785 charger states, whose dense move table (1,177 MiB) the
    size check refused before the law was kept as next-state indices; bound
    --verify-oracle certifies its bound too."""
    config = tmp_path / "long_stay.json"
    config.write_text(json.dumps({"instance": {"t_max": 144, "b_max": 60}, "seeds": 2,
                                  "horizon": 200}))
    assert load_run_config(config).instance.t_max == 144
    for command in (["index"], ["bound"], ["bound", "--verify-oracle"], ["simulate"]):
        assert cli.main([*command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


# bytes of the dense (2, 1, 2,461, 2,461) move table that ``bound
# --verify-oracle`` built at t_max = 60, b_max = 40 while the law was kept that
# way.  On a 2-core x86 host (Python 3.11, numpy 2.4.6, scipy 1.17.1) plain
# ``bound`` peaks at 81 MiB with scipy.optimize imported; the check added
# 139 MiB to that with the dense table and adds 9 MiB without it
DENSE_TABLE_BYTES = 2 * 2461**2 * 8


def test_verify_oracle_adds_under_half_the_dense_table(tmp_path):
    """The certificate, which builds no LP, adds to plain ``bound``'s peak
    RSS, both with scipy.optimize imported, less than half the dense table."""
    config = tmp_path / "long_stay.json"
    config.write_text(json.dumps({"instance": {"t_max": 60, "b_max": 40}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    report = ("import resource, sys, scipy.optimize; from evbandit.cli import main; "
              "rc = main(sys.argv[1:]); print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    # Linux carries the forking process's peak RSS through a child's exec into
    # the child's ru_maxrss, so each command runs as a small launcher's child,
    # not as the test process's
    launch = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"

    def peak_kib(*flags):
        proc = subprocess.run(
            [sys.executable, "-c", launch, sys.executable, "-c", report, "bound", "--config",
             str(config), *flags, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        rc, kib = proc.stdout.splitlines()[-1].split()
        assert rc == "0", proc.stderr
        return int(kib)

    assert 1024 * (peak_kib("--verify-oracle") - peak_kib()) < DENSE_TABLE_BYTES / 2


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json"))
                         + sorted((REPO / "perfbench" / "workloads").glob("*.json")),
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_shipped_oracle_tolerance_is_absolute(path):
    assert cli.oracle_tolerance(load_run_config(path).instance) == cli.ORACLE_TOL == 1e-6


def test_huge_penalty_valley_failure_exits_3(huge_penalty_toy, tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(huge_penalty_toy), "--out", str(tmp_path),
                   "--seeds", "2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("verification failure: valley-filling plan failed")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.usefixtures("no_child_left")
def test_huge_penalty_valley_failure_in_two_shards_exits_3(huge_penalty_toy, tmp_path, capfd,
                                                          monkeypatch):
    """Every shard's planner fails; the parent joins its child and reports
    the serial run's error, and neither process prints a traceback."""
    argv = ["simulate", "--config", str(huge_penalty_toy), "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    serial = capfd.readouterr().err
    monkeypatch.setattr(sim, "_shard_count", lambda n_seeds, work: 2)
    assert cli.main(argv) == 3
    err = capfd.readouterr().err
    assert err == serial and err.startswith("verification failure: valley-filling plan failed")
    assert "Traceback" not in err


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
# interchange swaps, before the simulator drew one world for all policies;
# the dynamic_cost and fig4_full_capacity simulations, the K=5, 4-period
# Whittle lookup and the M >= N selection, before the simulator selected by a
# packed-key table); a refactor must leave them byte-identical
PINNED = {
    ("simulate", "toy", "episodes.csv"):
        "cd8175b9edc4421263861bdd7b3274b94b96929e9c57bf025b1765e9826d9a7f",
    ("simulate", "toy", "summary.json"):
        "6b0a8e6fb78e4fe05fdf4eb83107e798d4bdec9c5d957753b2616c477f609db6",
    ("index", "toy", "index_table.csv"):
        "21e478d8e21ab78f41f0d480d673f6ec56713ecb3305f1338eb065bb3e10aa67",
    ("index", "fig3_constant_cost", "index_table.csv"):
        "fee6319e64c5644f09ca8dbda5557060c3459bdce911f96587d2d35cb2f4ddf4",
    ("index", "dynamic_cost", "index_table.csv"):
        "e7943697126a75b2ea087d86aa61659f8a9d0558a6fbb99a068f850b651830cc",
    ("simulate", "fig3_constant_cost", "episodes.csv"):
        "3081844ae0d668702919f28db6c9d3d5aaa51e25d8f16402bf344b9922eba84a",
    ("simulate", "fig3_constant_cost", "summary.json"):
        "e242e73a2abb78b498dce545ac57ced3e5d898dddeedf6383808fe8d3bacbe77",
    ("simulate", "dynamic_cost", "episodes.csv"):
        "f85b7a40c042bda564aa2e314dca138c76ba4e40d824f5d41d21deee758891b0",
    ("simulate", "dynamic_cost", "summary.json"):
        "fc31c7042735c22bd5d79bfd452dfd11a75bb201bc635ffcd956ca248f08885f",
    ("simulate", "fig4_full_capacity", "episodes.csv"):
        "54f496934b7ac4e99b7870bd441b02b8c3cc9019dca0f5f882b01e74e3f5873a",
    ("simulate", "fig4_full_capacity", "summary.json"):
        "1cc56c25fb4163443d3acbf278b9ad32d0ac9e03d00fdfb7f1265e7788c85e76",
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


def count_builds(monkeypatch, *modules):
    """Record each module's calls of ``compute_index_table`` by module name."""
    calls = []
    for mod in modules:
        real = mod.compute_index_table

        def counted(inst, real=real, name=mod.__name__):
            calls.append(name)
            return real(inst)

        monkeypatch.setattr(mod, "compute_index_table", counted)
    return calls


@pytest.mark.parametrize("config", ["toy", "fig3_constant_cost"])
def test_simulate_and_bound_reuse_the_written_table(config, tmp_path, monkeypatch, capsys):
    """After ``index`` into one --out, simulate and bound build no table and
    write what cold runs write: the pinned simulate hashes, the cold bound."""
    path = str(REPO / "configs" / f"{config}.json")
    warm, cold = str(tmp_path / "warm"), str(tmp_path / "cold")
    assert cli.main(["bound", "--config", path, "--out", cold, "--verify-oracle"]) == 0
    assert cli.main(["index", "--config", path, "--out", warm]) == 0
    builds = count_builds(monkeypatch, sim, bound)
    assert cli.main(["simulate", "--config", path, "--out", warm, "--seeds", "8"]) == 0
    assert cli.main(["bound", "--config", path, "--out", warm, "--verify-oracle"]) == 0
    assert builds == []
    assert capsys.readouterr().out.count(f"reused {warm}/index_table.json\n") == 2
    for name in ("episodes.csv", "summary.json"):
        got = hashlib.sha256((tmp_path / "warm" / name).read_bytes()).hexdigest()
        assert got == PINNED[("simulate", config, name)]
    assert (tmp_path / "warm" / "bound.json").read_bytes() == \
        (tmp_path / "cold" / "bound.json").read_bytes()


def _other_discount(path, inst, mp):
    other = dataclasses.replace(inst, discount=0.8)
    whittle.compute_index_table(other).to_json(path, other)


def _edit_value(path, inst, mp):
    doc = json.loads(path.read_text())
    doc["index"][2][-1][0][0] += 2e-6  # the largest B of its row: still nondecreasing
    path.write_text(json.dumps(doc))


def _drop_key(path, inst, mp):
    doc = json.loads(path.read_text())
    del doc["key"]
    path.write_text(json.dumps(doc))


def _wrong_shape(path, inst, mp):
    # keyed for this instance, so only the shape check turns it away
    IndexTable(IndexTable.from_json(path, inst).values[:-1]).to_json(path, inst)


def _failed_check(path, inst, mp):
    # keyed for this instance, so only the constructor's checks turn it away
    doc = json.loads(path.read_text())
    doc["index"][0][1][0][0] = 1.0
    doc["key"] = whittle._table_key(inst, np.asarray(doc["index"], dtype=float))
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("damage", [
    _other_discount,
    _edit_value,
    lambda path, inst, mp: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    lambda path, inst, mp: path.write_bytes(b"\xff\x00 not json"),
    lambda path, inst, mp: path.write_text(json.dumps(json.loads(path.read_text())["index"])),
    _drop_key,
    lambda path, inst, mp: mp.setattr(whittle, "__version__", "0.0.0"),
    _wrong_shape,
    _failed_check,
    lambda path, inst, mp: (path.unlink(), path.mkdir()),
], ids=["other-discount", "edited-value", "truncated", "garbage", "json-list", "no-key",
        "other-version", "wrong-shape", "failed-check", "directory"])
def test_unmatched_table_is_rebuilt(damage, tiny_config, tmp_path, monkeypatch, capsys):
    """A table that is not provably the instance's is built again, and the
    outputs are those of cold runs."""
    out = tmp_path / "warm"
    assert cli.main(["index", "--config", str(tiny_config), "--out", str(out)]) == 0
    damage(out / "index_table.json", load_run_config(tiny_config).instance, monkeypatch)
    builds = count_builds(monkeypatch, sim, bound)
    for d in (out, tmp_path / "cold"):
        assert cli.main(["simulate", "--config", str(tiny_config), "--out", str(d)]) == 0
        assert cli.main(["bound", "--config", str(tiny_config), "--out", str(d)]) == 0
    captured = capsys.readouterr()
    assert builds == ["evbandit.sim", "evbandit.bound"] * 2
    assert captured.out.count("building the index table: no ") == 4
    assert captured.err == ""
    for name in ("episodes.csv", "summary.json", "bound.json"):
        assert (out / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_index_builds_over_a_matching_table(tiny_config, tmp_path, monkeypatch):
    out = tmp_path / "idx"
    argv = ["index", "--config", str(tiny_config), "--out", str(out)]
    assert cli.main(argv) == 0
    assert IndexTable.from_json(out / "index_table.json", load_run_config(tiny_config).instance)
    builds = count_builds(monkeypatch, cli)
    assert cli.main(argv) == 0
    assert builds == ["evbandit.cli"]


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
