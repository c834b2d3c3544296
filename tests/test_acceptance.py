"""Acceptance suite: one test per headline claim, each printing a scorecard line.

This module runs the desk-scale benchmarks end to end (200 paired seeds on the
10-charger instances), so it takes on the order of a minute.  Everything else
in the test tree stays fast.  Scorecard lines are written past the capture so
they always appear in the pytest output.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from evbandit import cli
from evbandit.bound import solve_bound
from evbandit.config import load_run_config
from evbandit.model import ArrivalModel, CostChain, Instance, PenaltyFunction
from evbandit.sim import monte_carlo
from evbandit.whittle import compute_index_table, index_by_bisection, solve_subsidy

from conftest import periodic_two_cost_instance
from oracles import (
    _solve_lp,
    brute_force_joint_dp,
    check_indexability,
    closed_form_index,
    evaluate_policy_exact,
    highs_outside_bracket,
    index_by_vi_bisection,
    policy_kernel,
    reference_occupancy_lp,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scorecard(capsys, n: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {n} {verdict}: {name} ({detail})", flush=True)


def _benchmark(config_name: str):
    cfg = load_run_config(CONFIGS / config_name)
    report = monte_carlo(
        cfg.instance, cfg.policies, cfg.seeds, horizon=cfg.horizon, baseline=cfg.baseline
    )
    bound = solve_bound(cfg.instance).value
    return cfg.instance, report, bound


@pytest.fixture(scope="module")
def fig3():
    return _benchmark("fig3_constant_cost.json")


@pytest.fixture(scope="module")
def fig4():
    return _benchmark("fig4_full_capacity.json")


@pytest.fixture(scope="module")
def dyn():
    return _benchmark("dynamic_cost.json")


def _random_small_instance(rng: np.random.Generator) -> Instance:
    k = int(rng.integers(1, 3))
    n_tau = int(rng.integers(1, 3))
    levels = np.sort(rng.uniform(0.1, 0.9, size=k))
    if n_tau > 1 and rng.random() < 0.5:
        cost = CostChain(
            values=levels,
            P=np.stack([rng.dirichlet(np.ones(k), size=k) for _ in range(n_tau)]),
        )
    else:
        cost = CostChain(values=levels, P=rng.dirichlet(np.ones(k), size=k))
    n = int(rng.integers(2, 5))
    return Instance(
        n_chargers=n,
        capacity=int(rng.integers(1, n + 1)),
        discount=float(rng.uniform(0.8, 0.95)),
        t_max=3,
        b_max=3,
        penalty=PenaltyFunction.quadratic(float(rng.uniform(0.1, 0.6)), 3),
        arrivals=ArrivalModel.uniform_feasible(
            3, 3, rho=rng.uniform(0.2, 0.9, size=n_tau), n_periods=n_tau
        ),
        cost=cost,
    )


def test_criterion_1_closed_form_matches_the_recursion(capsys):
    inst = load_run_config(CONFIGS / "fig3_constant_cost.json").instance
    t0 = time.perf_counter()
    table = compute_index_table(inst)
    dt = time.perf_counter() - t0
    worst = 0.0
    for T in range(1, inst.t_max + 1):
        for B in range(inst.b_max + 1):
            ref = closed_form_index(T, B, 0.5, inst.discount, inst.penalty)
            worst = max(worst, abs(float(table.values[T, B, 0, 0]) - ref))
    ok = worst < 1e-9 and dt < 5.0
    scorecard(capsys, 1, "closed form == recursion on the constant-cost grid",
              ok, f"max err {worst:.2e}, {dt:.2f}s")
    assert worst < 1e-9
    assert dt < 5.0


def test_criterion_2_recursion_matches_the_bisection_oracle(capsys):
    inst = periodic_two_cost_instance()
    t0 = time.perf_counter()
    table = compute_index_table(inst)
    worst = 0.0
    n = 0
    for T in range(1, inst.t_max + 1):
        for B in range(inst.b_max + 1):
            for j in range(inst.cost.n_levels):
                for tau in range(inst.n_periods):
                    ref = index_by_vi_bisection(inst, (T, B, j, tau), tol=1e-8)
                    worst = max(worst, abs(float(table.values[T, B, j, tau]) - ref))
                    n += 1
    # the every-state oracle of index --verify-oracle, on the exact backward pass
    exact = float(np.abs(table.values - index_by_bisection(inst)).max())
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and exact < 1e-6 and dt < 60.0
    scorecard(capsys, 2, "recursion == bisection oracles on the periodic 2-cost instance",
              ok, f"{n} states, max err {worst:.2e} (value iteration), "
                  f"{exact:.2e} (exact pass), {dt:.1f}s")
    assert worst < 1e-6
    assert exact < 1e-6
    assert dt < 60.0


def test_criterion_3_indexability_and_index_structure(capsys):
    rng = np.random.default_rng(20250815)
    worst_mono = 0.0
    worst_conc = 0.0
    for _ in range(20):
        inst = _random_small_instance(rng)
        span = 1.0 + inst.penalty.max_increment + float(np.abs(inst.cost.values).max())
        assert check_indexability(inst, np.linspace(-span, span, 21))
        table = compute_index_table(inst)
        for T in range(1, inst.t_max + 1):
            for B in range(T, inst.b_max):
                for j in range(inst.cost.n_levels):
                    for tau in range(inst.n_periods):
                        gap = float(table.values[T, B, j, tau]) - float(table.values[T, B + 1, j, tau])
                        worst_mono = max(worst_mono, gap)
        for nu in (-0.5, 0.0, 0.5):
            V = solve_subsidy(inst, nu).values
            for T in range(1, inst.t_max + 1):
                for B in range(T, inst.b_max - 1):
                    bend = V[T, B + 2] + V[T, B] - 2.0 * V[T, B + 1]
                    worst_conc = max(worst_conc, float(bend.max()))
    ok = worst_mono < 1e-9 and worst_conc < 1e-9
    scorecard(capsys, 3, "indexable on 20 random instances; index monotone and value concave past the diagonal",
              ok, f"monotonicity margin {worst_mono:.2e}, concavity margin {worst_conc:.2e}")
    assert worst_mono < 1e-9
    assert worst_conc < 1e-9


def test_criterion_4_full_capacity_hits_the_bound(capsys, fig4):
    inst, report, bound = fig4
    mean, half = report.mean_ci("whittle")
    interchanges = int(report.metrics["interchanges"][report.policies.index("whittle+lllp")].sum())
    ok = abs(mean - bound) <= half and interchanges == 0
    scorecard(capsys, 4, "at full capacity the index policy matches the relaxation bound",
              ok, f"MC {mean:.2f} +- {half:.2f} vs bound {bound:.2f}; {interchanges} interchanges")
    assert abs(mean - bound) <= half
    assert interchanges == 0


def test_criterion_5_no_policy_beats_the_bound(capsys, fig3, fig4, dyn, toy_dynamic):
    margin = np.inf
    for inst, report, bound in (fig3, fig4, dyn):
        for p in report.policies:
            mean, half = report.mean_ci(p)
            margin = min(margin, bound + half - mean)

    dp = brute_force_joint_dp(toy_dynamic)[0]
    tab = compute_index_table(toy_dynamic)
    deciders = {
        name: policy_kernel(name, toy_dynamic, tab)
        for name in ("whittle", "whittle+lllp", "edf", "llf")
    }
    best_heur = max(
        evaluate_policy_exact(toy_dynamic, d, tol=1e-9) for d in deciders.values()
    )
    toy_bound = solve_bound(toy_dynamic).value
    sandwich = best_heur <= dp + 1e-7 and dp <= toy_bound + 1e-7
    ok = margin >= 0.0 and sandwich
    scorecard(capsys, 5, "every simulated mean stays under its bound; toy DP sits between heuristics and bound",
              ok, f"min slack {margin:.2f}; toy {best_heur:.4f} <= {dp:.4f} <= {toy_bound:.4f}")
    assert margin >= 0.0
    assert best_heur <= dp + 1e-7
    assert dp <= toy_bound + 1e-7


def test_criterion_6_constant_cost_ordering(capsys, fig3):
    inst, report, bound = fig3
    m_wl, _ = report.mean_ci("whittle+lllp")
    m_llf, _ = report.mean_ci("llf")
    d_eq, h_eq = report.paired("whittle+lllp", "llf")
    equivalent = abs(d_eq) + h_eq <= 0.02 * bound
    near_bound = m_wl >= 0.95 * bound and m_llf >= 0.95 * bound
    d1, h1 = report.paired("whittle+lllp", "edf")
    d2, h2 = report.paired("llf", "edf")
    edf_worst = (d1 - h1 > 0.0) and (d2 - h2 > 0.0)
    ok = equivalent and near_bound and edf_worst
    scorecard(capsys, 6, "constant cost: index policy ~ LLF near the bound, EDF strictly behind",
              ok,
              f"wl-llf {d_eq:+.2f}+-{h_eq:.2f} within +-{0.02 * bound:.1f}; "
              f"wl at {100 * m_wl / bound:.1f}% of bound; wl-edf {d1:+.2f}+-{h1:.2f}")
    assert equivalent
    assert near_bound
    assert edf_worst


def test_criterion_7_dynamic_cost_gains(capsys, dyn):
    inst, report, bound = dyn
    m_wl, _ = report.mean_ci("whittle+lllp")
    m_edf, _ = report.mean_ci("edf")
    d, h = report.paired("whittle+lllp", "whittle")
    ratio = m_wl / m_edf
    ok = m_edf > 0.0 and ratio >= 1.4 and d - h > 0.0
    scorecard(capsys, 7, "dynamic cost: index policy >= 1.4x EDF and the interchange pays",
              ok, f"ratio {ratio:.2f}; lllp gain {d:+.3f}+-{h:.3f}")
    assert m_edf > 0.0
    assert ratio >= 1.4
    assert d - h > 0.0


def test_criterion_8_lp_and_dual_agree(capsys):
    """The dual's LP certificate holds, and HiGHS's optimum of the occupancy
    LP lies in its bracket up to HiGHS's own tolerance."""
    rng = np.random.default_rng(8)
    worst, outside = 0.0, -np.inf
    for _ in range(10):
        inst = _random_small_instance(rng)
        res = solve_bound(inst, verify=True)
        worst = max(worst, abs(res.lp_value - res.dual_value))
        value, _ = _solve_lp(reference_occupancy_lp(inst))
        outside = max(outside, highs_outside_bracket(value, res, inst.n_chargers))
    ok = worst <= 1e-4 and outside <= 0.0
    scorecard(capsys, 8, "occupancy LP and Lagrangian dual agree on 10 random instances",
              ok, f"max gap {worst:.2e}, HiGHS in the bracket")
    assert worst <= 1e-4
    assert outside <= 0.0


def test_criterion_9_reruns_are_bit_identical(capsys, tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main([
            "simulate", "--config", str(CONFIGS / "toy.json"),
            "--out", str(out), "--seeds", "8",
        ])
        assert rc == 0
        outputs.append(
            ((out / "episodes.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    scorecard(capsys, 9, "identical config and seeds give bit-identical outputs", ok, "episodes.csv + summary.json")
    assert ok
