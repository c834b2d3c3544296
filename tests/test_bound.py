import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit import bound, cli
from evbandit.bound import BoundResult, solve_bound, _dual
from evbandit.config import load_run_config
from evbandit.model import CostChain
from evbandit.whittle import (compute_index_table, solve_subsidy, subsidy_value_iteration,
                              value_iteration_sweeps)
from conftest import TWO_STATE_COST, make_instance, periodic_two_cost_instance
from oracles import (_solve_lp, activation_frequency, arm_mdp, basis_by_spsolve,
                     highs_outside_bracket, kronecker_occupancy_lp, lp_matrices,
                     reference_occupancy_lp)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORKLOADS = CONFIGS.parent / "perfbench" / "workloads"


def shipped(name: str):
    return load_run_config(CONFIGS / name).instance


def periodic_instance():
    p0 = np.array([[0.8, 0.2], [0.3, 0.7]])
    p1 = np.array([[0.6, 0.4], [0.5, 0.5]])
    chain = CostChain(values=np.array([0.2, 0.9]), P=np.stack([p0, p1]))
    return make_instance(
        n_chargers=4, capacity=2, t_max=3, b_max=2, cost=chain, n_periods=2, rho=[0.4, 0.9]
    )


def four_period_instance():
    mats = [[[0.8, 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.5, 0.5]],
            [[1.0, 0.0], [0.9, 0.1]], [[0.2, 0.8], [0.0, 1.0]]]
    chain = CostChain(values=np.array([0.2, 0.9]), P=np.array(mats))
    return make_instance(
        n_chargers=4, capacity=2, t_max=3, b_max=2, cost=chain, n_periods=4,
        rho=[0.4, 0.9, 0.6, 0.0],
    )


def random_chain_instance(seed: int, n_periods: int):
    """A 2-3 level cost chain with one random matrix per period, some entries zero."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    P = rng.dirichlet(np.ones(k), size=(n_periods, k))
    P = np.where((rng.random(P.shape) < 0.3) & ~np.eye(k, dtype=bool), 0.0, P)
    chain = CostChain(values=rng.uniform(0.0, 1.0, k), P=P / P.sum(axis=2, keepdims=True))
    t_max = int(rng.integers(2, 5))
    return make_instance(
        n_chargers=4, capacity=int(rng.integers(1, 4)), discount=float(rng.uniform(0.8, 0.97)),
        t_max=t_max, b_max=int(rng.integers(1, t_max + 1)), kappa=float(rng.uniform(0.1, 1.0)),
        rho=rng.uniform(0.3, 1.0, n_periods).tolist(), cost=chain, n_periods=n_periods,
    )


VACANCY_CASES = ["toy.json", "fig3_constant_cost.json", "dynamic_cost.json", "periodic",
                 "four_period", *(f"random-{nt}-{seed}" for nt in (1, 2, 3) for seed in range(3))]


def vacancy_case(name: str):
    """A shipped config, a fixture instance, or random-<periods>-<seed>."""
    if name.endswith(".json"):
        return shipped(name)
    if name.startswith("random"):
        _, nt, seed = name.split("-")
        return random_chain_instance(int(seed), int(nt))
    return periodic_instance() if name == "periodic" else four_period_instance()


def enumerate_deterministic_optimum(instance) -> float:
    """Best stationary deterministic single-charger policy, by brute force.

    Exact policy evaluation via a linear solve, maximized over all 2^n action
    assignments.  Only usable on tiny arms.
    """
    p0, p1, r0, r1, mu0 = arm_mdp(instance)
    n = mu0.size
    assert n <= 16, "enumeration oracle is for tiny instances only"
    beta = instance.discount
    best = -np.inf
    for acts in itertools.product([0, 1], repeat=n):
        a = np.array(acts, dtype=bool)
        p = np.where(a[:, None], p1, p0)
        r = np.where(a, r1, r0)
        v = np.linalg.solve(np.eye(n) - beta * p, r)
        best = max(best, float(mu0 @ v))
    return best


@pytest.fixture(scope="module")
def tiny():
    return make_instance(
        n_chargers=3, capacity=3, t_max=2, b_max=1, kappa=0.5, rho=0.4, cost=0.3
    )


class TestAgainstEnumeration:
    def test_lp_matches_policy_enumeration_at_full_capacity(self, tiny):
        lp_value, _ = _solve_lp(reference_occupancy_lp(tiny))
        want = tiny.n_chargers * enumerate_deterministic_optimum(tiny)
        assert tiny.n_chargers * lp_value == pytest.approx(want, abs=1e-6)

    def test_dual_matches_policy_enumeration_at_full_capacity(self, tiny):
        res = solve_bound(tiny)
        want = tiny.n_chargers * enumerate_deterministic_optimum(tiny)
        assert res.dual_value == pytest.approx(want, abs=1e-6)
        assert res.lam == 0.0


class TestDualEqualsLP:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_chargers=4, capacity=1, t_max=3, b_max=2, rho=0.8, cost=0.5),
            dict(n_chargers=5, capacity=2, t_max=4, b_max=3, kappa=0.25, rho=0.6),
            dict(n_chargers=3, capacity=1, t_max=3, b_max=3, kappa=0.6, rho=0.9),
        ],
    )
    def test_fixed_instances(self, kwargs):
        kwargs.setdefault("cost", TWO_STATE_COST)
        if kwargs.get("b_max", 2) > 2:
            kwargs["kappa"] = kwargs.get("kappa", 0.4)
        inst = make_instance(**kwargs)
        res = solve_bound(inst, verify=True)
        assert res.lp_value == pytest.approx(res.dual_value, abs=1e-4 * inst.n_chargers)
        value, _ = _solve_lp(reference_occupancy_lp(inst))
        assert highs_outside_bracket(value, res, inst.n_chargers) <= 0.0

    def test_periodic_instance(self):
        inst = periodic_instance()
        res = solve_bound(inst, verify=True)
        assert res.lp_value == pytest.approx(res.dual_value, abs=4e-4)
        value, _ = _solve_lp(reference_occupancy_lp(inst))
        assert highs_outside_bracket(value, res, inst.n_chargers) <= 0.0


class TestExactDual:
    @pytest.mark.parametrize("name,pieces", [("toy_dynamic", None), ("periodic", None),
                                             ("fig3_constant_cost.json", 2)])
    def test_activations_match_the_sparse_occupancy(self, name, pieces, toy_dynamic):
        """f from ``SubsidySolution.activations`` against the occupancy solve
        of ``oracles.activation_frequency``, at the midpoints of the dual's
        pieces: every piece of the two small instances, both sides of fig3's
        first kink."""
        if name == "toy_dynamic":
            inst = toy_dynamic
        else:
            inst = periodic_instance() if name == "periodic" else shipped(name)
        values = compute_index_table(inst).values
        kinks = np.unique(values[values > 0])
        edges = np.concatenate([[0.0], kinks, [kinks[-1] + 1.0]])
        lams = (0.5 * (edges[:-1] + edges[1:]))[:pieces]
        pi, beta = inst.cost.stationary(), inst.discount
        got = [(1 - beta) * pi @ solve_subsidy(inst, lam).activations[0, 0, :, 0] for lam in lams]
        want = [activation_frequency(inst, lam) for lam in lams]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.max(-np.diff(want)) > 1e-4  # a kink among them moves f

    @pytest.mark.parametrize("name", ["fig3_constant_cost.json", "toy.json"])
    def test_lambda_is_exactly_zero_where_the_budget_is_slack(self, name):
        inst = shipped(name)
        res = solve_bound(inst)
        assert res.lam == 0.0
        assert res.activation_frequency <= inst.capacity / inst.n_chargers

    def test_lambda_minimizes_the_dual_on_dynamic_cost(self):
        inst = shipped("dynamic_cost.json")
        res = solve_bound(inst)
        assert res.lam > 0.0
        assert res.activation_frequency <= inst.capacity / inst.n_chargers
        for step in (-1e-7, 1e-7):
            assert res.dual_value <= inst.n_chargers * _dual(inst, res.lam + step)[0]

    @pytest.mark.parametrize("name", ["fig3_constant_cost.json", "dynamic_cost.json"])
    def test_at_most_ten_subsidy_solves(self, name, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_subsidy(*args, **kwargs)

        monkeypatch.setattr(bound, "solve_subsidy", counted)
        solve_bound(shipped(name))
        assert 1 <= len(calls) <= 10


def wrong_hint(kind: str):
    """``bound._exact_dual`` with one thing made wrong: ``lambda`` moved to
    the next index value above the nearest one, the right piece's ``action``
    flipped at the state of the largest index (active at lambda*, whose index
    lies far above), or the dual ``value`` raised by 2e-4 per charger."""
    real = bound._exact_dual

    def wrong(instance, table):
        lam, value, freq, (act_lo, act_hi) = real(instance, table)
        values = compute_index_table(instance).values
        if kind == "lambda":
            kinks = np.unique(values[values > 0])
            lam = float(kinks[np.argmin(np.abs(kinks - lam)) + 1])
        elif kind == "action":
            assert values.max() > lam + 0.1
            act_hi = act_hi.copy()
            act_hi[np.unravel_index(np.argmax(values), values.shape)] ^= 1
        else:
            value += 2e-4
        return lam, value, freq, (act_lo, act_hi)

    return wrong


class TestCertificate:
    """``solve_bound(verify=True)`` certifies the dual from the LP's entries,
    read off the law: no LP solver and no extra subsidy solve, a bracket of at most
    1e-8 per charger on the shipped and benchmark configs, and a failure for
    each wrong hint."""

    @pytest.mark.parametrize("path", [*(CONFIGS / f"{name}.json" for name in (
        "toy", "fig3_constant_cost", "fig4_full_capacity", "dynamic_cost")),
        *sorted(WORKLOADS.glob("*.json"))], ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_tight_bracket_without_an_lp_solver(self, path, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the certificate solves no LP")

        monkeypatch.setattr(bound, "linprog", no_lp)
        inst = load_run_config(path).instance
        res = solve_bound(inst, verify=True)
        assert res.method == "both"
        assert res.lp_value <= res.lp_upper <= res.lp_value + 1e-8 * inst.n_chargers
        tol = 1e-8 * inst.n_chargers
        assert res.lp_value - tol <= res.dual_value <= res.lp_upper + tol

    def test_no_extra_subsidy_solve(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_subsidy(*args, **kwargs)

        inst = shipped("dynamic_cost.json")
        table = compute_index_table(inst)
        monkeypatch.setattr(bound, "solve_subsidy", counted)
        solve_bound(inst, table=table)
        plain = len(calls)
        solve_bound(inst, verify=True, table=table)
        assert len(calls) == 2 * plain

    @pytest.mark.parametrize("kind", ["lambda", "action", "value"])
    def test_wrong_hint_fails(self, kind, monkeypatch):
        inst = shipped("dynamic_cost.json")
        assert solve_bound(inst).lam > 0.0  # both pieces' policies are hints
        monkeypatch.setattr(bound, "_exact_dual", wrong_hint(kind))
        with pytest.raises(RuntimeError, match="LP bracket"):
            solve_bound(inst, verify=True)

    @pytest.mark.parametrize("kind", ["lambda", "action", "value"])
    def test_wrong_hint_exits_3_with_one_line(self, kind, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(bound, "_exact_dual", wrong_hint(kind))
        rc = cli.main(["bound", "--config", str(CONFIGS / "dynamic_cost.json"), "--verify-oracle",
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("verification failure: LP bracket")
        assert not (tmp_path / "bound.json").exists()


class TestBasisSweep:
    """``bound._basis_solver``'s sweeps against scipy's sparse LU of the same
    basis, on random small instances (K 1-3, 1-2 periods) and policies, greedy
    or random."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), n_periods=st.integers(1, 2), t_max=st.integers(1, 4),
           greedy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_sweep_matches_spsolve(self, k, n_periods, t_max, greedy, seed):
        rng = np.random.default_rng(seed)
        P = rng.dirichlet(np.ones(k), size=(n_periods, k))
        P = np.where((rng.random(P.shape) < 0.3) & ~np.eye(k, dtype=bool), 0.0, P)
        chain = CostChain(values=rng.uniform(0.0, 1.0, k), P=P / P.sum(axis=2, keepdims=True))
        b_max = int(rng.integers(1, t_max + 1))
        inst = make_instance(
            n_chargers=4, capacity=int(rng.integers(1, 4)), discount=float(rng.uniform(0.5, 0.99)),
            t_max=t_max, b_max=b_max, kappa=float(rng.uniform(0.1, 1.0)), cost=chain,
            rho=rng.uniform(0.0, 1.0, n_periods).tolist(), n_periods=n_periods,
        )
        if greedy:
            act = solve_subsidy(inst, float(rng.uniform(0.0, 1.5))).actions
        else:
            act = rng.integers(0, 2, (t_max + 1, b_max + 1, k, n_periods)).astype(np.int8)
        lp, price = reference_occupancy_lp(inst), float(rng.uniform(0.0, 10.0))
        x, y = bound._basis_solver(inst)[1](act, price)
        want_x, want_y = basis_by_spsolve(lp, act, price)
        assert np.all(np.abs(x - want_x) <= 1e-12 * np.maximum(1.0, np.abs(want_x)))
        assert np.all(np.abs(y - want_y) <= 1e-12 * np.maximum(1.0, np.abs(want_y)))
        assert x[: 2 * lp.n_states].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(lp_matrices(lp)[0] @ x - lp.b_eq).max() <= bound.FEASIBILITY_TOL


class TestStructure:
    def test_occupancy_mass_is_one_and_budget_holds(self, toy_dynamic):
        lp = reference_occupancy_lp(toy_dynamic)
        value, x = _solve_lp(lp)
        assert x.sum() == pytest.approx(1.0, abs=1e-8)
        share = toy_dynamic.capacity / toy_dynamic.n_chargers
        assert x[lp.n_states :].sum() <= share + 1e-8
        res = solve_bound(toy_dynamic, verify=True)
        assert highs_outside_bracket(value, res, toy_dynamic.n_chargers) <= 0.0

    def test_details_toggle(self, toy_dynamic):
        # every field is set but the LP's, which verify adds
        res = solve_bound(toy_dynamic)
        assert isinstance(res, BoundResult)
        assert all(isinstance(x, float) for x in (res.value, res.lam, res.dual_value,
                                                   res.activation_frequency))
        assert res.value == res.dual_value
        assert (res.lp_value, res.lp_upper, res.method) == (None, None, "dual")
        assert res.lam >= 0.0
        assert res.activation_frequency <= toy_dynamic.capacity / toy_dynamic.n_chargers + 1e-6
        checked = solve_bound(toy_dynamic, verify=True)
        assert isinstance(checked.lp_value, float) and checked.method == "both"
        assert isinstance(checked.lp_upper, float) and checked.lp_value <= checked.lp_upper
        assert (checked.value, checked.lam) == (res.value, res.lam)

    def test_monotone_in_budget(self, toy_dynamic):
        import dataclasses

        tighter = dataclasses.replace(toy_dynamic, capacity=1)
        looser = dataclasses.replace(toy_dynamic, capacity=2)
        assert solve_bound(tighter).value <= solve_bound(looser).value + 1e-9


class TestVacancyForm:
    """``oracles.reference_occupancy_lp``'s vacancy form against the Kronecker
    form of ``oracles.kronecker_occupancy_lp``: one optimum, inside the
    certificate's bracket, and the vacancy solution's x part is a feasible
    point of the Kronecker form with that value; and the certificate's
    products, read off ``model.extended_moves``' entries, against the
    reference's matrices, built from the dense move table."""

    @pytest.mark.parametrize("name", VACANCY_CASES)
    def test_same_optimum_and_a_feasible_x(self, name):
        inst = vacancy_case(name)
        lp, ref = reference_occupancy_lp(inst), kronecker_occupancy_lp(inst)
        value, x = _solve_lp(lp)
        want, _ = _solve_lp(ref)
        assert value == pytest.approx(want, rel=1e-9)
        assert lp.n_states == ref.n_states and x.size == 2 * ref.n_states
        np.testing.assert_array_equal(lp.c, np.concatenate([ref.c, np.zeros(lp.c.size - x.size)]))
        assert np.abs(lp_matrices(ref)[0] @ x - ref.b_eq).max() <= 1e-9
        assert (ref.A_ub @ x - ref.b_ub).max() <= 1e-9
        assert x.min() >= 0.0
        assert highs_outside_bracket(value, solve_bound(inst, verify=True), inst.n_chargers) <= 0.0

    @pytest.mark.parametrize("name", [*VACANCY_CASES, "toy_dynamic"])
    def test_equals_the_dense_table_builder(self, name, toy_dynamic):
        """``bound._basis_solver``'s vectors, its ``residual(x)`` = A_eq x - b_eq
        and its ``reduced(y, price)`` = c - A_eq^T y - price a, from the law's
        next-state indices and arrival rows, against the LP built from the
        dense move table: exactly on each unit x and y, column by column and
        row by row, and to 1e-12 of the terms' size on random x, y and price."""
        inst = toy_dynamic if name == "toy_dynamic" else vacancy_case(name)
        ref = reference_occupancy_lp(inst)
        a_eq = lp_matrices(ref)[0].toarray()
        (c, b_eq, budget), _, residual, reduced = bound._basis_solver(inst)
        for got, want in ((c, ref.c), (b_eq, ref.b_eq), (budget, ref.A_ub)):
            np.testing.assert_array_equal(got, want)
        rng = np.random.default_rng(len(name))
        price = float(rng.uniform(0.0, 10.0))
        for i, unit in enumerate(np.eye(c.size)):
            np.testing.assert_array_equal(residual(unit), a_eq[:, i] - ref.b_eq)
        for r, unit in enumerate(np.eye(b_eq.size)):
            np.testing.assert_array_equal(reduced(unit, price), ref.c - a_eq[r] - price * ref.A_ub)
        x, y = rng.normal(size=c.size), rng.normal(size=b_eq.size)
        size = np.abs(a_eq) @ np.abs(x) + np.abs(ref.b_eq)
        assert np.all(np.abs(residual(x) - (a_eq @ x - ref.b_eq)) <= 1e-12 * size)
        size = np.abs(ref.c) + np.abs(a_eq).T @ np.abs(y) + price * ref.A_ub
        assert np.all(np.abs(reduced(y, price) - (ref.c - a_eq.T @ y - price * ref.A_ub)) <= 1e-12 * size)

    def test_under_half_the_nonzeros(self):
        inst = periodic_instance()
        vacancy, kronecker = reference_occupancy_lp(inst), kronecker_occupancy_lp(inst)
        assert 2 * lp_matrices(vacancy)[0].nnz < lp_matrices(kronecker)[0].nnz


@pytest.mark.parametrize("name", [*VACANCY_CASES, "toy_dynamic", "criterion_2"])
def test_value_iteration_matches_the_dense_arm(name, toy_dynamic):
    """``subsidy_value_iteration``, which sweeps ``extended_moves``' entries,
    against plain value iteration on ``oracles.arm_mdp``'s dense matrices with
    the same sweep count: the same values to rounding and the same actions,
    at three subsidies and either side of one of the table's indexes.  The
    dense side runs every subsidy at once, each column for its own count, on
    the matrices' nonzeros (csr) for speed."""
    import scipy.sparse as sp

    inst = {"toy_dynamic": toy_dynamic, "criterion_2": periodic_two_cost_instance()}.get(name)
    inst = inst or vacancy_case(name)
    p0, p1, r0, r1, _ = arm_mdp(inst)
    p0, p1 = sp.csr_matrix(p0), sp.csr_matrix(p1)
    index = np.unique(compute_index_table(inst).values)
    star = float(index[index.size // 2])
    nus = np.array([-0.5, 0.0, 0.5, star - 1e-6, star + 1e-6])
    beta, r_sup = inst.discount, float(np.abs([r0, r1]).max())
    sweeps = np.array([value_iteration_sweeps(r_sup + abs(nu), beta, 1e-9) for nu in nus])
    want = np.zeros((r0.size, nus.size))
    for k in range(sweeps.max()):
        step = np.maximum(r0[:, None] + nus + beta * (p0 @ want), r1[:, None] + beta * (p1 @ want))
        want = np.where(k < sweeps, step, want)
    act = r1[:, None] + beta * (p1 @ want) > r0[:, None] + nus + beta * (p0 @ want)
    for c, nu in enumerate(nus):
        values, actions = subsidy_value_iteration(inst, nu)
        assert np.all(np.abs(values - want[:, c]) <= 1e-12 * np.maximum(1.0, np.abs(want[:, c]))), nu
        np.testing.assert_array_equal(actions, act[:, c].astype(np.int8))


class TestLimits:
    def test_full_capacity_equals_unconstrained_value(self, toy_dynamic):
        import dataclasses

        inst = dataclasses.replace(toy_dynamic, capacity=toy_dynamic.n_chargers)
        res = solve_bound(inst, verify=True)
        sol = solve_subsidy(inst, 0.0)
        pi = inst.cost.stationary()
        v0 = float(pi @ sol.values[0, 0, :, 0])
        assert res.value == pytest.approx(inst.n_chargers * v0, abs=1e-6)

    def test_zero_capacity_is_the_never_charge_value(self, toy_dynamic):
        import dataclasses

        from oracles import brute_force_joint_dp

        inst = dataclasses.replace(toy_dynamic, n_chargers=1, capacity=0)
        res = solve_bound(inst, verify=True)
        dp, _ = brute_force_joint_dp(inst, tol=1e-10)
        assert res.value == pytest.approx(dp, abs=1e-6)
        assert res.value < 0  # penalties only

    def test_value_pinned_on_fixture(self, toy_dynamic):
        # frozen after LP and dual agreed to 8 figures
        assert solve_bound(toy_dynamic).value == pytest.approx(6.777090163505587, abs=1e-5)


def test_bound_dominates_toy_dp(toy_dynamic):
    from oracles import brute_force_joint_dp

    dp, _ = brute_force_joint_dp(toy_dynamic, tol=1e-9)
    assert solve_bound(toy_dynamic).value >= dp - 1e-7
