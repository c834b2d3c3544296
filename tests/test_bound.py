import itertools

import numpy as np
import pytest

from evbandit.arm import build_arm_mdp
from evbandit.bound import BoundResult, build_occupancy_lp, solve_bound, _solve_lp
from evbandit.model import CostChain
from evbandit.whittle import solve_subsidy
from conftest import TWO_STATE_COST, make_instance


def enumerate_deterministic_optimum(instance) -> float:
    """Best stationary deterministic single-charger policy, by brute force.

    Exact policy evaluation via a linear solve, maximized over all 2^n action
    assignments.  Only usable on tiny arms.
    """
    arm = build_arm_mdp(instance)
    n = arm.n_states
    assert n <= 16, "enumeration oracle is for tiny instances only"
    beta = instance.discount
    p0 = arm.P0.toarray()
    p1 = arm.P1.toarray()
    mu0 = arm.initial_distribution()
    best = -np.inf
    for acts in itertools.product([0, 1], repeat=n):
        a = np.array(acts, dtype=bool)
        p = np.where(a[:, None], p1, p0)
        r = np.where(a, arm.R1, arm.R0)
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
        res = solve_bound(tiny, method="lp", details=True)
        want = tiny.n_chargers * enumerate_deterministic_optimum(tiny)
        assert res.lp_value == pytest.approx(want, abs=1e-6)

    def test_dual_matches_policy_enumeration_at_full_capacity(self, tiny):
        res = solve_bound(tiny, method="dual", details=True)
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
        res = solve_bound(inst, method="both", details=True)
        assert res.lp_value == pytest.approx(res.dual_value, abs=1e-4 * inst.n_chargers)

    def test_periodic_instance(self):
        p0 = np.array([[0.8, 0.2], [0.3, 0.7]])
        p1 = np.array([[0.6, 0.4], [0.5, 0.5]])
        chain = CostChain(values=np.array([0.2, 0.9]), P=np.stack([p0, p1]))
        inst = make_instance(
            n_chargers=4, capacity=2, t_max=3, b_max=2, cost=chain, n_periods=2, rho=[0.4, 0.9]
        )
        res = solve_bound(inst, method="both", details=True)
        assert res.lp_value == pytest.approx(res.dual_value, abs=4e-4)


class TestStructure:
    def test_occupancy_mass_is_one_and_budget_holds(self, toy_dynamic):
        lp = build_occupancy_lp(toy_dynamic)
        _, x = _solve_lp(lp)
        assert x.sum() == pytest.approx(1.0, abs=1e-8)
        share = toy_dynamic.capacity / toy_dynamic.n_chargers
        assert x[lp.n_states :].sum() <= share + 1e-8

    def test_bad_method_rejected(self, toy_dynamic):
        with pytest.raises(ValueError):
            solve_bound(toy_dynamic, method="exact")

    def test_details_toggle(self, toy_dynamic):
        plain = solve_bound(toy_dynamic, method="dual")
        rich = solve_bound(toy_dynamic, method="dual", details=True)
        assert isinstance(plain, float)
        assert isinstance(rich, BoundResult)
        assert rich.value == pytest.approx(plain)
        assert rich.lam >= 0.0
        assert rich.activation_frequency <= toy_dynamic.capacity / toy_dynamic.n_chargers + 1e-6

    def test_monotone_in_budget(self, toy_dynamic):
        import dataclasses

        tighter = dataclasses.replace(toy_dynamic, capacity=1)
        looser = dataclasses.replace(toy_dynamic, capacity=2)
        assert solve_bound(tighter) <= solve_bound(looser) + 1e-9


class TestLimits:
    def test_full_capacity_equals_unconstrained_value(self, toy_dynamic):
        import dataclasses

        inst = dataclasses.replace(toy_dynamic, capacity=toy_dynamic.n_chargers)
        res = solve_bound(inst, method="both", details=True)
        sol = solve_subsidy(inst, 0.0)
        pi = inst.cost.stationary()
        v0 = float(pi @ sol.values[0, 0, :, 0])
        assert res.value == pytest.approx(inst.n_chargers * v0, abs=1e-6)

    def test_zero_capacity_is_the_never_charge_value(self, toy_dynamic):
        import dataclasses

        from oracles import brute_force_joint_dp

        inst = dataclasses.replace(toy_dynamic, n_chargers=1, capacity=0)
        res = solve_bound(inst, method="both", details=True)
        dp, _ = brute_force_joint_dp(inst, tol=1e-10)
        assert res.value == pytest.approx(dp, abs=1e-6)
        assert res.value < 0  # penalties only

    def test_value_pinned_on_fixture(self, toy_dynamic):
        # frozen after LP and dual agreed to 8 figures
        assert solve_bound(toy_dynamic) == pytest.approx(6.777090163505587, abs=1e-5)


def test_bound_dominates_toy_dp(toy_dynamic):
    from oracles import brute_force_joint_dp

    dp, _ = brute_force_joint_dp(toy_dynamic, tol=1e-9)
    assert solve_bound(toy_dynamic) >= dp - 1e-7
