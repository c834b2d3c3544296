import dataclasses
import itertools
import json
import os
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit.model import ArrivalModel, CostChain, Instance, PenaltyFunction
from evbandit import sim
from evbandit.config import load_run_config
from evbandit.sim import POLICY_NAMES, _mean_ci, default_horizon, monte_carlo
from evbandit.whittle import IndexTable, compute_index_table, solve_subsidy
from conftest import TWO_STATE_COST, make_instance
from oracles import (
    brute_force_joint_dp,
    evaluate_policy_exact,
    policy_kernel,
    reference_stack_kernel,
    run_episode,
)

REPO = Path(__file__).resolve().parent.parent
DP_VALUE = 5.169744218015056  # brute-force optimum on the toy_dynamic fixture
WHITTLE_VALUE = 5.092267152900652  # exact policy evaluation, same fixture


class TestDefaultHorizon:
    def test_tail_bound_is_tight(self, toy_dynamic):
        h = default_horizon(toy_dynamic, tol=1e-3)
        beta = toy_dynamic.discount
        scale = (1 + toy_dynamic.penalty.max_increment) / (1 - beta)
        assert beta**h * scale <= 1e-3 < beta ** (h - 1) * scale

    def test_high_discount_means_long_horizon(self, toy_dynamic):
        patient = dataclasses.replace(toy_dynamic, discount=0.999)
        assert default_horizon(patient) > 10 * default_horizon(toy_dynamic)


class TestDegenerateDynamics:
    def test_no_arrivals_no_reward(self):
        inst = make_instance(rho=0.0)
        m = run_episode(inst, "edf", seed=1, horizon=50)
        assert m.discounted_reward == 0.0
        assert m.arrived_units == 0 and m.delivered_units == 0
        assert m.completion_fraction == 1.0

    def test_zero_capacity_accrues_only_penalties(self):
        inst = make_instance(capacity=0, rho=0.7)
        m = run_episode(inst, "edf", seed=5, horizon=80)
        assert m.revenue == 0.0 and m.energy_cost == 0.0
        assert m.delivered_units == 0
        assert m.penalty > 0.0
        assert m.discounted_reward == -m.penalty

    def test_deterministic_cycle_matches_geometric_series(self):
        # one charger, an EV (T=2, B=1) arrives the moment the slot frees up:
        # charge every second slot at margin 0.5, starting at t=1
        pmf = np.zeros((3, 2))
        pmf[2, 1] = 1.0
        inst = Instance(
            n_chargers=1,
            capacity=1,
            discount=0.9,
            t_max=2,
            b_max=1,
            penalty=PenaltyFunction.quadratic(0.2, 1),
            arrivals=ArrivalModel(n_periods=1, rho=1.0, pmf=pmf),
            cost=CostChain.constant(0.5),
        )
        m = run_episode(inst, "whittle", seed=3, horizon=400)
        assert m.discounted_reward == pytest.approx(0.5 * 0.9 / (1 - 0.9**2), abs=1e-12)
        assert m.completion_fraction == 1.0
        assert m.delivered_units == 200


class TestAccounting:
    def test_identity_and_ranges(self, toy_dynamic):
        for policy in ("whittle", "whittle+lllp", "edf", "llf"):
            m = run_episode(toy_dynamic, policy, seed=11, horizon=120)
            assert m.discounted_reward == pytest.approx(
                m.revenue - m.energy_cost - m.penalty, abs=1e-9
            )
            assert 0.0 <= m.completion_fraction <= 1.0
            assert 0.0 <= m.activations_per_slot <= toy_dynamic.capacity
            assert m.delivered_units + m.unserved_units <= m.arrived_units + toy_dynamic.b_max * toy_dynamic.n_chargers

    def test_valley_runs_and_accounts(self, toy_constant):
        m = run_episode(toy_constant, "valley", seed=2, horizon=40)
        assert m.discounted_reward == pytest.approx(
            m.revenue - m.energy_cost - m.penalty, abs=1e-9
        )
        assert m.interchanges == 0


@pytest.fixture(scope="module")
def alone(toy_dynamic):
    """Each policy run on its own on the seeds and horizon of the order tests."""
    return {p: monte_carlo(toy_dynamic, [p], seeds=[3, 8, 21], horizon=80) for p in POLICY_NAMES}


class TestCommonRandomNumbers:
    def test_runs_are_reproducible(self, toy_dynamic):
        a = monte_carlo(toy_dynamic, ["edf", "llf"], seeds=6, horizon=100)
        b = monte_carlo(toy_dynamic, ["edf", "llf"], seeds=6, horizon=100)
        for p in ("edf", "llf"):
            assert np.array_equal(a.rewards(p), b.rewards(p))

    def test_batch_equals_single_episode(self, toy_dynamic):
        rep = monte_carlo(toy_dynamic, ["whittle", "edf"], seeds=4, horizon=90)
        tab = compute_index_table(toy_dynamic)
        for r, p in enumerate(rep.policies):
            for i, seed in enumerate(rep.seeds):
                single = run_episode(toy_dynamic, p, seed=seed, horizon=90, table=tab)
                assert single.discounted_reward == rep.metrics["discounted_reward"][r, i]
                assert single.delivered_units == rep.metrics["delivered_units"][r, i]

    def test_other_policies_do_not_change_an_episode(self, toy_dynamic, alone):
        # all policies share one time loop and one (P, S, N) demand array
        mixed = monte_carlo(toy_dynamic, POLICY_NAMES, seeds=[3, 8, 21], horizon=80)
        assert mixed.metrics["interchanges"][POLICY_NAMES.index("whittle+lllp")].sum() > 0
        for k, v in mixed.metrics.items():
            assert np.array_equal(v, np.stack([alone[p].metrics[k][0] for p in POLICY_NAMES])), k

    @pytest.mark.parametrize("order", [POLICY_NAMES[::-1], ("llf", "whittle+lllp", "edf", "llf")],
                             ids=["reversed", "duplicate"])
    def test_rows_follow_the_callers_order(self, toy_dynamic, alone, order, tmp_path):
        # _run_batch runs the policies in POLICY_NAMES order, once each, and
        # hands back a row per entry of the caller's list
        mixed = monte_carlo(toy_dynamic, order, seeds=[3, 8, 21], horizon=80)
        assert mixed.policies == list(order)
        for k, v in mixed.metrics.items():
            assert np.array_equal(v, np.stack([alone[p].metrics[k][0] for p in order])), k
        mixed.to_csv(tmp_path / "mixed.csv")
        want = []
        for p in order:
            alone[p].to_csv(tmp_path / "alone.csv")
            want += (tmp_path / "alone.csv").read_text().splitlines()[1:]
        assert (tmp_path / "mixed.csv").read_text().splitlines()[1:] == want

    def test_world_equals_a_whole_horizon_draw(self):
        # world_slots draws its uniforms, the cost stream's too, in blocks and
        # looks a type up only where an EV arrives; drawing all of them at
        # once, and mapping every one, gives the same world
        pmf = np.zeros((2, 5, 4))
        pmf[0] = ArrivalModel.uniform_feasible(4, 3, 1.0).pmf[0]
        pmf[1, 4, 3], pmf[1, 2, 0], pmf[1, 1, 1] = 0.5, 0.2, 0.3
        cost = CostChain(
            values=[0.1, 0.5, 0.9],
            P=[[[0.2, 0.5, 0.3], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8]],
               [[0.9, 0.0, 0.1], [0.0, 0.4, 0.6], [0.3, 0.3, 0.4]]],
        )
        inst = dataclasses.replace(
            make_instance(n_chargers=3, t_max=4, b_max=3),
            arrivals=ArrivalModel(n_periods=2, rho=[0.6, 0.9], pmf=pmf),
            cost=cost,
        )
        seeds, horizon = [0, 5, 9], 150
        world = list(sim.world_slots(inst, seeds, horizon))
        assert len(world) == horizon
        for i, seed in enumerate(seeds):
            cost_seq, arr_seq, type_seq = np.random.SeedSequence(seed).spawn(3)
            v = np.random.default_rng(cost_seq).random(horizon)
            coin = np.random.default_rng(arr_seq).random((horizon, inst.n_chargers))
            u = np.random.default_rng(type_seq).random((horizon, inst.n_chargers))
            top = cost.n_levels - 1
            level = min(np.searchsorted(np.cumsum(cost.stationary()), v[0], side="right"), top)
            t_arr = np.zeros(inst.n_chargers, dtype=int)
            for t, (lead, j, arrival) in enumerate(world):
                if t:
                    level = min(np.searchsorted(np.cumsum(cost.matrix_for(t - 1)[level]), v[t]), top)
                law = inst.arrivals.pmf_for(t)
                tt, bb = np.nonzero(law)
                cum = np.cumsum(law[tt, bb])
                k = np.minimum(np.searchsorted(cum, u[t], side="right"), cum.size - 1)
                arrives = (coin[t] < inst.arrivals.rho_for(t)) & (t_arr <= 1)
                assert j[i] == level
                assert lead[i].tolist() == t_arr.tolist()
                assert arrival[i].tolist() == np.where(arrives, bb[k], 0).tolist()
                t_arr = np.where(arrives, tt[k], np.maximum(t_arr - 1, 0))
        assert len({int(w[1][i]) for w in world for i in range(len(seeds))}) == cost.n_levels

    def test_first_slot_of_an_endless_horizon_is_small(self):
        # nothing world_slots holds grows with the horizon
        inst = make_instance(n_chargers=10, cost=TWO_STATE_COST)
        tracemalloc.start()
        try:
            lead, j, arrival = next(sim.world_slots(inst, [0, 1], 10**12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lead.shape == arrival.shape == (2, 10) and j.shape == (2,)
        assert peak < 2 << 20

    def test_duplicate_policy_entries_identical(self, toy_dynamic):
        rep = monte_carlo(toy_dynamic, ["edf", "edf"], seeds=3, horizon=60)
        assert rep.policies == ["edf", "edf"]
        assert np.array_equal(rep.rewards("edf"), rep.rewards("edf"))

    def test_truncation_tail_is_bounded(self, toy_dynamic):
        h = default_horizon(toy_dynamic, tol=1e-3)
        short = run_episode(toy_dynamic, "llf", seed=7, horizon=h)
        long = run_episode(toy_dynamic, "llf", seed=7, horizon=h + 300)
        tail = toy_dynamic.n_chargers * 1e-3
        assert abs(short.discounted_reward - long.discounted_reward) <= 3 * tail


class TestValidation:
    def test_unknown_policy(self, toy_dynamic):
        with pytest.raises(ValueError):
            monte_carlo(toy_dynamic, ["fifo"], seeds=4)

    def test_single_seed_rejected(self, toy_dynamic):
        with pytest.raises(ValueError):
            monte_carlo(toy_dynamic, ["edf"], seeds=1)

    def test_baseline_must_be_included(self, toy_dynamic):
        with pytest.raises(ValueError):
            monte_carlo(toy_dynamic, ["edf"], seeds=4, baseline="llf")

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_must_be_positive(self, toy_dynamic, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            monte_carlo(toy_dynamic, ["edf"], seeds=4, horizon=horizon)


@pytest.fixture(scope="module")
def report(toy_dynamic):
    return monte_carlo(
        toy_dynamic, ["whittle", "edf"], seeds=12, horizon=80, baseline="edf"
    )


class TestComparisonReport:
    def test_paired_against_itself_is_zero(self, report):
        mean, half = report.paired("edf")
        assert mean == 0.0 and half == 0.0

    def test_summary_structure(self, report):
        doc = report.summary()
        assert doc["n_seeds"] == 12
        assert set(doc["policies"]) == {"whittle", "edf"}
        assert "paired_diff_vs_edf" in doc["policies"]["whittle"]

    def test_csv_deterministic_and_complete(self, report, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report.to_csv(p1)
        report.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 12
        assert lines[0].startswith("policy,seed,horizon,discounted_reward")

    def test_json_round_trip(self, report, tmp_path):
        p = tmp_path / "s.json"
        report.to_json(p)
        doc = json.loads(p.read_text())
        assert doc == json.loads(json.dumps(report.summary()))


class TestExactOracles:
    def test_dp_value_pinned(self, toy_dynamic):
        dp, _ = brute_force_joint_dp(toy_dynamic, tol=1e-9)
        assert dp == pytest.approx(DP_VALUE, abs=1e-7)

    def test_dp_greedy_policy_achieves_dp_value(self, toy_dynamic):
        dp, table = brute_force_joint_dp(toy_dynamic, tol=1e-9)
        actions = np.array(table["actions"], dtype=bool)

        def dp_kernel(t, b, j, tau):
            ids = tuple(toy_dynamic.charger_index(t, b).T)
            return actions[table["choice"][tau][ids + (j,)]], None

        assert evaluate_policy_exact(toy_dynamic, dp_kernel, tol=1e-9) == pytest.approx(
            dp, abs=1e-6
        )

    def test_heuristics_never_beat_the_dp(self, toy_dynamic):
        tab = compute_index_table(toy_dynamic)
        for name in ("whittle", "whittle+lllp", "edf", "llf", "valley"):
            v = evaluate_policy_exact(toy_dynamic, policy_kernel(name, toy_dynamic, tab), tol=1e-9)
            assert v <= DP_VALUE + 1e-7, name

    def test_whittle_exact_value_pinned(self, toy_dynamic):
        assert toy_dynamic.capacity == 1
        tab = compute_index_table(toy_dynamic)
        v = evaluate_policy_exact(toy_dynamic, policy_kernel("whittle", toy_dynamic, tab), tol=1e-9)
        assert v == pytest.approx(WHITTLE_VALUE, abs=1e-7)

    def test_over_capacity_policy_named(self, toy_dynamic, monkeypatch):
        stack = sim.stack_kernel

        def llf_over(runs, instance, table=None):
            kern = stack(runs, instance, table)

            def over(t, b, j, tau):
                # one kernel decides for edf then llf (POLICY_NAMES order):
                # switch on all of llf's chargers
                action, swapped = kern(t, b, j, tau)
                action[1] = True
                return action, swapped

            return over

        monkeypatch.setattr(sim, "stack_kernel", llf_over)
        with pytest.raises(RuntimeError, match="policy 'llf' violated the capacity limit"):
            monte_carlo(toy_dynamic, ["edf", "llf"], seeds=3, horizon=20)

    def test_stack_kernel_refuses_unordered_or_unknown_policies(self, toy_dynamic):
        tab = compute_index_table(toy_dynamic)
        for runs in (("edf", "whittle"), ("edf", "fifo")):
            with pytest.raises(ValueError):
                sim.stack_kernel(runs, toy_dynamic, tab)

    def test_stack_kernel_refuses_a_packed_key_beyond_int64(self, toy_dynamic):
        # edf's keys 0..t_max, times b_max + 1 demands, times 2**61 chargers
        huge = dataclasses.replace(toy_dynamic, n_chargers=2**61)
        with pytest.raises(ValueError, match="the packed selection key does not fit in int64"):
            sim.stack_kernel(("edf",), huge)

    def test_over_capacity_kernel_refused(self, toy_dynamic):
        def all_on(t, b, j, tau):
            return np.ones(t.shape, dtype=bool), None

        with pytest.raises(RuntimeError, match="capacity"):
            evaluate_policy_exact(toy_dynamic, all_on)

    def test_dp_decouples_at_full_capacity(self, toy_dynamic):
        full = dataclasses.replace(toy_dynamic, capacity=toy_dynamic.n_chargers)
        dp, _ = brute_force_joint_dp(full, tol=1e-9)
        sol = solve_subsidy(full, 0.0)
        pi = full.cost.stationary()
        per_arm = float(pi @ sol.values[0, 0, :, 0])
        assert dp == pytest.approx(full.n_chargers * per_arm, abs=1e-6)

    def test_monte_carlo_agrees_with_exact_evaluation(self, toy_dynamic):
        rep = monte_carlo(toy_dynamic, ["whittle"], seeds=400, truncation_tol=1e-5)
        mean, half = rep.mean_ci("whittle")
        assert abs(mean - WHITTLE_VALUE) <= half + 0.02

    def test_oversized_joint_space_refused(self):
        big = make_instance(n_chargers=10, capacity=5, t_max=3, b_max=2)
        with pytest.raises(ValueError):
            brute_force_joint_dp(big)
        with pytest.raises(ValueError):
            evaluate_policy_exact(big, policy_kernel("edf", big))


def mpmath_t_quantile_975(df: int):
    """The 0.975 quantile of Student's t at 40 digits: the root of the tail
    I_{df / (df + t^2)}(df / 2, 1 / 2) / 2 = 0.025."""
    import mpmath

    with mpmath.workdps(40):
        tail = lambda t: mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                                        regularized=True) / 2 - mpmath.mpf("0.025")
        return mpmath.findroot(tail, mpmath.mpf(sim.t_quantile_975(df)))


LOG_SPACED_DF = sorted({round(d) for d in np.geomspace(31, 1e6, 15)})


@pytest.mark.parametrize("df", [*range(1, 31), *LOG_SPACED_DF, 10_000, 10_001])
def test_t_quantile_is_within_an_ulp_of_the_40_digit_root(df):
    """Odd and even df, and both sides of the switch to the 1/df expansion
    above df = 10^4."""
    root = mpmath_t_quantile_975(df)
    assert abs(sim.t_quantile_975(df) - root) <= np.spacing(float(root))


def test_t_quantile_is_close_to_scipy_stdtrit():
    """scipy's stdtrit is not correctly rounded (19 ulps off at df = 6), so
    the in-package quantile agrees with it only to a few ulps."""
    from scipy.special import stdtrit

    df = np.arange(1, 1001)
    want = stdtrit(df, 0.975)
    got = np.array([sim.t_quantile_975(int(d)) for d in df])
    assert np.all(np.abs(got - want) <= 32 * np.spacing(want))


def test_half_width_is_the_t_quantile_times_the_standard_error():
    rng = np.random.default_rng(7)
    for n in [2, 3, 8, 40, 199, 200, 1001]:
        x = rng.normal(size=n)
        want = sim.t_quantile_975(n - 1) * x.std(ddof=1) / np.sqrt(n)
        assert _mean_ci(x) == (x.mean(), want), n


RANKING = ("whittle", "whittle+lllp", "edf", "llf")


@st.composite
def kernel_cases(draw):
    """A random instance (K 1-4 cost levels, 1-3 periods, N 1-12 chargers, M
    0..N+1), an index table whose values come from a few levels (rank ties),
    and one slot's states for each ranking policy: lead times shared, demands
    per policy, row 0 possibly empty (no eligible charger)."""
    k, nt, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    t_max = draw(st.integers(1, 5))
    b_max = draw(st.integers(1, t_max))
    m = draw(st.integers(0, n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = CostChain(values=np.linspace(0.1, 0.9, k), P=np.full((nt, k, k), 1.0 / k))
    inst = make_instance(n_chargers=n, capacity=min(m, n), t_max=t_max, b_max=b_max,
                         cost=cost, n_periods=nt)
    object.__setattr__(inst, "capacity", m)  # M = N + 1 too, past Instance's check
    v = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0], size=(t_max + 1, b_max + 1, k, nt))
    v[0] = v[:, 0] = 0.0
    for t in range(1, b_max + 1):
        v[t, t:] = np.maximum.accumulate(v[t, t:], axis=0)
    s = draw(st.integers(1, 5))
    t = rng.integers(0, t_max + 1, size=(s, n))
    b = rng.integers(0, b_max + 1, size=(len(RANKING), s, n))
    if draw(st.booleans()):
        t[0] = 0
    j = rng.integers(0, k, size=s)
    tau = int(rng.integers(0, 2 * nt))  # the kernel takes the period modulo N_tau
    return inst, IndexTable(v), t, b, j, tau


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_packed_key_table_matches_per_policy_selection(case):
    """Every ordered subset of the ranking policies decides as the key rules,
    select_by_key and lllp_kernel decide, bit for bit."""
    inst, tab, t, b, j, tau = case
    for size in range(1, len(RANKING) + 1):
        for runs in itertools.combinations(RANKING, size):
            rows = b[[RANKING.index(p) for p in runs]]
            got = sim.stack_kernel(runs, inst, tab)(t, rows, j, tau)
            want = reference_stack_kernel(runs, inst, tab)(t, rows, j, tau)
            assert np.array_equal(got[0], want[0]), runs
            assert np.array_equal(got[1], want[1]), runs


def assert_bit_identical(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for k in want:
        assert got[k].dtype == want[k].dtype and got[k].shape == want[k].shape, k
        assert got[k].tobytes() == want[k].tobytes(), k


@st.composite
def shard_cases(draw):
    """A random small instance (K 1-3 cost levels with a random chain, 1-2
    periods, N 1-6), every ranking policy plus valley where N <= 4, an
    unsorted list of distinct seeds and 0-3 cuts that split it into shards of
    unequal sizes."""
    k, nt, n = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 6))
    t_max = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random((nt, k, k)) + 0.1
    cost = CostChain(values=np.linspace(0.1, 0.9, k), P=p / p.sum(axis=2, keepdims=True))
    inst = make_instance(n_chargers=n, capacity=draw(st.integers(0, n)), t_max=t_max,
                         b_max=draw(st.integers(1, t_max)), cost=cost, n_periods=nt)
    policies = POLICY_NAMES if n <= 4 and draw(st.booleans()) else POLICY_NAMES[:-1]
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=8, unique=True))
    if seeds == sorted(seeds):
        seeds.reverse()
    cuts = sorted(draw(st.sets(st.integers(1, len(seeds) - 1), max_size=3)))
    return inst, policies, seeds, draw(st.integers(1, 8)), cuts


@pytest.mark.usefixtures("no_child_left")
@settings(max_examples=20, deadline=None)
@given(shard_cases())
def test_sharded_runs_equal_the_serial_run_bit_for_bit(case):
    """Each seed draws from its own streams and every step of the time loop
    is row-wise, so any split of the seeds gives the serial metrics."""
    inst, policies, seeds, horizon, cuts = case
    tab = compute_index_table(inst)
    want = sim._run_batch(inst, policies, seeds, horizon, tab)
    assert_bit_identical(sim._run_shards(inst, policies, seeds, horizon, tab, cuts), want)
    with mock.patch.object(sim, "_shard_count", lambda n_seeds, work: len(cuts) + 1):
        report = monte_carlo(inst, policies, seeds, horizon, table=tab)
    assert report.seeds == seeds
    assert_bit_identical(report.metrics, want)


@pytest.mark.usefixtures("no_child_left")
class TestSharding:
    def test_shard_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        w = sim.SHARD_MIN_WORK
        cases = [(200, 2 * w - 1), (200, 2 * w), (200, 3 * w), (200, 10**9), (3, 10**9), (2, w)]
        assert [sim._shard_count(*c) for c in cases] == [1, 2, 3, 4, 3, 1]
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:  # a forked child would have no copy of the other thread
            assert sim._shard_count(200, 10**9) == 1
        finally:
            release.set()
            other.join()

    def test_work_counts_each_distinct_policy_once(self, toy_dynamic):
        asked = []
        with mock.patch.object(sim, "_shard_count", lambda *a: asked.append(a) or 1):
            monte_carlo(toy_dynamic, ["edf", "llf", "edf"], 3, horizon=5)
        assert asked == [(3, 3 * 5 * toy_dynamic.n_chargers * 2)]

    def test_dynamic_cost_at_200_seeds(self):
        cfg = load_run_config(REPO / "configs" / "dynamic_cost.json")
        tab = compute_index_table(cfg.instance)
        args = (cfg.instance, tuple(cfg.policies), cfg.seeds, 30, tab)
        assert len(cfg.seeds) == 200
        assert_bit_identical(sim._run_shards(*args, [70, 140]), sim._run_batch(*args))

    @staticmethod
    def over_capacity(monkeypatch, bad):
        """From slot ``bad[seed][1]`` on, switch on all of a policy's chargers
        on ``seed``'s row: the policy whose kernel row is ``bad[seed][0]``
        (0 edf, 1 llf); on every row where ``bad`` is {None: (row, slot)}."""
        stack, world, shard = sim.stack_kernel, sim.world_slots, {}

        def seen(instance, seeds, horizon):
            shard["seeds"], shard["slot"] = list(seeds), 0
            return world(instance, seeds, horizon)

        def over_stack(runs, instance, table=None):
            kern = stack(runs, instance, table)

            def over(t, b, j, tau):
                action, swapped = kern(t, b, j, tau)
                for seed, (row, slot) in bad.items():
                    if shard["slot"] < slot:
                        continue
                    if seed is None:
                        action[row] = True
                    elif seed in shard["seeds"]:
                        action[row, shard["seeds"].index(seed)] = True
                shard["slot"] += 1
                return action, swapped

            return over

        monkeypatch.setattr(sim, "world_slots", seen)
        monkeypatch.setattr(sim, "stack_kernel", over_stack)

    @pytest.mark.parametrize("bad,cuts,policy", [
        ({13: (1, 0)}, [3], "llf"),
        ({None: (1, 0)}, [2, 4], "llf"),
        ({5: (0, 5), 13: (1, 0)}, [3], "llf"),
        ({5: (1, 0), 13: (0, 0)}, [3], "edf"),
    ], ids=["in-a-child", "in-every-shard", "earlier-in-a-later-shard", "same-slot-two-shards"])
    def test_a_shards_error_is_the_serial_error(self, toy_dynamic, monkeypatch, bad, cuts, policy):
        """The serial run raises at the first slot that fails, naming the
        first failing policy in the caller's order, whichever shard holds
        the seed."""
        self.over_capacity(monkeypatch, bad)
        args = (toy_dynamic, ("edf", "llf"), [5, 9, 2, 7, 13, 1], 20)
        with pytest.raises(RuntimeError) as serial:
            sim._run_shards(*args, None, [])
        with pytest.raises(RuntimeError) as sharded:
            sim._run_shards(*args, None, cuts)
        assert type(sharded.value) is type(serial.value)
        assert str(sharded.value) == str(serial.value) == f"policy {policy!r} violated the capacity limit"

    def test_a_child_that_dies_is_an_error(self, toy_dynamic, monkeypatch):
        stack, parent = sim.stack_kernel, os.getpid()

        def dying_stack(runs, instance, table=None):
            kern = stack(runs, instance, table)

            def dying(t, b, j, tau):
                if os.getpid() != parent:
                    os._exit(7)
                return kern(t, b, j, tau)

            return dying

        monkeypatch.setattr(sim, "stack_kernel", dying_stack)
        with pytest.raises(BrokenProcessPool) as died:
            sim._run_shards(toy_dynamic, ("edf",), list(range(6)), 20, None, [3])
        assert isinstance(died.value, RuntimeError)  # the CLI's exit 3
