import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evbandit import sim
from evbandit.model import (
    ArrivalModel,
    CostChain,
    Instance,
    PenaltyFunction,
    charger_law,
    extended_moves,
    instance_sha256,
    serve,
)
import oracles
from conftest import TWO_STATE_COST, make_instance


class TestPenaltyFunction:
    def test_quadratic_table(self):
        f = PenaltyFunction.quadratic(0.2, 3)
        assert np.allclose(f.table, [0.0, 0.2, 0.8, 1.8])
        assert f(2) == pytest.approx(0.8)
        assert f.delta(3) == pytest.approx(1.0)
        assert f.max_increment == pytest.approx(1.0)

    def test_zero_at_zero_required(self):
        with pytest.raises(ValueError):
            PenaltyFunction(np.array([0.1, 0.2]))

    def test_monotone_required(self):
        with pytest.raises(ValueError):
            PenaltyFunction(np.array([0.0, 0.5, 0.3]))

    def test_convex_required(self):
        # increments 0.5 then 0.1 decrease
        with pytest.raises(ValueError):
            PenaltyFunction(np.array([0.0, 0.5, 0.6]))

    def test_linear_is_allowed(self):
        f = PenaltyFunction(np.array([0.0, 0.3, 0.6, 0.9]))
        assert f.delta(2) == pytest.approx(0.3)


class TestCostChain:
    def test_constant(self):
        c = CostChain.constant(0.5)
        assert c.n_levels == 1
        assert c.stationary() == pytest.approx([1.0])
        assert np.allclose(c.matrix_for(7), [[1.0]])

    def test_stationary_two_state(self):
        # birth-death chain: pi = (q, p) / (p + q) for flip probs p=0.1, q=0.5
        pi = TWO_STATE_COST.stationary()
        assert pi == pytest.approx([5 / 6, 1 / 6])

    def test_per_period_matches_single_when_repeated(self):
        p = np.array([[0.7, 0.3], [0.4, 0.6]])
        single = CostChain(values=np.array([0.1, 0.9]), P=p)
        cycled = CostChain(values=np.array([0.1, 0.9]), P=np.stack([p, p]))
        assert cycled.stationary() == pytest.approx(single.stationary())
        assert cycled.matrix_for(3) == pytest.approx(p)

    def test_needs_exactly_one_matrix_spec(self):
        p = np.eye(2)
        v = np.array([0.1, 0.2])
        for wrong_rank in (p[0], np.stack([np.stack([p])])):  # 1-D and 4-D
            with pytest.raises(ValueError, match="stack"):
                CostChain(values=v, P=wrong_rank)

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError):
            CostChain(values=np.array([0.1, 0.2]), P=np.array([[0.9, 0.2], [0.5, 0.5]]))


class TestArrivalModel:
    def test_uniform_feasible_support(self):
        a = ArrivalModel.uniform_feasible(4, 2, rho=0.5)
        pmf = a.pmf_for(0)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf[0].sum() == 0.0
        for t in range(1, 5):
            assert pmf[t, min(t, 2) + 1 :].sum() == 0.0
        # types are equally likely
        nz = pmf[pmf > 0]
        assert np.allclose(nz, nz[0])

    def test_rejects_demand_above_lead_time(self):
        pmf = np.zeros((3, 3))
        pmf[1, 2] = 1.0  # B=2 > T=1
        with pytest.raises(ValueError):
            ArrivalModel(n_periods=1, rho=0.5, pmf=pmf)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            ArrivalModel.uniform_feasible(3, 2, rho=1.5)

    def test_periodic_broadcast_and_wraparound(self):
        a = ArrivalModel.uniform_feasible(3, 2, rho=[0.2, 0.9], n_periods=2)
        assert a.rho_for(0) == 0.2
        assert a.rho_for(3) == 0.9
        assert a.pmf_for(5).shape == (4, 3)


class TestInstance:
    def test_capacity_range(self):
        with pytest.raises(ValueError):
            make_instance(n_chargers=2, capacity=3)
        make_instance(n_chargers=2, capacity=0)  # M=0 is allowed

    def test_b_max_cannot_exceed_t_max(self):
        with pytest.raises(ValueError):
            make_instance(t_max=2, b_max=3)

    def test_charger_grid_enumeration(self):
        inst = make_instance(t_max=3, b_max=2)
        law = charger_law(inst)
        assert (law.T[0], law.B[0]) == (0, 0)  # the empty charger
        assert law.T.size == 4 * 3
        assert np.all((0 <= law.T) & (law.T <= 3) & (0 <= law.B) & (law.B <= 2))
        assert np.array_equal(charger_id(inst, law.T, law.B), np.arange(law.T.size))

    def test_periodic_cost_must_match_arrival_periods(self):
        p = np.array([[0.7, 0.3], [0.4, 0.6]])
        cost = CostChain(values=np.array([0.1, 0.9]), P=np.stack([p, p, p]))
        with pytest.raises(ValueError):
            make_instance(cost=cost, n_periods=2)

    def test_hash_reads_every_field_down_to_the_arrays(self):
        base = make_instance(cost=TWO_STATE_COST)
        assert instance_sha256(base) == instance_sha256(make_instance(cost=TWO_STATE_COST))
        pmf = base.arrivals.pmf.copy()
        pmf[0, 1, 1] += 1e-12
        pmf[0, 2, 1] -= 1e-12
        P = TWO_STATE_COST.P.copy()
        P[0, 0] = [0.8, 0.2]
        variants = [
            make_instance(cost=TWO_STATE_COST, capacity=2),
            make_instance(cost=TWO_STATE_COST, discount=0.9 + 1e-15),
            make_instance(cost=TWO_STATE_COST, kappa=0.5),
            make_instance(cost=CostChain(values=TWO_STATE_COST.values, P=P)),
            make_instance(cost=CostChain(values=np.array([0.2, 0.7]), P=TWO_STATE_COST.P)),
            Instance(**{**vars(base), "arrivals": ArrivalModel(1, base.arrivals.rho, pmf)}),
        ]
        hashes = {instance_sha256(v) for v in variants} | {instance_sha256(base)}
        assert len(hashes) == len(variants) + 1


def charger_id(inst, t, b):
    """The law's state id of (T, B): T (b_max + 1) + B, the grid of ``IndexTable.values``."""
    return np.asarray(t) * (inst.b_max + 1) + b


def reward_at(inst, a, t, b, j):
    return charger_law(inst).reward[a, charger_id(inst, t, b), j]


def move_row(inst, a, t, b, tau=0):
    return oracles.dense_move(charger_law(inst))[a, tau, charger_id(inst, t, b)]


class TestReward:
    """The shared law's one-slot reward table, reward[a, charger state, cost]."""

    INST = make_instance(t_max=3, b_max=3, kappa=0.2, cost=0.3)

    def r(self, t, b, a):
        return reward_at(self.INST, a, t, b, 0)

    def test_charging_earns_margin(self):
        assert self.r(3, 2, 1) == pytest.approx(0.7)

    def test_deadline_penalty_after_service(self):
        # T=1, B=2, charged once: pay F(1)
        assert self.r(1, 2, 1) == pytest.approx(0.7 - 0.2)

    def test_deadline_penalty_idle(self):
        assert self.r(1, 2, 0) == pytest.approx(-0.8)

    def test_empty_and_done_earn_nothing(self):
        assert self.r(0, 0, 1) == 0.0
        assert self.r(2, 0, 1) == 0.0

    @given(
        t=st.integers(0, 4),
        b=st.integers(0, 3),
        a=st.integers(0, 1),
        c=st.floats(0.0, 2.0),
    )
    def test_accounting_identity(self, t, b, a, c):
        if t == 0:
            b = 0
        inst = make_instance(t_max=4, b_max=3, kappa=0.2, cost=c)
        eff = a if (t >= 1 and b > 0) else 0
        expect = eff * (1.0 - c)
        if t == 1:
            expect -= float(inst.penalty(b - eff))
        got = reward_at(inst, a, t, b, 0)
        assert got == pytest.approx(expect)


class TestSuccessorDistribution:
    """Rows of the shared law's next-state indices and arrival rows, through
    the tests' dense view move[a, period, state, next state]."""

    def test_countdown_is_deterministic(self, toy_dynamic):
        for a, nxt in ((1, (2, 1)), (0, (2, 2))):
            row = move_row(toy_dynamic, a, 3, 2)
            assert row[charger_id(toy_dynamic, *nxt)] == 1.0
            assert np.count_nonzero(row) == 1

    def test_departure_mixes_vacancy_and_arrivals(self, toy_dynamic):
        law = charger_law(toy_dynamic)
        rho = toy_dynamic.arrivals.rho_for(0)
        pmf = toy_dynamic.arrivals.pmf_for(0)
        want = rho * pmf.ravel()
        want[0] += 1.0 - rho
        for a in (0, 1):
            row = move_row(toy_dynamic, a, 1, 1)
            assert row == pytest.approx(want)
        assert np.array_equal(charger_id(toy_dynamic, law.T, law.B), np.arange(law.T.size))

    def test_empty_charger_waits_for_arrival(self, toy_dynamic):
        row = move_row(toy_dynamic, 0, 0, 0)
        assert row.sum() == pytest.approx(1.0)
        assert row[0] == pytest.approx(1.0 - toy_dynamic.arrivals.rho_for(0))
        assert np.array_equal(row, move_row(toy_dynamic, 0, 1, 2))

    def test_rows_sum_to_one(self, toy_dynamic):
        periodic = make_instance(t_max=4, b_max=2, rho=[0.3, 1.0], n_periods=2)
        for inst in (toy_dynamic, periodic):
            move = oracles.dense_move(charger_law(inst))
            assert move.shape[:2] == (2, inst.n_periods)
            assert np.all(move >= 0)
            assert np.allclose(move.sum(axis=-1), 1.0, atol=1e-12)
        # rho = 1 in period 1: a departing charger is always refilled
        assert move_row(periodic, 0, 1, 1, tau=1)[0] == 0.0

    def test_next_is_zero_exactly_where_the_arrival_law_refills(self, toy_dynamic):
        law = charger_law(toy_dynamic)
        assert law.next.shape == (2, law.T.size)
        assert law.arrival.shape == (toy_dynamic.n_periods, law.T.size)
        assert np.array_equal(law.next == 0, np.broadcast_to(law.T <= 1, law.next.shape))

    def test_no_charger_enters_the_cells_t0_b_positive(self, toy_dynamic):
        law = charger_law(toy_dynamic)
        unused = (law.T == 0) & (law.B > 0)
        assert np.count_nonzero(unused) == toy_dynamic.b_max
        assert not np.isin(np.flatnonzero(unused), law.next).any()
        assert np.all(law.arrival[:, unused] == 0.0)

    def test_extended_moves_ravel_the_index_table_grid(self):
        """Each entry of ``extended_moves``, its states decoded as ravel indices
        of the (T, B, j, tau) grid of ``IndexTable.values``, is the move that
        ``serve``, the cost chain and the arrival law make."""
        inst = make_instance(t_max=4, b_max=2, rho=[0.3, 1.0], n_periods=2, cost=TWO_STATE_COST)
        k, nt = inst.cost.n_levels, inst.n_periods
        shape = (inst.t_max + 1, inst.b_max + 1, k, nt)
        grid_t = np.indices(shape)[0].ravel()
        P, rho, pmf = inst.cost.matrix_for(np.arange(nt)), inst.arrivals.rho, inst.arrivals.pmf
        (a, s, s2, p), (v, r2, q), vacant = extended_moves(inst, charger_law(inst))
        t, b, j, tau = np.unravel_index(s, shape)
        _, _, b_next = serve(t, b, a.astype(bool))
        j2 = np.unravel_index(s2, shape)[2]
        assert np.array_equal(np.unique(a * grid_t.size + s),
                              np.flatnonzero(np.tile(grid_t >= 2, 2)))  # every stay, both actions
        assert np.array_equal(s2, np.ravel_multi_index((t - 1, b_next, j2, (tau + 1) % nt), shape))
        assert np.array_equal(p, P[tau, j, j2]) and np.all(p > 0)
        j, tau = np.divmod(v, nt)
        t2, b2, j2, tau2 = np.unravel_index(r2, shape)
        assert np.array_equal(tau2, (tau + 1) % nt)
        empty = (t2 == 0) & (b2 == 0)
        arrival = np.where(empty, 1.0 - rho[tau], rho[tau] * pmf[tau, t2, b2])
        np.testing.assert_array_equal(q, arrival * P[tau, j, j2])
        assert np.array_equal(vacant, np.flatnonzero(grid_t <= 1))


class TestSystemStep:
    """``serve`` advances whole (seeds, chargers) arrays in the simulator."""

    def test_seeded_reproducibility(self, toy_dynamic):
        runs = [oracles.run_episode(toy_dynamic, "edf", seed=7, horizon=40) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_capacity_violation_rejected(self, toy_dynamic, monkeypatch):
        # the simulator decides each slot by the kernel that stack_kernel returns
        stack = sim.stack_kernel

        def all_on(runs, instance, table=None):
            kern = stack(runs, instance, table)

            def on(t, b, j, tau):
                action, swapped = kern(t, b, j, tau)
                return np.ones_like(action), swapped

            return on

        monkeypatch.setattr(sim, "stack_kernel", all_on)
        with pytest.raises(RuntimeError, match="capacity"):
            oracles.run_episode(toy_dynamic, "edf", seed=0, horizon=5)

    def test_reward_matches_sum_of_charger_rewards(self, toy_dynamic):
        t = np.array([[1, 3]])
        b = np.array([[2, 1]])
        action = np.array([[True, False]])
        c = float(toy_dynamic.cost.values[1])
        eff, due, b_next = serve(t, b, action)
        assert eff.shape == t.shape
        assert (due.tolist(), b_next.tolist()) == ([[1, 0]], [[0, 1]])
        # the simulator's accounting: revenue - energy cost - deadline penalty
        got = eff.sum() * (1.0 - c) - toy_dynamic.penalty.table[due].sum()
        want = reward_at(toy_dynamic, 1, 1, 2, 1) + reward_at(toy_dynamic, 0, 3, 1, 1)
        assert got == pytest.approx(want)
        assert want == pytest.approx((1.0 - c) - toy_dynamic.penalty(1))
