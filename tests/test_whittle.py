import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evbandit.config import load_run_config
from evbandit.model import ArrivalModel, CostChain, Instance, PenaltyFunction
from evbandit.pwl import combine
from evbandit.whittle import (
    IndexTable,
    SubsidyProblem,
    _table_key,
    compute_index_table,
    index_by_bisection,
    solve_subsidy,
    subsidy_pass,
    subsidy_value_iteration,
)
from conftest import TWO_STATE_COST, make_instance
from oracles import (check_indexability, closed_form_index, collected_g, index_by_vi_bisection,
                     reference_index_table)

PEN = PenaltyFunction.quadratic(0.3, 4)
# a linear penalty whose increments fall by an ulp (0.4000000000000001, then
# 0.3999999999999999): level 1's indexes at B = 2 and 3 cross by rounding
ULP_DROP = Instance(
    n_chargers=2, capacity=1, discount=0.5, t_max=3, b_max=3,
    penalty=PenaltyFunction([0.0, 0.2, 0.6000000000000001, 1.0]),
    arrivals=ArrivalModel.uniform_feasible(3, 3, 0.7), cost=TWO_STATE_COST,
)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
CONFIGS = PERFBENCH.parent.parent / "configs"


def g_h_keys(gs, b_max):
    """(T, b, h, j, tau) for every g_h(T, b) = V(T, b+h) - V(T, b) that the
    g_1's of ``oracles.collected_g`` determine."""
    return [(t, b, h, j, tau) for (t, b, j, tau) in gs for h in range(1, b_max - b + 1)]


def g_h(gs, t, b, h, j, tau):
    """g_h(T, b) telescoped from the collected g_1's: sum of g_1(T, b+i), i < h."""
    return combine([gs[(t, b + i, j, tau)] for i in range(h)], np.ones(h))


@pytest.fixture(scope="module")
def toy_table(toy_dynamic):
    return compute_index_table(toy_dynamic)


class TestClosedForm:
    def test_final_slot(self):
        # 1 - c + marginal penalty
        assert closed_form_index(1, 2, 0.4, 0.9, PEN) == pytest.approx(0.6 + 0.9)

    def test_slack_region_is_flat(self):
        for b in (1, 2):
            assert closed_form_index(3, b, 0.4, 0.9, PEN) == pytest.approx(0.6)

    def test_tight_region_discounts_deferred_penalty(self):
        # B >= T: marginal penalty of the slot that must fire now, discounted
        # to the deadline
        want = 0.6 + 0.9**2 * (PEN(2) - PEN(1))
        assert closed_form_index(3, 4, 0.4, 0.9, PEN) == pytest.approx(want)

    def test_zero_demand(self):
        assert closed_form_index(5, 0, 0.4, 0.9, PEN) == 0.0

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            closed_form_index(0, 2, 0.4, 0.9, PEN)

    def test_recursion_matches_closed_form_on_fixture(self, toy_constant):
        tab = compute_index_table(toy_constant)
        inst = toy_constant
        c0 = float(inst.cost.values[0])
        for t in range(1, inst.t_max + 1):
            for b in range(inst.b_max + 1):
                want = closed_form_index(t, b, c0, inst.discount, inst.penalty)
                assert float(tab.values[t, b, 0, 0]) == pytest.approx(want, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    t_max=st.integers(1, 4),
    b_rel=st.integers(0, 3),
    kappa=st.floats(0.05, 1.0),
    c0=st.floats(0.0, 0.95),
    beta=st.floats(0.5, 0.99),
    rho=st.floats(0.0, 1.0),
)
def test_recursion_matches_closed_form_randomized(t_max, b_rel, kappa, c0, beta, rho):
    b_max = max(1, min(t_max, 1 + b_rel))
    inst = make_instance(
        t_max=t_max, b_max=b_max, kappa=kappa, rho=rho, discount=beta, cost=c0
    )
    tab = compute_index_table(inst)
    for t in range(1, t_max + 1):
        for b in range(b_max + 1):
            want = closed_form_index(t, b, c0, beta, inst.penalty)
            assert float(tab.values[t, b, 0, 0]) == pytest.approx(want, abs=1e-9)


@st.composite
def chain_instances(draw, extreme=False):
    """K 1-4 cost levels, one transition matrix per period (1-3 periods) with
    some entries zero, t_max 1-5 and a random convex penalty table.  Costs,
    penalty increments and discounts lie on coarse grids; with ``extreme``
    costs and discounts are any floats in range, and the integer increments
    are scaled by a power of two from about 3e-14 to 1e36 (exactly, so the
    table stays convex)."""
    k, nt, t_max = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    b_max = draw(st.integers(1, t_max))
    weights = draw(st.lists(st.integers(0, 4), min_size=nt * k * k, max_size=nt * k * k))
    P = np.reshape(weights, (nt, k, k)) + np.eye(k)
    if extreme:
        costs, increments = st.floats(0.0, 1.2), st.integers(0, 1000)
        scale, discount = 2.0 ** draw(st.integers(-45, 120)), draw(st.floats(0.5, 0.995))
    else:
        costs, increments = st.integers(0, 24).map(lambda c: c / 20), st.integers(0, 20)
        scale, discount = draw(st.sampled_from([0.01, 0.2, 1.0, 50.0])), draw(st.integers(50, 99)) / 100
    F = np.cumsum([0, *sorted(draw(st.lists(increments, min_size=b_max, max_size=b_max)))])
    return Instance(
        n_chargers=2, capacity=1, discount=discount, t_max=t_max, b_max=b_max,
        penalty=PenaltyFunction(F * scale),
        arrivals=ArrivalModel.uniform_feasible(t_max, b_max, 0.7, nt),
        cost=CostChain(values=draw(st.lists(costs, min_size=k, max_size=k)),
                       P=P / P.sum(axis=2, keepdims=True)),
    )


def tables_by_both_routes(instance):
    """The table by ``compute_index_table`` and by the combine route."""
    return compute_index_table(instance).values, reference_index_table(instance).values


@settings(max_examples=100, deadline=None)
@given(chain_instances())
def test_roots_match_the_combine_route_bit_for_bit(instance):
    """The root functions formed on E g's breakpoints have the least roots
    that the two-member combine (its grid with the knot 0, simplified) had.
    On the grids no breakpoint sits near simplify's or the merge's tolerance
    (none of 5,000 examples moved a root); the next test but one goes off them."""
    got, want = tables_by_both_routes(instance)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workload", ["fig3_sim", "tod_index", "small_exact"])
def test_perfbench_tables_match_the_combine_route_bit_for_bit(workload):
    got, want = tables_by_both_routes(load_run_config(PERFBENCH / f"{workload}.json").instance)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(chain_instances(extreme=True))
def test_roots_match_the_combine_route_to_rounding_at_extreme_scales(instance):
    """Bit identity can fail off the grids.  The combine's simplify may drop
    a breakpoint of f that E g kept: f's larger values widen the relative
    tolerance (seen with penalties near 1e13 and a cost gap of 0.5), or a
    kink sits at the tolerance (seen with penalty increments near 1e-11).
    Its merge may also put the knot 0 in place of a breakpoint within
    MERGE_TOL of it.  The least root then interpolates between other segment
    ends, and moves by rounding, far inside the instance's scale.

    Instances whose table fails IndexTable's check of monotonicity in B
    (tolerance max(1e-9, k eps max |v|)) on either route are left out; none
    of 3,000 examples did."""
    try:
        got, want = tables_by_both_routes(instance)
    except ValueError:  # IndexCheckError from compute_index_table is one
        assume(False)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * instance.scale)


class TestFrozenValues:
    """Index values on the two-level-cost fixture, pinned after the bisection
    oracle reproduced them to 1e-8."""

    CASES = [
        ((3, 2, 0, 0), 1.0438127090301008),
        ((4, 3, 1, 0), -0.2745127272727274),
        ((2, 1, 0, 0), 0.9421052631578948),
        ((1, 3, 0, 0), 2.3),
        ((4, 1, 1, 0), -0.25000000000000006),
    ]

    def test_pinned_values(self, toy_table):
        for state, want in self.CASES:
            assert float(toy_table.values[state]) == pytest.approx(want, abs=1e-9)

    def test_bisection_agrees(self, toy_dynamic, toy_table):
        for state in [(3, 2, 0, 0), (4, 1, 1, 0)]:
            ref = index_by_vi_bisection(toy_dynamic, state, tol=1e-8)
            assert float(toy_table.values[state]) == pytest.approx(ref, abs=1e-6)


class TestTableStructure:
    def test_zero_rows(self, toy_table):
        assert np.all(toy_table.values[0] == 0.0)
        assert np.all(toy_table.values[:, 0] == 0.0)

    def test_monotone_in_demand_when_tight(self, toy_constant):
        tab = compute_index_table(toy_constant)
        v = tab.values
        for t in range(1, toy_constant.t_max + 1):
            seg = v[t, t:, 0, 0]
            assert np.all(np.diff(seg) >= -1e-9)

    def test_reversal_below_the_diagonal_is_real(self, toy_dynamic, toy_table):
        # With dynamic cost the index need not be monotone in B on B < T:
        # at the expensive level, one unit of slack lets the arm wait out the
        # price, so (3,1) outranks (3,2).  Confirm against the oracle so a
        # future "fix" cannot silently flatten this.
        hi = float(toy_table.values[3, 1, 1, 0])
        lo = float(toy_table.values[3, 2, 1, 0])
        assert hi > lo + 1e-3
        for state, want in (((3, 1, 1, 0), hi), ((3, 2, 1, 0), lo)):
            ref = index_by_vi_bisection(toy_dynamic, state, tol=1e-8)
            assert ref == pytest.approx(want, abs=1e-6)

    def test_rejects_nonzero_empty_row(self):
        v = np.zeros((3, 3, 1, 1))
        v[0, 1, 0, 0] = 0.5
        with pytest.raises(ValueError):
            IndexTable(v)

    def test_rejects_decreasing_tight_segment(self):
        v = np.zeros((3, 4, 1, 1))
        v[1, 1:, 0, 0] = [3.0, 2.0, 1.0]
        with pytest.raises(ValueError):
            IndexTable(v)

    def test_rejects_a_decrease_of_1e_6_at_scale_1(self):
        v = np.zeros((3, 4, 1, 1))
        v[1:, 1:, 0, 0] = 1.0
        v[1, 3, 0, 0] -= 1e-6
        with pytest.raises(ValueError):
            IndexTable(v)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")) + sorted(PERFBENCH.glob("*.json")),
                             ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_shipped_tables_keep_the_absolute_tolerance(self, path):
        """The tolerance max(1e-9, k eps max |v|) is 1e-9 on these tables: a
        decrease of 2e-9 in B fails, one of 5e-10 passes."""
        v = compute_index_table(load_run_config(path).instance).values
        for drop, fails in ((2e-9, True), (5e-10, False)):
            w = v.copy()
            w[1, 2] = w[1, 1] - drop
            if fails:
                with pytest.raises(ValueError):
                    IndexTable(w)
            else:
                IndexTable(w)


class TestSerialization:
    def test_csv_round_trip_is_exact(self, toy_table, tmp_path):
        p = tmp_path / "idx.csv"
        toy_table.to_csv(p)
        got = np.zeros_like(toy_table.values)
        with open(p, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            assert header == ["T", "B", "cost_state", "period", "index"]
            for t, b, j, tau, val in r:
                got[int(t), int(b), int(j), int(tau)] = float(val)
        assert np.array_equal(got, toy_table.values)

    def test_json_shape(self, toy_table, toy_dynamic, tmp_path):
        import json

        p = tmp_path / "idx.json"
        toy_table.to_json(p, toy_dynamic)
        doc = json.loads(p.read_text())
        assert doc["t_max"] == 4 and doc["b_max"] == 3
        assert np.allclose(doc["index"], toy_table.values)
        # read back for the same instance bit for bit, for another not at all
        got = IndexTable.from_json(p, toy_dynamic)
        assert got.values.tobytes() == toy_table.values.tobytes()
        assert np.array_equal(got.rank, toy_table.rank)
        assert IndexTable.from_json(p, dataclasses.replace(toy_dynamic, discount=0.8)) is None

    def test_writers_match_csv_and_json_modules(self, toy_dynamic, tmp_path):
        """Both files hold the bytes that ``csv.writer`` and ``json.dump``
        write, on a random table: values over many magnitudes and both signs,
        some integral, -0.0 in the zero rows."""
        import json

        rng = np.random.default_rng(7)
        v = rng.standard_normal((5, 6, 3, 2)) * 10.0 ** rng.integers(-20, 20, (5, 6, 3, 2))
        v = np.sort(np.where(rng.random(v.shape) < 0.2, np.round(v), v), axis=1)
        v[0], v[:, 0] = -0.0, 0.0
        table = IndexTable(v)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "B", "cost_state", "period", "index"])
            for state in np.ndindex(v.shape):
                w.writerow([*state, repr(float(v[state]))])
        table.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == want.read_bytes()

        table.to_json(tmp_path / "got.json", toy_dynamic)
        doc = {"t_max": 4, "b_max": 5, "cost_levels": 3, "periods": 2,
               "key": _table_key(toy_dynamic, v), "index": v.tolist()}
        with open(want.with_suffix(".json"), "w") as fh:
            json.dump(doc, fh, indent=1)
        assert (tmp_path / "got.json").read_bytes() == want.with_suffix(".json").read_bytes()


class TestGeometryOfG:
    def test_base_g_matches_value_differences(self, toy_dynamic):
        # level 1, the step from level 0 (the penalty owed at departure); on
        # ULP_DROP its g_1(1, 2) has the crossed middle piece
        for inst in (toy_dynamic, ULP_DROP):
            gs = collected_g(inst)
            for nu in (-0.6, -0.1, 0.0, 0.4, 1.1, 2.5):
                sol = solve_subsidy(SubsidyProblem.of(inst), nu)
                for j in range(2):
                    for b in range(0, 3):
                        want = sol.values[1, b + 1, j, 0] - sol.values[1, b, j, 0]
                        assert gs[(1, b, j, 0)](nu) == pytest.approx(want, abs=1e-9), (b, j, nu)

    def test_recursion_g_matches_value_differences(self, toy_dynamic):
        # g_1 is collected for every level below t_max; every g_h is their
        # telescoped sum
        gs = collected_g(toy_dynamic)
        assert set(gs) == {
            (t, b, j, 0) for t in range(1, 4) for b in range(3) for j in range(2)
        }
        for nu in (-0.45, 0.0, 0.35, 1.3):
            sol = solve_subsidy(SubsidyProblem.of(toy_dynamic), nu)
            for (t, b, h, j, tau) in g_h_keys(gs, toy_dynamic.b_max):
                want = sol.values[t, b + h, j, tau] - sol.values[t, b, j, tau]
                got = g_h(gs, t, b, h, j, tau)(nu)
                assert got == pytest.approx(want, abs=1e-8), (t, b, h, j, tau, nu)

    def test_recursion_reaches_every_branch(self, toy_dynamic, toy_table):
        # Between the indexes of (T, b) and (T, b+1) g_1 has a middle piece;
        # the fixture has states where the index falls from b to b+1 (b >= 1)
        # and where the B = 1 index is below the B = 0 index of 0.  There
        # g_1 matches the exact value difference inside the middle interval.
        gs = collected_g(toy_dynamic)
        v = toy_table.values
        falling = [
            (t, b, j, tau) for (t, b, j, tau) in gs
            if t >= 2 and v[t, b + 1, j, tau] < v[t, b, j, tau]
        ]
        assert any(b >= 1 for (_, b, _, _) in falling)
        assert any(b == 0 for (_, b, _, _) in falling)
        for (t, b, j, tau) in falling:
            nu = 0.5 * (v[t, b, j, tau] + v[t, b + 1, j, tau])
            sol = solve_subsidy(SubsidyProblem.of(toy_dynamic), nu)
            want = sol.values[t, b + 1, j, tau] - sol.values[t, b, j, tau]
            assert gs[(t, b, j, tau)](nu) == pytest.approx(want, abs=1e-8), (t, b, j, tau)

    def test_constant_cost_slopes_stay_in_band(self, toy_constant):
        # Constant cost: every g_h is nonincreasing with slopes in [-h, 0] and
        # flat tails.  (Dynamic cost genuinely breaks this; see the reversal
        # test above.)
        gs = collected_g(toy_constant)
        for (t, b, h, j, tau) in g_h_keys(gs, toy_constant.b_max):
            g = g_h(gs, t, b, h, j, tau)
            assert g.left_slope == pytest.approx(0.0, abs=1e-12)
            assert g.right_slope == pytest.approx(0.0, abs=1e-12)
            dx = np.diff(g.xs)
            dy = np.diff(g.ys)
            sl = dy[dx > 0] / dx[dx > 0]
            if sl.size:
                assert sl.min() >= -h - 1e-9, (t, b, h)
                assert sl.max() <= 1e-9, (t, b, h)


class TestSubsidySolvers:
    @pytest.mark.parametrize("nu", [-0.4, 0.0, 0.7])
    def test_exact_solver_matches_value_iteration(self, toy_dynamic, nu):
        # value iteration's states ravel the (T, B, j, tau) grid of the solve; it
        # gives the cells T = 0, B >= 1, which no charger enters, the empty
        # charger's value and action, where the solve leaves 0 (and the solve
        # sets no action at T = 0, where none changes anything)
        sol = solve_subsidy(SubsidyProblem.of(toy_dynamic), nu)
        vi = subsidy_value_iteration(toy_dynamic, nu, tol=1e-9)
        values, actions = (a.reshape(sol.values.shape) for a in vi)
        unused = np.zeros(values.shape[:2], dtype=bool)
        unused[0, 1:] = True
        np.testing.assert_allclose(values[~unused], sol.values[~unused], rtol=0, atol=1e-7)
        np.testing.assert_array_equal(actions[1:], sol.actions[1:])
        assert np.all(values[0] == values[0, :1]) and np.all(actions[0] == actions[0, :1])
        assert np.all(sol.values[0, 1:] == 0.0)

    def test_actions_flip_exactly_at_the_index(self, toy_dynamic, toy_table):
        # just below the index the state is worth activating, just above not
        for state in [(3, 2, 0, 0), (2, 1, 1, 0), (4, 3, 1, 0)]:
            t, b, j, tau = state
            star = float(toy_table.values[state])
            below = solve_subsidy(SubsidyProblem.of(toy_dynamic), star - 1e-6)
            above = solve_subsidy(SubsidyProblem.of(toy_dynamic), star + 1e-6)
            assert below.actions[t, b, j, tau] == 1
            assert above.actions[t, b, j, tau] == 0

    def test_batch_rows_match_single_passes(self, toy_dynamic):
        nus = [-0.4, 0.0, 0.13, 0.7, 2.0]
        batch = list(subsidy_pass(toy_dynamic, nus))
        assert len(batch) == toy_dynamic.t_max
        for i, nu in enumerate(nus):
            single = list(subsidy_pass(toy_dynamic, [nu]))
            actions = solve_subsidy(SubsidyProblem.of(toy_dynamic), nu).actions
            for t, ((u, act), (u1, _)) in enumerate(zip(batch, single), 1):
                assert u.shape == act.shape == (len(nus), 4, 2, 1)
                np.testing.assert_allclose(u[i], u1[0], rtol=0, atol=1e-12)
                assert np.array_equal(act[i], actions[t])


class TestBisectionOracle:
    def test_matches_value_iteration_bisection_on_every_state(self, toy_dynamic):
        ref = index_by_bisection(toy_dynamic)
        assert ref.shape == (5, 4, 2, 1)
        assert np.all(ref[0] == 0.0)
        for state in np.ndindex(ref.shape):
            if state[0] >= 1:
                vi = index_by_vi_bisection(toy_dynamic, state, tol=1e-8)
                assert ref[state] == pytest.approx(vi, abs=1e-6), state

    def test_matches_the_table(self, toy_dynamic, toy_table):
        ulp_table = compute_index_table(ULP_DROP)
        assert np.all(ulp_table.values[1, 3] < ulp_table.values[1, 2])  # level 1 crosses
        for inst, table in ((toy_dynamic, toy_table), (ULP_DROP, ulp_table)):
            assert np.abs(index_by_bisection(inst) - table.values).max() <= 1e-8

    def test_chunks_agree_with_one_batch(self, toy_dynamic, monkeypatch):
        import evbandit.whittle as w

        whole = index_by_bisection(toy_dynamic)
        monkeypatch.setattr(w, "ORACLE_BYTES", 1)  # one state per chunk
        np.testing.assert_allclose(index_by_bisection(toy_dynamic), whole, rtol=0, atol=2e-8)


def test_check_indexability_passes_on_fixture(toy_dynamic):
    grid = np.linspace(-1.0, 3.0, 17)
    assert check_indexability(toy_dynamic, grid, vi_tol=1e-10)


def test_check_indexability_rejects_unsorted_grid(toy_dynamic):
    with pytest.raises(ValueError):
        check_indexability(toy_dynamic, [1.0, 0.0])


def test_check_indexability_catches_violations(toy_dynamic, monkeypatch):
    # feed it a fake activation pattern that re-activates at a higher subsidy
    import evbandit.whittle as w

    flips = iter([np.array([1, 0]), np.array([0, 1])])

    def fake_vi(instance, nu, tol=1e-9):
        return np.zeros(2), next(flips)

    monkeypatch.setattr(w, "subsidy_value_iteration", fake_vi)
    assert not check_indexability(toy_dynamic, [0.0, 1.0], states=[0, 1])
