import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit.model import ArrivalModel, CostChain, Instance, PenaltyFunction
from evbandit.policies import (
    edf_kernel,
    edf_key,
    expected_costs,
    llf_kernel,
    llf_key,
    lllp_kernel,
    select_by_key,
    valley_filling_policy,
    whittle_kernel,
)
from evbandit.whittle import IndexTable, compute_index_table
from conftest import TWO_STATE_COST, make_instance
from oracles import policy_kernel


def table_1x2(lo, hi):
    """Index table over T<=1, B<=2 with index lo at (1,1) and hi at (1,2)."""
    v = np.zeros((2, 3, 1, 1))
    v[1, 1, 0, 0] = lo
    v[1, 2, 0, 0] = hi
    return IndexTable(v)


def station(pairs):
    """One station row: (1, N) lead-time and demand arrays."""
    t, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return t[None, :], b[None, :]


def whittle(pairs, tab, m, j=0, tau=0):
    t, b = station(pairs)
    return whittle_kernel(t, b, np.array([j]), tau, tab, m)[0].astype(int)


def lllp(pairs, action):
    t, b = station(pairs)
    return lllp_kernel(t, b, np.array(action, dtype=bool)[None, :])[0].astype(int)


def rule(kernel, pairs, m):
    t, b = station(pairs)
    return kernel(t, b, m)[0].astype(int)


class TestWhittlePolicy:
    def test_strict_ordering_picks_the_top(self):
        tab = table_1x2(0.5, 0.7)
        assert whittle([(1, 2), (1, 1)], tab, 1).tolist() == [1, 0]
        assert whittle([(1, 1), (1, 2)], tab, 1).tolist() == [0, 1]

    def test_dummy_arm_beats_negative_index(self):
        tab = table_1x2(-0.1, 0.7)
        assert whittle([(1, 2), (1, 1)], tab, 2).tolist() == [1, 0]

    def test_zero_index_resolves_to_idle(self):
        tab = table_1x2(0.0, 0.7)
        assert whittle([(1, 2), (1, 1)], tab, 2).tolist() == [1, 0]

    def test_empty_charger_never_activated(self):
        tab = table_1x2(0.5, 0.7)
        assert whittle([(0, 0)], tab, 1).tolist() == [0]

    def test_respects_capacity_on_fixture(self, toy_dynamic):
        tab = compute_index_table(toy_dynamic)
        assert whittle([(4, 3), (3, 3)], tab, toy_dynamic.capacity).sum() == 1


class TestLLLP:
    def test_dominating_waiter_swaps_in(self):
        # waiting (3,2) has less laxity and more demand than active (5,1)
        assert lllp([(5, 1), (3, 2)], [1, 0]).tolist() == [0, 1]

    def test_no_dominance_no_change(self):
        assert lllp([(3, 2), (5, 1)], [1, 0]).tolist() == [1, 0]

    def test_all_active_unchanged(self):
        assert lllp([(5, 1), (3, 2)], [1, 1]).tolist() == [1, 1]

    def test_partial_dominance_does_not_swap(self):
        # (2,1) has less laxity but also less demand than (4,3): incomparable
        assert lllp([(4, 3), (2, 1)], [1, 0]).tolist() == [1, 0]

    def test_chain_of_swaps_reaches_fixed_point(self):
        # two dominating waiters, one victim each
        out = lllp([(6, 1), (5, 1), (2, 2), (3, 2)], [1, 1, 0, 0])
        assert out.tolist() == [0, 0, 1, 1]


@st.composite
def state_and_action(draw):
    n = draw(st.integers(1, 6))
    pairs = []
    for _ in range(n):
        t = draw(st.integers(0, 5))
        b = draw(st.integers(0, min(t, 4))) if t else 0
        pairs.append((t, b))
    acts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a = np.array(acts, dtype=int)
    occ = np.array([t >= 1 and b > 0 for t, b in pairs])
    a &= occ.astype(int)
    return pairs, a


@settings(max_examples=80, deadline=None)
@given(state_and_action())
def test_lllp_preserves_count_and_is_idempotent(sa):
    pairs, a = sa
    once = lllp(pairs, a)
    assert once.sum() == a.sum()
    twice = lllp(pairs, once)
    assert np.array_equal(once, twice)
    # never activates an unoccupied charger
    for (t, b), act in zip(pairs, once):
        if act:
            assert t >= 1 and b > 0


@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=5))
def test_whittle_lllp_fixed_point_when_all_tight(toy_dynamic, pairs):
    # B >= T everywhere: index order equals LLLP preference, nothing to swap
    pairs = [(t, max(t, min(b, 3))) for t, b in pairs if t <= 3] or [(2, 2)]
    tab = compute_index_table(toy_dynamic)
    inst = dataclasses.replace(toy_dynamic, n_chargers=len(pairs), capacity=len(pairs))
    t, b = station(pairs)
    action, swapped_rows = policy_kernel("whittle+lllp", inst, tab)(t, b, np.array([0]), 0)
    assert not swapped_rows.any()
    assert np.array_equal(action, policy_kernel("whittle", inst, tab)(t, b, np.array([0]), 0)[0])


class TestEDF:
    def test_earliest_deadlines_win(self):
        assert rule(edf_kernel, [(2, 1), (5, 3), (1, 2)], 2).tolist() == [1, 0, 1]

    def test_fewer_candidates_than_capacity(self):
        assert rule(edf_kernel, [(2, 1), (0, 0), (3, 0)], 2).tolist() == [1, 0, 0]

    def test_tie_breaks_larger_demand_then_lower_id(self):
        assert rule(edf_kernel, [(2, 1), (2, 3)], 1).tolist() == [0, 1]
        assert rule(edf_kernel, [(2, 2), (2, 2)], 1).tolist() == [1, 0]


class TestLLF:
    def test_least_laxity_wins(self):
        # laxities 4, 1, 0
        assert rule(llf_kernel, [(5, 1), (3, 2), (2, 2)], 2).tolist() == [0, 1, 1]
        assert rule(llf_kernel, [(5, 1), (3, 2), (2, 2)], 1).tolist() == [0, 0, 1]

    def test_equal_laxity_decided_by_demand(self):
        assert rule(llf_kernel, [(3, 1), (4, 2)], 1).tolist() == [0, 1]

    def test_no_occupied_chargers(self):
        assert rule(llf_kernel, [(0, 0), (2, 0)], 2).tolist() == [0, 0]


@settings(max_examples=60, deadline=None)
@given(state_and_action(), st.integers(0, 6))
def test_benchmarks_fill_capacity_exactly(sa, m):
    pairs, _ = sa
    n_cand = sum(1 for t, b in pairs if t >= 1 and b > 0)
    for kernel in (edf_kernel, llf_kernel):
        action = rule(kernel, pairs, m)
        assert action.sum() == min(m, n_cand)
        for (t, b), act in zip(pairs, action):
            if act:
                assert t >= 1 and b > 0


def test_select_by_key_masks_ineligible():
    key = np.array([[1.0, 0.0, 2.0]])
    b = np.array([[1, 1, 1]])
    elig = np.array([[True, False, True]])
    out = select_by_key(key, b, 1, elig)
    assert out.tolist() == [[True, False, False]]


def vf_instance(cost, t_max=2, b_max=1, capacity=1, kappa=0.2, n=1):
    return Instance(
        n_chargers=n,
        capacity=capacity,
        discount=0.9,
        t_max=t_max,
        b_max=b_max,
        penalty=PenaltyFunction.quadratic(kappa, b_max),
        arrivals=ArrivalModel.uniform_feasible(t_max, b_max, 0.5),
        cost=cost,
    )


def valley(pairs, inst, j=0, tau=0):
    t, b = station(pairs)
    action, plan = valley_filling_policy(t[0], b[0], j, tau, inst, expected_costs(inst))
    return action.astype(int), plan


class TestValleyFilling:
    def test_defers_into_the_cheap_slot(self):
        chain = CostChain(values=np.array([0.9, 0.1]), P=np.array([[0.0, 1.0], [0.0, 1.0]]))
        action, plan = valley([(2, 1)], vf_instance(chain))
        assert action.tolist() == [0]
        assert plan[0].tolist() == [0.0, 1.0]

    def test_charges_at_a_loss_to_dodge_the_penalty(self):
        inst = vf_instance(CostChain.constant(0.99), t_max=1)
        assert valley([(1, 1)], inst)[0].tolist() == [1]

    def test_idles_when_loss_exceeds_penalty(self):
        inst = vf_instance(CostChain.constant(1.5), t_max=1)
        assert valley([(1, 1)], inst)[0].tolist() == [0]

    def test_zero_capacity(self):
        inst = vf_instance(CostChain.constant(0.5), capacity=0)
        assert valley([(2, 1)], inst)[0].tolist() == [0]

    def test_plan_respects_slot_capacity(self):
        inst = vf_instance(CostChain.constant(0.1), t_max=3, b_max=2, capacity=1, n=3)
        action, plan = valley([(3, 2), (2, 2), (2, 1)], inst)
        assert action.sum() <= 1
        assert np.all(plan.sum(axis=0) <= 1 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 2), st.integers(0, 2)), min_size=1, max_size=2),
        st.floats(0.0, 1.4),
        st.floats(0.0, 1.4),
        st.floats(0.05, 0.6),
    )
    def test_plan_value_matches_exhaustive_search(self, raw, c0, c1, kappa):
        pairs = [(t, min(b, t)) for t, b in raw]
        chain = CostChain(values=np.array([c0, c1]), P=np.array([[0.5, 0.5], [0.5, 0.5]]))
        inst = vf_instance(chain, t_max=2, b_max=2, capacity=1, kappa=kappa, n=len(pairs))
        action, plan = valley(pairs, inst)
        occupied = [i for i, (t, b) in enumerate(pairs) if t >= 1 and b > 0]
        if not occupied:
            assert action.sum() == 0
            return
        horizon = max(pairs[i][0] for i in occupied)
        ec = expected_costs(inst)[0, 0, :horizon]
        F = inst.penalty

        def value(plan):
            v = 0.0
            for row, i in enumerate(occupied):
                v += sum((1.0 - ec[k]) for k in plan[row])
                v -= float(F(pairs[i][1] - len(plan[row])))
            return v

        # exhaustive: per EV, any subset of its feasible slots up to its demand
        options = []
        for i in occupied:
            t, b = pairs[i]
            slots = range(t)
            opts = [
                c
                for r in range(min(t, b) + 1)
                for c in itertools.combinations(slots, r)
            ]
            options.append(opts)
        best = -np.inf
        for combo in itertools.product(*options):
            loads = np.zeros(horizon)
            for sub in combo:
                for k in sub:
                    loads[k] += 1
            if np.any(loads > inst.capacity):
                continue
            best = max(best, value(combo))

        got = [tuple(np.nonzero(plan[r])[0].tolist()) for r in range(len(occupied))]
        assert value(got) == pytest.approx(best, abs=1e-9)


class TestCostForecast:
    def test_matches_matrix_powers(self):
        inst = make_instance(cost=TWO_STATE_COST, t_max=3, b_max=2)
        ec = expected_costs(inst)
        assert ec.shape == (2, 1, 4)
        P = TWO_STATE_COST.P[0]
        vals = TWO_STATE_COST.values
        for k in range(4):
            want = np.linalg.matrix_power(P, k) @ vals
            for j in range(2):
                assert ec[j, 0, k] == pytest.approx(want[j])

    def test_periodic_chain_uses_the_right_matrices(self):
        p0 = np.array([[0.9, 0.1], [0.5, 0.5]])
        p1 = np.array([[0.2, 0.8], [0.6, 0.4]])
        chain = CostChain(values=np.array([0.3, 1.2]), P=np.stack([p0, p1]))
        inst = make_instance(cost=chain, n_periods=2, t_max=3, b_max=2)
        ec = expected_costs(inst)
        vals = chain.values
        assert ec[0, 1, 1] == pytest.approx((p1 @ vals)[0])
        assert ec[1, 1, 2] == pytest.approx((p1 @ p0 @ vals)[1])
        assert ec[0, 0, 2] == pytest.approx((p0 @ p1 @ vals)[0])


# ---------------------------------------------------------------------------
# Reference valley LP: the column-by-column builder that the array layout
# replaced, copied verbatim but for the forecast: an ``expected_costs`` array
# in place of the deleted CostForecast object, and the line that reads it.
# The arrays handed to linprog must be equal element for element, so the
# plans are too.


def reference_valley_filling_policy(
    t: np.ndarray,
    b: np.ndarray,
    j: int,
    tau: int,
    instance: Instance,
    exp_cost: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    from scipy.optimize import linprog

    m = instance.capacity
    occupied = np.nonzero((t >= 1) & (b > 0))[0]
    action = np.zeros(t.shape, dtype=bool)
    if occupied.size == 0 or m == 0:
        return action, None
    horizon = int(t[occupied].max())
    ec = np.array([float(exp_cost[j, tau % exp_cost.shape[1], k]) for k in range(horizon)])
    cols = []  # (ev_row, slot or None, cost)
    for row, i in enumerate(occupied):
        for k in range(int(t[i])):
            cols.append((row, k, -(1.0 - ec[k])))
        for u in range(1, int(b[i]) + 1):
            cols.append((row, None, float(instance.penalty.delta(u))))
    nv = len(cols)
    c_obj = np.array([c for _, _, c in cols])
    a_eq = np.zeros((occupied.size, nv))
    b_eq = b[occupied].astype(float)
    a_ub = np.zeros((horizon, nv))
    for v, (row, k, _) in enumerate(cols):
        a_eq[row, v] = 1.0
        if k is not None:
            a_ub[k, v] = 1.0
    res = linprog(
        c_obj,
        A_ub=a_ub,
        b_ub=np.full(horizon, float(m)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"valley-filling plan failed: {res.message}")
    x = res.x
    if np.any(np.abs(x - np.round(x)) > 1e-7):
        raise RuntimeError("valley-filling plan is not integral")
    plan = np.zeros((occupied.size, horizon))
    for v, (row, k, _) in enumerate(cols):
        if k is not None and x[v] > 0.5:
            plan[row, k] = 1.0
    action[occupied] = plan[:, 0] > 0.5
    return action, plan


@st.composite
def valley_cases(draw):
    n = draw(st.integers(1, 4))
    t = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    b = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    n_periods = draw(st.integers(1, 2))
    unit = st.floats(0.0, 1.0)
    levels = np.array([draw(st.floats(0.0, 1.5)) for _ in range(2)])
    stay = np.array([[draw(unit) for _ in range(2)] for _ in range(n_periods)])
    P = np.stack([stay, 1.0 - stay], axis=-1)  # from level j to level 0 w.p. stay[tau, j]
    inst = Instance(  # one charger more than the row, so that m may exceed its length
        n_chargers=n + 1,
        capacity=draw(st.integers(0, n + 1)),
        discount=0.9,
        t_max=4,
        b_max=4,
        penalty=PenaltyFunction.quadratic(draw(st.floats(0.05, 0.6)), 4),
        arrivals=ArrivalModel.uniform_feasible(4, 4, 0.5, n_periods),
        cost=CostChain(values=levels, P=P),
    )
    return t, b, draw(st.integers(0, 1)), draw(st.integers(0, 3)), inst


@settings(max_examples=60, deadline=None)
@given(valley_cases())
def test_valley_lp_arrays_match_the_reference(case):
    import scipy.optimize

    t, b, j, tau, inst = case
    real, calls = scipy.optimize.linprog, []

    def recording(c, **kwargs):
        calls.append((c, kwargs))
        return real(c, **kwargs)

    exp_cost = expected_costs(inst)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.optimize, "linprog", recording)
        action, plan = valley_filling_policy(t, b, j, tau, inst, exp_cost)
        want_action, want_plan = reference_valley_filling_policy(t, b, j, tau, inst, exp_cost)
    assert np.array_equal(action, want_action)
    if want_plan is None:
        assert plan is None and not calls
        return
    assert np.array_equal(plan, want_plan)
    (got_c, got), (want_c, want) = calls
    assert got_c.dtype == want_c.dtype and np.array_equal(got_c, want_c)
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype and np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name


# ---------------------------------------------------------------------------
# Reference kernels: select_by_key and lllp_kernel as they were before the
# packed integer key and the row-shrinking interchange, copied verbatim.  The
# kernels in use must agree with them on every state.

_BIG = np.inf


def reference_select_by_key(
    key: np.ndarray, b: np.ndarray, m: int, eligible: np.ndarray
) -> np.ndarray:
    """Activate up to m eligible chargers with the smallest key.

    key, b, eligible: (S, N). Ties break toward larger B, then lower id.
    """
    s, n = key.shape
    ids = np.broadcast_to(np.arange(n), (s, n))
    masked = np.where(eligible, key, _BIG)
    order = np.lexsort((ids, -b, masked), axis=1)
    ranks = np.empty((s, n), dtype=np.int64)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(n), (s, n)).copy(), axis=1)
    return (ranks < m) & eligible


def reference_lllp_kernel(t: np.ndarray, b: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Batch LLLP interchange on (S, N) state arrays.

    A waiting charger i dominates an active charger k when its laxity is no
    larger and its demand no smaller, one of the two strictly.  Repeatedly
    swap the strongest such pair per seed: dominators scanned by (laxity
    ascending, demand descending, id), the replaced active charger by (laxity
    descending, demand ascending, id).  Each swap strictly lowers the active
    set's (laxity, -demand) rank profile, so this terminates.
    """
    act = active.copy()
    s, n = t.shape
    lax = t - b
    occ = (t >= 1) & (b > 0)
    ids = np.broadcast_to(np.arange(n), (s, n))
    b_max = int(b.max(initial=0))
    l_off = lax - lax.min(initial=0)  # nonnegative laxity ranks
    l_span = int(l_off.max(initial=0)) + 1
    fwd = (l_off * (b_max + 1) + (b_max - b)) * n + ids  # small = strong
    rev = ((l_span - 1 - l_off) * (b_max + 1) + b) * n + ids  # small = weak
    while True:
        cand = occ & ~act
        dom = (
            (lax[:, :, None] <= lax[:, None, :])
            & (b[:, :, None] >= b[:, None, :])
            & ((lax[:, :, None] < lax[:, None, :]) | (b[:, :, None] > b[:, None, :]))
            & cand[:, :, None]
            & act[:, None, :]
        )
        rows_with_pair = dom.any(axis=(1, 2))
        if not rows_with_pair.any():
            return act
        has_victim = dom.any(axis=2)
        i_key = np.where(has_victim, fwd, _BIG)
        i_star = np.argmin(i_key, axis=1)
        victims = np.take_along_axis(dom, i_star[:, None, None], axis=1)[:, 0, :]
        k_key = np.where(victims, rev, _BIG)
        k_star = np.argmin(k_key, axis=1)
        rows = np.nonzero(rows_with_pair)[0]
        act[rows, i_star[rows]] = True
        act[rows, k_star[rows]] = False


@st.composite
def batch_states(draw, max_s=6, max_n=8):
    """(S, N) lead times and demands on a small grid, so ties in laxity and in
    B are common; B may exceed T (negative laxity), and T = 0 or B = 0 leaves
    a charger empty."""
    s = draw(st.integers(1, max_s))
    n = draw(st.integers(1, max_n))
    cells = st.lists(st.integers(0, 4), min_size=s * n, max_size=s * n)
    t = np.array(draw(cells), dtype=np.int64).reshape(s, n)
    b = np.array(draw(cells), dtype=np.int64).reshape(s, n)
    return t, b


def bool_array(draw, shape):
    size = int(np.prod(shape))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.array(flags, dtype=bool).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(batch_states(), st.data())
def test_select_by_key_matches_reference(tb, data):
    t, b = tb
    s, n = t.shape
    key = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=s * n, max_size=s * n)))
    key = key.reshape(s, n)
    eligible = bool_array(data.draw, (s, n))
    m = data.draw(st.integers(0, n + 2))
    assert np.array_equal(select_by_key(key, b, m, eligible), reference_select_by_key(key, b, m, eligible))


@settings(max_examples=300, deadline=None)
@given(batch_states(), st.integers(0, 10))
def test_edf_and_llf_match_reference(tb, m):
    t, b = tb
    cand = (t >= 1) & (b > 0)
    want_edf = reference_select_by_key(np.where(cand, t, 0), b, m, cand)
    want_llf = reference_select_by_key(np.where(cand, t - b, 0), b, m, cand)
    assert np.array_equal(edf_kernel(t, b, m), want_edf)
    assert np.array_equal(llf_kernel(t, b, m), want_llf)


@st.composite
def small_batches(draw):
    """batch_states with an activation, every entry drawn by hypothesis."""
    t, b = draw(batch_states())
    return t, b, bool_array(draw, t.shape)


@st.composite
def wide_batches(draw, max_s=40, max_n=12):
    """(S, N) lead times, demands and an activation on batch_states' grid,
    with the entries from a generator that hypothesis seeds: drawing each of
    up to 480 entries through hypothesis would take seconds per test."""
    s, n = draw(st.integers(1, max_s)), draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t, b = rng.integers(0, 5, size=(2, s, n))
    active = rng.random((s, n)) < draw(st.sampled_from([0.2, 0.5, 0.8]))
    return t, b, active


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_batches(), wide_batches()), st.booleans())
def test_lllp_matches_reference(tba, as_whittle):
    t, b, active = tba
    if as_whittle:
        active &= (t >= 1) & (b > 0)  # as the Whittle kernel hands it over
    got = lllp_kernel(t, b, active)
    assert np.array_equal(got, reference_lllp_kernel(t, b, active))
    assert got.sum(axis=1).tolist() == active.sum(axis=1).tolist()


def test_lllp_matches_reference_on_fixed_cases():
    # row 0: each of six waiters (laxity 0, demand 6..11) dominates each of six
    # active chargers (laxity 6..11, demand 1), so the sweep makes all six
    # swaps, the longest it can make at N = 12; row 1: the same active
    # chargers, and no waiting charger is occupied; row 2: a waiter (laxity 3,
    # demand 3) within the largest active laxity (6) and above the smallest
    # active demand (1) that dominates neither active charger (laxity 6 with
    # demand 6, laxity 1 with demand 1); row 3: a waiter in the same (laxity,
    # demand) cell as the active charger; row 4: laxities and demands above
    # 127, where both waiters swap, the first with the weakest active charger
    t = np.array([[7, 8, 9, 10, 11, 12, 6, 7, 8, 9, 10, 11],
                  [7, 8, 9, 10, 11, 12, 0, 5, 0, 3, 0, 9],
                  [12, 2, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                  [6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                  [400, 330, 390, 500, 0, 0, 0, 0, 0, 0, 0, 0]])
    b = np.array([[1, 1, 1, 1, 1, 1, 6, 7, 8, 9, 10, 11],
                  [1, 1, 1, 1, 1, 1, 4, 0, 2, 0, 0, 0],
                  [6, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                  [3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                  [200, 200, 250, 129, 0, 0, 0, 0, 0, 0, 0, 0]])
    six = np.arange(12) < 6
    active = np.stack([six, six, np.arange(12) < 2, np.arange(12) < 1, np.isin(np.arange(12), [0, 3])])
    got = lllp_kernel(t, b, active)
    assert np.array_equal(got, reference_lllp_kernel(t, b, active))
    want = active.copy()
    want[0] = ~six
    want[4] = np.isin(np.arange(12), [1, 2])
    assert np.array_equal(got, want)


@st.composite
def key_stacks(draw, max_p=4, max_s=5, max_n=8):
    """(P, S, N) keys, demands and eligibility, each slice keyed by one rule
    as the simulator stacks them: Whittle ranks, EDF's lead times or LLF's
    laxities (negative where B > T), each slice with its own demand range."""
    p, s, n = (draw(st.integers(1, hi)) for hi in (max_p, max_s, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys, bs, eligible = [], [], []
    for rule in draw(st.lists(st.sampled_from(["whittle", "edf", "llf"]), min_size=p, max_size=p)):
        b_lo = draw(st.integers(0, 3))
        t = rng.integers(0, 6, size=(s, n))
        b = rng.integers(b_lo, b_lo + draw(st.integers(0, 6)) + 1, size=(s, n))
        if rule == "whittle":
            key = rng.integers(0, 8, size=(s, n))
            elig = key < draw(st.integers(0, 8))
        else:
            key, elig = (edf_key if rule == "edf" else llf_key)(t, b)
        keys.append(key)
        bs.append(b)
        eligible.append(elig)
    return np.stack(keys), np.stack(bs), np.stack(eligible)


def assert_one_selection_serves_the_stack(key, b, eligible, m):
    p, s, n = key.shape
    got = select_by_key(key.reshape(-1, n), b.reshape(-1, n), m, eligible.reshape(-1, n))
    each = [select_by_key(key[i], b[i], m, eligible[i]) for i in range(p)]
    assert np.array_equal(got.reshape(p, s, n), np.stack(each))
    want = reference_select_by_key(key.reshape(-1, n), b.reshape(-1, n), m, eligible.reshape(-1, n))
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(key_stacks(), st.integers(0, 9))
def test_one_stacked_selection_equals_per_policy_selection(stack, m):
    assert_one_selection_serves_the_stack(*stack, m)


def test_stacked_selection_at_160_chargers_with_full_size_ranks():
    # a full-size table, T <= 12, B <= 9, K = 5 cost levels and 24 periods,
    # has at most 13 * 10 * 5 * 24 ranks; a Whittle slice with keys at both
    # ends of that count sits on an LLF slice whose keys go down to 1 - 9
    n, ranks = 160, 13 * 10 * 5 * 24
    rng = np.random.default_rng(7)
    t = rng.integers(0, 13, size=(3, n))
    b = rng.integers(0, 10, size=(3, n))
    whittle_rank = np.where(rng.random((3, n)) < 0.5, 0, ranks - 1)
    llf, llf_ok = llf_key(t, b)
    key = np.stack([whittle_rank, llf])
    eligible = np.stack([whittle_rank < ranks - 1, llf_ok])
    assert_one_selection_serves_the_stack(key, np.stack([b, b[::-1]]), eligible, 80)


def test_select_by_key_refuses_a_packed_key_beyond_int64():
    b = np.zeros((1, 2), dtype=np.int64)
    widest = np.array([[2**62 - 2, 0]])  # (range + 1) * 2 chargers = 2**63 - 2 packed keys
    assert select_by_key(widest, b, 1, np.array([[True, True]])).tolist() == [[False, True]]
    assert select_by_key(widest, b, 1, np.array([[True, False]])).tolist() == [[True, False]]
    with pytest.raises(ValueError, match="int64"):
        select_by_key(widest + np.array([[1, 0]]), b, 1, np.array([[True, True]]))
    with pytest.raises(ValueError, match="int64"):
        select_by_key(np.array([[0, 2**40]]), np.array([[0, 2**22]]), 1, np.array([[True, True]]))


@st.composite
def tied_tables(draw):
    """Index tables on T <= 4, B <= 4 (2 cost levels, 2 periods) whose values
    come from a few levels, so equal indices at different (T, B) are common."""
    levels = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0])
    v = np.array(draw(st.lists(levels, min_size=5 * 5 * 4, max_size=5 * 5 * 4))).reshape(5, 5, 2, 2)
    v[0] = 0.0
    v[:, 0] = 0.0
    for t in range(1, 5):
        v[t, t:] = np.maximum.accumulate(v[t, t:], axis=0)
    return IndexTable(v)


@settings(max_examples=300, deadline=None)
@given(tied_tables(), batch_states(max_n=6), st.data())
def test_whittle_matches_reference(tab, tb, data):
    t, b = tb
    s, n = t.shape
    j = np.array(data.draw(st.lists(st.integers(0, 1), min_size=s, max_size=s)))
    tau = data.draw(st.integers(0, 3))
    m = data.draw(st.integers(0, n + 2))
    idx = tab.values[t, b, j[:, None], tau % 2]
    want = reference_select_by_key(-idx, b, m, (idx > 0.0) & (b > 0) & (t >= 1))
    assert np.array_equal(whittle_kernel(t, b, j, tau, tab, m), want)


def test_whittle_ties_break_toward_larger_b_then_lower_id():
    v = np.zeros((4, 4, 1, 1))
    v[1:, 1:] = 0.5  # one index value at every occupied state
    tab = IndexTable(v)
    pairs = [(2, 1), (3, 2), (1, 2), (3, 2)]
    assert whittle(pairs, tab, 1).tolist() == [0, 1, 0, 0]
    assert whittle(pairs, tab, 2).tolist() == [0, 1, 1, 0]
    assert whittle(pairs, tab, 3).tolist() == [0, 1, 1, 1]
    assert whittle(pairs, tab, 4).tolist() == [1, 1, 1, 1]
    assert whittle([(1, 1), (3, 3)], tab, 1).tolist() == [0, 1]
    # a larger index still comes first, whatever its B
    v[3, 1] = 0.75
    assert whittle([(3, 3), (3, 1)], IndexTable(v), 1).tolist() == [0, 1]
