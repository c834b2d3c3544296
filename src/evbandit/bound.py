"""Performance upper bound from the budget-relaxed single-charger MDP.

Relaxing the per-slot capacity constraint to a discounted time-average budget
decouples the chargers.  The bound is the Lagrangian dual of the resulting
single-charger constrained MDP: price the budget at lambda, solve the
unconstrained subsidy problem exactly, and find the convex dual's exact
minimiser among its kinks, the index table's values, without scipy.

``solve_bound(..., verify=True)`` certifies it on the occupancy LP, max c.x
s.t. A_eq x = b_eq, a.x <= M/N, x >= 0, with numpy alone.  The basis (x(s,
a(s)) and every z) of the greedy policy either side of lambda* gives its
occupancy and, at the LP price lambda* / (1 - beta), duals y, exactly: by
sweeps over the lead time, which falls by one a slot whatever the action, and
one K N_tau system for z.  The optimum lies between c.x, x the occupancies'
mix at which the budget binds, and b_eq.y + price M/N + 2 max(r, 0), r the
reduced costs (c.x = b_eq.y + price a.x + r.x; sum x + sum z <= 2 if x is
feasible), whatever the hints: a wrong one only widens the bracket, which
must lie within 1e-4 of the dual.

The LP is written in vacancy form.  A departing or empty charger (T <= 1) is
refilled by the same arrival law whatever its state and action, so one extra
variable z(j, tau) per price state carries the mass of such chargers, and the
refill enters the balance rows once per price state instead of once per
departing state and action.  This is an exact change of variables: the
optimum is that of the LP with one column per state and action, each
departing one carrying the whole refill, whose constraint matrix has two to
four times as many nonzeros on the shipped configs.  The LP builds from
``model.extended_moves``, the law's one-slot steps as entries.

N times the optimal value upper-bounds every admissible policy of the real
system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import Instance, charger_law, extended_moves
from .whittle import IndexTable, compute_index_table, price_powers, solve_subsidy

__all__ = ["OccupancyLP", "BoundResult", "build_occupancy_lp", "lp_entries", "solve_bound"]

FEASIBILITY_TOL = 1e-9  # how far the certificate's occupancy, of mass one, may miss a row


@dataclass
class OccupancyLP:
    """max c·x s.t. A_eq x = b_eq, A_ub·x <= b_ub, x >= 0.

    Variables are stacked [x(s,0), x(s,1), z] over the ``n_states`` extended
    states s = (cs K + j) N_tau + tau of ``model.extended_moves`` and the
    K * N_tau price states (j, tau); x(s,a) is the discounted visitation frequency
    (1-beta) E sum beta^t 1{state s, action a}, and z(j, tau) the sum of
    x(s,a) over the states of (j, tau) with T <= 1.  ``A_eq`` holds the (rows,
    cols, values) that ``lp_entries`` counts; ``A_ub`` is 1 on each x(s,1).
    """

    c: np.ndarray
    A_eq: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    n_states: int


@dataclass
class BoundResult:
    """``value``, ``dual_value`` and the LP's bracket [``lp_value``, ``lp_upper``]
    are N times per-charger values.  ``lam`` is the dual's exact minimiser and
    ``activation_frequency`` the per-charger (1-beta) E sum beta^t a_t of the
    lam-greedy policy, ties passive, so at most M/N.  The bracket is set only
    when the LP certified the dual, and ``method`` is then "both"."""

    value: float
    lam: float
    dual_value: float
    activation_frequency: float
    lp_value: float | None = None
    lp_upper: float | None = None
    method: str = "dual"


def build_occupancy_lp(instance: Instance) -> OccupancyLP:
    """Occupancy LP of the single-charger problem with budget M/N, in vacancy form.

    With s' = (cs', j', tau+1), the balance of s' is
    sum_a x(s',a) = (1-beta) mu0(s')
                    + beta sum_{cs: T>=2, j, a} 1{cs' = next_a(cs)} P_tau(j,j') x(cs,j,tau,a)
                    + beta sum_j arrival_tau(cs') P_tau(j,j') z(j,tau),
    where next_a and arrival_tau are the law's ``next[a]`` and ``arrival[tau]``,
    arrival_tau(0) = 1 - rho_tau and arrival_tau(cs') = rho_tau pmf_tau(cs'),
    and z(j,tau) = sum_{cs: T<=1, a} x(cs,j,tau,a) is a row of its own.
    Budget: sum_s x(s,1) <= M/N; objective (to maximize):
    (1/(1-beta)) sum x(s,a) R_a(s).  mu0 is the empty charger in period 0
    with the cost level at its stationary law.
    """
    inst = instance
    law = charger_law(inst)
    nt, beta = inst.n_periods, inst.discount
    m = inst.cost.n_levels * nt
    n = law.T.size * m
    s = np.arange(n)
    (a, stay, s2, p), (v, r2, q), vacant = extended_moves(inst, law)
    z = n + vacant % m  # the row of the z(j, tau) each vacant state counts in
    rows = [s, s, z, z, n + np.arange(m), s2, r2]
    cols = [s, n + s, vacant, n + vacant, 2 * n + np.arange(m), a * n + stay, 2 * n + v]
    data = [np.ones(n), np.ones(n), -np.ones(vacant.size), -np.ones(vacant.size), np.ones(m),
            -beta * p, -beta * q]
    a_eq = tuple(map(np.concatenate, (rows, cols, data)))
    b_eq = np.zeros(n + m)
    b_eq[:m:nt] = (1.0 - beta) * inst.cost.stationary()
    a_ub = np.repeat([0.0, 1.0, 0.0], [n, n, m])
    b_ub = np.array([inst.capacity / inst.n_chargers])
    c = np.concatenate([np.repeat(law.reward.reshape(2, -1), nt, axis=1).ravel(), np.zeros(m)])
    return OccupancyLP(c / (1.0 - beta), a_eq, b_eq, a_ub, b_ub, n)


def lp_entries(instance: Instance) -> int:
    """Triplets of ``build_occupancy_lp``'s A_eq, counted from ``charger_law``'s
    arrays without building it: per price state, a one for each x and for z
    and a -1 for each vacant state's x; and one per staying (cs, a), or per
    arrival entry, and cost move of its period."""
    law = charger_law(instance)
    moves = np.count_nonzero(instance.cost.matrix_for(np.arange(instance.n_periods)), axis=(1, 2))
    steps = np.count_nonzero(law.next) * moves.sum() + np.count_nonzero(law.arrival, axis=1) @ moves
    cells = 2 * law.T.size + 2 * np.count_nonzero(law.T <= 1) + 1
    return int(cells * instance.cost.n_levels * instance.n_periods + steps)


def linprog(c, *args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(c, *args, **kwargs)


def _basis_solver(instance: Instance, lp: OccupancyLP):
    """``solve(act, price)``: (x, y) with B x = b_eq and y B = c_B - price A_ub,B
    for the basis B of the policy ``act`` (laid out like ``IndexTable.values``),
    by the module docstring's sweeps over ``lp``'s own triplets."""
    n, m, t_max = lp.n_states, lp.c.size - 2 * lp.n_states, instance.t_max
    rows, cols, vals = lp.A_eq
    state, fill = cols % n, (rows < n) & (cols >= 2 * n)
    stay = (rows < n) & (cols < 2 * n) & (rows != state)  # a charger with T >= 2 moving on
    lead = np.repeat(charger_law(instance).T, m)
    edges = np.searchsorted(lead, np.arange(t_max + 2))  # lead time T: ids edges[T] to edges[T+1]
    # reach[at[s]]: the discounted mass, by price state, with which the charger of
    # state s falls vacant; couple[v]: that of the refill z(v), so z = reach^T b + couple^T z
    powers = price_powers(instance)
    reach = np.concatenate([powers[:1], powers[:-1]]).reshape(-1, m)
    at = lead * m + np.arange(n) % m
    r2, v, q = rows[fill], cols[fill] - 2 * n, -vals[fill]  # the refills F: z(v) into r2
    couple = np.bincount(v * len(reach) + at[r2], q, m * len(reach)).reshape(m, -1) @ reach
    z = np.linalg.solve(np.eye(m) - couple.T, reach.T @ np.bincount(at, lp.b_eq[:n], len(reach)))

    def solve(act, price):
        act = np.concatenate([act[0, :1], act[1:].reshape(-1, *act.shape[2:])]).ravel()
        keep = np.flatnonzero(stay & (cols // n == act[state]))
        keep = keep[np.argsort(state[keep], kind="stable")]
        src, dst, w = state[keep], rows[keep], -vals[keep]
        cuts, basic = np.searchsorted(src, edges), np.arange(n) + n * act.astype(np.intp)
        x = lp.b_eq[:n] + np.bincount(r2, q * z[v], n)
        for t in range(t_max, 1, -1):  # (I - W) x = b + F z, W the basis's stays
            e, lo, hi = slice(cuts[t], cuts[t + 1]), edges[t - 1], edges[t]
            x[lo:hi] += np.bincount(dst[e] - lo, w[e] * x[src[e]], hi - lo)
        y = lp.c[basic] - price * lp.A_ub[basic]
        for t in range(2, t_max + 1):  # (I - W^T) y = c_B - price A_ub,B; reach adds y_z after
            e, lo, hi = slice(cuts[t], cuts[t + 1]), edges[t], edges[t + 1]
            y[lo:hi] += np.bincount(src[e] - lo, w[e] * y[dst[e]], hi - lo)
        y_z = np.linalg.solve(np.eye(m) - couple, np.bincount(v, q * y[r2], m))
        return np.concatenate([np.bincount(basic, x, 2 * n), z]), np.r_[y + (reach @ y_z)[at], y_z]

    return solve


def _certify(instance: Instance, price: float, hints, value: float) -> tuple[float, float]:
    """(lower, upper): the module docstring's bracket from the greedy
    ``SubsidySolution.actions`` ``hints`` either side of the budget ``price``
    (the left None at price 0).  RuntimeError if the occupancy is infeasible
    or an end lies over 1e-4 from ``value``."""
    lp = build_occupancy_lp(instance)
    (rows, cols, vals), share, budget = lp.A_eq, lp.b_ub[0], lp.A_ub
    solve = _basis_solver(instance, lp)
    x, y = solve(hints[1], price)
    r = lp.c - np.bincount(cols, vals * y[rows], lp.c.size) - price * budget
    upper = float(lp.b_eq @ y + price * share + 2.0 * max(r.max(), 0.0))
    if hints[0] is not None and budget @ x < share:
        x_lo = solve(hints[0], price)[0]
        x += (share - budget @ x) / (budget @ (x_lo - x)) * (x_lo - x)
    lower = float(lp.c @ x)
    gap = max(np.abs(np.bincount(rows, vals * x[cols], lp.b_eq.size) - lp.b_eq).max(), -x.min(),
              budget @ x - share)
    if gap > FEASIBILITY_TOL or max(abs(lower - value), abs(upper - value)) > 1e-4:
        raise RuntimeError(f"LP bracket [{lower}, {upper}] (infeasibility {gap:.0e}) vs dual {value}")
    return lower, upper


def _dual(instance: Instance, lam: float) -> tuple[float, float, np.ndarray]:
    """(dual(lambda), f, actions): dual(lambda) = V^lambda(mu0) - lambda (1 - M/N) / (1 - beta).

    Pricing activations at lambda is the subsidy problem shifted by a
    constant: R_a - lambda a = (R_a + lambda (1-a)) - lambda.  f is the
    lambda-greedy activation frequency; the slope is (M/N - f) / (1 - beta).
    ``actions`` is the greedy policy (``SubsidySolution.actions``, ties passive).
    """
    sol = solve_subsidy(instance, lam)
    pi = instance.cost.stationary()
    beta = instance.discount
    v0 = float(pi @ sol.values[0, 0, :, 0])
    f = (1.0 - beta) * float(pi @ sol.activations[0, 0, :, 0])
    share = instance.capacity / instance.n_chargers
    return v0 - lam * (1.0 - share) / (1.0 - beta), f, sol.actions


def _exact_dual(instance: Instance, table: IndexTable | None):
    """(lambda*, dual(lambda*), f, hints) by a search over the dual's kinks.

    The dual is convex and piecewise linear, with its kinks at the index
    values: the greedy policy changes only where some state's index equals
    lambda.  At the midpoints between consecutive distinct positive values
    (and past the largest) no state is indifferent, up to the table's
    rounding.  lambda* is 0 if f just above 0 is at most M/N, else the kink
    where f falls to M/N, found by bisection over the pieces and placed where
    the lines of its two pieces meet, not at the table's rounded value.  The
    dual is evaluated at lambda* itself, an upper bound whatever that
    rounding; f is that of the piece right of lambda*, so f <= M/N.  ``hints``:
    ``_certify``'s, the pieces' actions either side.  A ``table`` of None is built.
    """
    share = instance.capacity / instance.n_chargers
    values = (compute_index_table(instance) if table is None else table).values
    kinks = np.sort(values[values > 0])  # np.unique would import numpy.ma
    kinks = kinks[np.diff(kinks, prepend=0.0) > 0]
    edges = np.concatenate([[0.0], kinks, [kinks.max(initial=0.0) + 1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    piece = functools.cache(lambda i: _dual(instance, float(mids[i])))

    if piece(0)[1] <= share:
        return 0.0, _dual(instance, 0.0)[0], piece(0)[1], (None, piece(0)[2])
    lo, hi = 0, mids.size - 1  # f > M/N on piece lo; past every index f = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if piece(mid)[1] > share else (lo, mid)
    (d_lo, f_lo, act_lo), (d_hi, f_hi, act_hi) = piece(lo), piece(hi)
    # the two lines d + (M/N - f) (lambda - mid) / (1 - beta) meet at lambda*
    lam = ((d_hi - d_lo) * (1.0 - instance.discount) + (share - f_lo) * mids[lo]
           - (share - f_hi) * mids[hi]) / (f_hi - f_lo)
    lam = float(np.clip(lam, mids[lo], mids[hi]))
    return lam, _dual(instance, lam)[0], f_hi, (act_lo, act_hi)


def solve_bound(instance: Instance, verify: bool = False,
                table: IndexTable | None = None) -> BoundResult:
    """Upper bound on the N-charger discounted reward: N x relaxed value.

    The exact dual of ``_exact_dual``: a search over the index table's kinks
    (built when ``table`` is None), each evaluation an exact subsidy solve.
    With ``verify`` the occupancy LP certifies it (module docstring): a
    RuntimeError is raised unless the bracket [``lp_value``, ``lp_upper``]
    lies within 1e-4 per charger of the dual.
    """
    n = instance.n_chargers
    lam, dual_value, freq, hints = _exact_dual(instance, table)
    result = BoundResult(n * dual_value, lam, n * dual_value, freq)
    if verify:
        price = lam / (1.0 - instance.discount)
        lower, upper = _certify(instance, price, hints, dual_value)
        result.lp_value, result.lp_upper, result.method = n * lower, n * upper, "both"
    return result
