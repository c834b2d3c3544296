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

The LP is written in vacancy form on ``model.extended_moves``' states s =
(cs K + j) N_tau + tau: x(s, a) is the discounted frequency (1-beta) E sum
beta^t 1{s, a}, and z(j, tau) the mass of x on the departing or empty
chargers (T <= 1) of price state (j, tau), which the arrival law refills
whatever their state and action.  Row s' = (cs', j', tau+1) reads sum_a
x(s', a) = (1-beta) mu0(s') + beta sum P_tau(j, j') x(cs, j, tau, a) over the
stays with ``next[a, cs]`` = cs' + beta sum_j ``arrival[tau, cs']`` P_tau(j,
j') z(j, tau), mu0 the empty charger in period 0 at the stationary cost law;
a.x = sum_s x(s, 1), and c = R / (1-beta).  This exact change of variables
keeps the optimum of the LP with one column per state and action, each
departing one carrying the whole refill, whose constraint matrix has two to
four times as many nonzeros on the shipped configs.  A_eq is never built: the
sweeps and the certificate's products read ``extended_moves``' entries.

N times the optimal value upper-bounds every admissible policy of the real
system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import Instance, charger_law, extended_moves
from .whittle import IndexTable, compute_index_table, price_powers, solve_subsidy

__all__ = ["BoundResult", "lp_entries", "solve_bound"]

FEASIBILITY_TOL = 1e-9  # how far the certificate's occupancy, of mass one, may miss a row


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


def lp_entries(instance: Instance) -> int:
    """Nonzeros of the occupancy LP's A_eq as the tests' referee builds it,
    counted from ``charger_law``'s arrays: per price state, a one for each x
    and for z and a -1 for each vacant state's x; and one per staying (cs, a),
    or per arrival entry, and cost move of its period."""
    law = charger_law(instance)
    moves = np.count_nonzero(instance.cost.matrix_for(np.arange(instance.n_periods)), axis=(1, 2))
    steps = np.count_nonzero(law.next) * moves.sum() + np.count_nonzero(law.arrival, axis=1) @ moves
    cells = 2 * law.T.size + 2 * np.count_nonzero(law.T <= 1) + 1
    return int(cells * instance.cost.n_levels * instance.n_periods + steps)


def linprog(c, *args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(c, *args, **kwargs)


def _basis_solver(instance: Instance):
    """The LP's vectors (c, b_eq, a) and three functions on ``extended_moves``'
    entries, x laid out [x(s, 0), x(s, 1), z] and y by row [s, z]:
    ``solve(act, price)``, (x, y) with B x = b_eq and y B = c_B - price a_B for
    the basis B of the policy ``act`` (laid out like ``IndexTable.values``), by
    the module docstring's sweeps; ``residual(x)`` = A_eq x - b_eq; and
    ``reduced(y, price)`` = c - A_eq^T y - price a.  ``reduced`` adds each
    column's terms in A_eq's order (its own row, a vacant state's z row, its
    stays) before it subtracts them from c: duals near 1e99 then cancel among
    themselves, as in a product with the matrix, and do not round c away."""
    law = charger_law(instance)
    nt, beta, t_max = instance.n_periods, instance.discount, instance.t_max
    m = instance.cost.n_levels * nt
    n = law.T.size * m
    (a, s, s2, w), (v, r2, q), vacant = extended_moves(instance, law)
    w *= beta  # A_eq holds -w at (s2, a n + s) and -q at (r2, z(v))
    q *= beta
    vacated = vacant % m  # the z each vacant state counts in
    c = np.concatenate([np.repeat(law.reward.reshape(2, -1), nt, axis=1).ravel(), np.zeros(m)])
    c /= 1.0 - beta
    b_eq = np.zeros(n + m)
    b_eq[:m:nt] = (1.0 - beta) * instance.cost.stationary()
    budget = np.repeat([0.0, 1.0, 0.0], [n, n, m])
    lead = np.repeat(law.T, m)
    edges = np.searchsorted(lead, np.arange(t_max + 2))  # lead time T: ids edges[T] to edges[T+1]
    # reach[at[s]]: the discounted mass, by price state, with which the charger of
    # state s falls vacant; couple[v]: that of the refill z(v), so z = reach^T b + couple^T z
    reach = np.stack([np.eye(m), *price_powers(instance)[:-1]]).reshape(-1, m)
    at = lead * m + np.arange(n) % m
    couple = np.bincount(v * len(reach) + at[r2], q, m * len(reach)).reshape(m, -1) @ reach
    z = np.linalg.solve(np.eye(m) - couple.T, reach.T @ np.bincount(at, b_eq[:n], len(reach)))

    def solve(act, price):
        act = np.concatenate([act[0, :1], act[1:].reshape(-1, *act.shape[2:])]).ravel()
        keep = np.flatnonzero(a == act[s])  # the basis's stays W
        keep = keep[np.argsort(s[keep], kind="stable")]
        src, dst, wk = s[keep], s2[keep], w[keep]
        cuts, basic = np.searchsorted(src, edges), np.arange(n) + n * act.astype(np.intp)
        x = b_eq[:n] + np.bincount(r2, q * z[v], n)
        for t in range(t_max, 1, -1):  # (I - W) x = b + F z, F the refills
            e, lo, hi = slice(cuts[t], cuts[t + 1]), edges[t - 1], edges[t]
            x[lo:hi] += np.bincount(dst[e] - lo, wk[e] * x[src[e]], hi - lo)
        y = c[basic] - price * budget[basic]
        for t in range(2, t_max + 1):  # (I - W^T) y = c_B - price a_B; reach adds y_z after
            e, lo, hi = slice(cuts[t], cuts[t + 1]), edges[t], edges[t + 1]
            y[lo:hi] += np.bincount(src[e] - lo, wk[e] * y[dst[e]], hi - lo)
        y_z = np.linalg.solve(np.eye(m) - couple, np.bincount(v, q * y[r2], m))
        return np.concatenate([np.bincount(basic, x, 2 * n), z]), np.r_[y + (reach @ y_z)[at], y_z]

    def residual(x):
        flow = x[:n] + x[n : 2 * n] - np.bincount(s2, w * x[a * n + s], n)
        flow -= np.bincount(r2, q * x[2 * n + v], n)
        gone = np.bincount(vacated, x[vacant] + x[n + vacant], m)
        return np.concatenate([flow, x[2 * n :] - gone]) - b_eq

    def reduced(y, price):
        col = np.concatenate([y[:n], y[:n], y[n:]])  # A_eq^T y, each column from its own row
        col[vacant] -= y[n + vacated]
        col[n + vacant] -= y[n + vacated]
        np.add.at(col, a * n + s, -(w * y[s2]))
        np.add.at(col, 2 * n + v, -(q * y[r2]))
        return c - col - price * budget

    return (c, b_eq, budget), solve, residual, reduced


def _certify(instance: Instance, price: float, hints, value: float) -> tuple[float, float]:
    """(lower, upper): the module docstring's bracket from the greedy
    ``SubsidySolution.actions`` ``hints`` either side of the budget ``price``
    (the left None at price 0).  RuntimeError if the occupancy is infeasible
    or an end lies over 1e-4 from ``value``."""
    (c, b_eq, budget), solve, residual, reduced = _basis_solver(instance)
    share = instance.capacity / instance.n_chargers
    x, y = solve(hints[1], price)
    upper = float(b_eq @ y + price * share + 2.0 * max(reduced(y, price).max(), 0.0))
    if hints[0] is not None and budget @ x < share:
        x_lo = solve(hints[0], price)[0]
        x += (share - budget @ x) / (budget @ (x_lo - x)) * (x_lo - x)
    lower = float(c @ x)
    gap = max(np.abs(residual(x)).max(), -x.min(), budget @ x - share)
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
