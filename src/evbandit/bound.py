"""Performance upper bound from the budget-relaxed single-charger MDP.

Relaxing the per-slot capacity constraint to a discounted time-average budget
decouples the chargers.  The bound is the Lagrangian dual of the resulting
single-charger constrained MDP: price the budget at lambda, solve the
unconstrained subsidy problem exactly, and find the convex dual's exact
minimiser among its kinks, the index table's values, without scipy.  The
occupancy-measure LP over (extended state, action) visitation frequencies, on
the sparse arm MDP and scipy's HiGHS, solves the same problem independently;
``solve_bound(..., verify=True)`` checks the two agree.

N times the optimal value upper-bounds every admissible policy of the real
system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .arm import ArmMDP, build_arm_mdp
from .model import Instance
from .whittle import IndexTable, compute_index_table, solve_subsidy

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["OccupancyLP", "BoundResult", "build_occupancy_lp", "solve_bound"]


@dataclass
class OccupancyLP:
    """max c·x s.t. A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    Variables are stacked [x(s,0), x(s,1)] over the arm's extended states;
    x(s,a) is the discounted visitation frequency (1-beta) E sum beta^t
    1{state s, action a}.
    """

    c: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    arm: ArmMDP


@dataclass
class BoundResult:
    """``value``, ``dual_value`` and ``lp_value`` are N times per-charger
    values.  ``lam`` is the dual's exact minimiser and
    ``activation_frequency`` the per-charger (1-beta) E sum beta^t a_t of the
    lam-greedy policy, ties passive, so at most M/N.  ``lp_value`` is set only
    when the LP was solved as a check, and ``method`` is then "both"."""

    value: float
    lam: float
    dual_value: float
    activation_frequency: float
    lp_value: float | None = None
    method: str = "dual"


def build_occupancy_lp(instance: Instance) -> OccupancyLP:
    """Occupancy LP of the single-charger problem with budget M/N.

    Balance: sum_a x(s',a) = (1-beta) mu0(s') + beta sum_{s,a} P_a(s'|s) x(s,a);
    budget: sum_s x(s,1) <= M/N; objective (to maximize):
    (1/(1-beta)) sum x(s,a) R_a(s).  mu0 is ``ArmMDP.initial_distribution``.
    """
    import scipy.sparse as sp

    arm = build_arm_mdp(instance)
    n = arm.n_states
    beta = instance.discount
    eye = sp.eye(n, format="csr")
    a_eq = sp.hstack([eye - beta * arm.P0.T, eye - beta * arm.P1.T], format="csr")
    b_eq = (1.0 - beta) * arm.initial_distribution()
    a_ub = sp.csr_matrix(np.concatenate([np.zeros(n), np.ones(n)])[None, :])
    b_ub = np.array([instance.capacity / instance.n_chargers])
    c = np.concatenate([arm.R0, arm.R1]) / (1.0 - beta)
    return OccupancyLP(c, a_eq, b_eq, a_ub, b_ub, arm)


def linprog(c, *args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(c, *args, **kwargs)


def _solve_lp(lp: OccupancyLP) -> tuple[float, np.ndarray]:
    res = linprog(
        -lp.c,
        A_eq=lp.A_eq,
        b_eq=lp.b_eq,
        A_ub=lp.A_ub,
        b_ub=lp.b_ub,
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"occupancy LP failed: {res.message}")
    return -res.fun, res.x


def _dual(instance: Instance, lam: float) -> tuple[float, float]:
    """(dual(lambda), f): dual(lambda) = V^lambda(mu0) - lambda (1 - M/N) / (1 - beta).

    Pricing activations at lambda is the subsidy problem shifted by a
    constant: R_a - lambda a = (R_a + lambda (1-a)) - lambda.  f is the
    lambda-greedy activation frequency; the slope is (M/N - f) / (1 - beta).
    """
    sol = solve_subsidy(instance, lam)
    pi = instance.cost.stationary()
    beta = instance.discount
    v0 = float(pi @ sol.values[0, 0, :, 0])
    f = (1.0 - beta) * float(pi @ sol.activations[0, 0, :, 0])
    share = instance.capacity / instance.n_chargers
    return v0 - lam * (1.0 - share) / (1.0 - beta), f


def _exact_dual(instance: Instance, table: IndexTable | None) -> tuple[float, float, float]:
    """(lambda*, dual(lambda*), f) by a search over the dual's kinks.

    The dual is convex and piecewise linear, with its kinks at the index
    values: the greedy policy changes only where some state's index equals
    lambda.  At the midpoints between consecutive distinct positive values
    (and past the largest) no state is indifferent, up to the table's
    rounding.  lambda* is 0 if f just above 0 is at most M/N, else the kink
    where f falls to M/N, found by bisection over the pieces and placed where
    the lines of its two pieces meet, not at the table's rounded value.  The
    dual is evaluated at lambda* itself, an upper bound whatever that
    rounding; f is that of the piece right of lambda*, so f <= M/N.  A
    ``table`` of None is built.
    """
    share = instance.capacity / instance.n_chargers
    values = (compute_index_table(instance) if table is None else table).values
    kinks = np.unique(values[values > 0])
    edges = np.concatenate([[0.0], kinks, [kinks.max(initial=0.0) + 1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    piece = functools.cache(lambda i: _dual(instance, float(mids[i])))

    if piece(0)[1] <= share:
        return 0.0, _dual(instance, 0.0)[0], piece(0)[1]
    lo, hi = 0, mids.size - 1  # f > M/N on piece lo; past every index f = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if piece(mid)[1] > share else (lo, mid)
    (d_lo, f_lo), (d_hi, f_hi) = piece(lo), piece(hi)
    # the two lines d + (M/N - f) (lambda - mid) / (1 - beta) meet at lambda*
    lam = ((d_hi - d_lo) * (1.0 - instance.discount) + (share - f_lo) * mids[lo]
           - (share - f_hi) * mids[hi]) / (f_hi - f_lo)
    lam = float(np.clip(lam, mids[lo], mids[hi]))
    return lam, _dual(instance, lam)[0], f_hi


def solve_bound(instance: Instance, verify: bool = False,
                table: IndexTable | None = None) -> BoundResult:
    """Upper bound on the N-charger discounted reward: N x relaxed value.

    The exact dual of ``_exact_dual``: a search over the index table's kinks
    (built when ``table`` is None), each evaluation an exact subsidy solve.
    With ``verify`` the occupancy LP is solved too, and a RuntimeError raised
    if the two differ by more than 1e-4 per charger.
    """
    n = instance.n_chargers
    lam, dual_value, freq = _exact_dual(instance, table)
    result = BoundResult(n * dual_value, lam, n * dual_value, freq)
    if verify:
        lp_value, _ = _solve_lp(build_occupancy_lp(instance))
        if abs(lp_value - dual_value) > 1e-4:
            raise RuntimeError(
                f"bound cross-check failed: LP {lp_value} vs dual {dual_value}"
            )
        result.lp_value, result.method = n * lp_value, "both"
    return result
