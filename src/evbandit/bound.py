"""Performance upper bound from the budget-relaxed single-charger MDP.

Relaxing the per-slot capacity constraint to a discounted time-average budget
decouples the chargers; the resulting single-charger constrained MDP is
solved two independent ways:

* occupancy-measure LP over (extended state, action) visitation frequencies;
* Lagrangian dual: price the budget at lambda, solve the unconstrained
  subsidy problem, and minimize the convex dual by golden section.

N times the optimal value upper-bounds every admissible policy of the real
system.  The two routes agreeing is one of the package's acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .arm import ArmMDP, build_arm_mdp
from .model import Instance
from .whittle import solve_subsidy

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["OccupancyLP", "BoundResult", "build_occupancy_lp", "solve_bound"]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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

    @property
    def n_states(self) -> int:
        return self.arm.n_states


@dataclass
class BoundResult:
    value: float
    lam: float | None = None
    lp_value: float | None = None
    dual_value: float | None = None
    activation_frequency: float | None = None
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


def _dual_value(instance: Instance, lam: float) -> float:
    """dual(lambda) = V^lambda(mu0) - lambda (1 - M/N) / (1 - beta).

    Pricing activations at lambda is the subsidy problem shifted by a
    constant: R_a - lambda a = (R_a + lambda (1-a)) - lambda.
    """
    sol = solve_subsidy(instance, lam)
    pi = instance.cost.stationary()
    v0 = float(pi @ sol.values[0, 0, :, 0])
    share = instance.capacity / instance.n_chargers
    return v0 - lam * (1.0 - share) / (1.0 - instance.discount)


def _golden_minimize(fn, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fn(x2)
    x = 0.5 * (a + b)
    return x, fn(x)


def _activation_frequency(instance: Instance, lam: float) -> float:
    """Discounted activation frequency of the lambda-greedy policy from mu0."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    arm = build_arm_mdp(instance)
    sol = solve_subsidy(instance, lam)
    T, B = arm.law.T, arm.law.B
    # sol.actions[T, B] is (n_cs, K, N_tau), which ravels in state-id order
    act = ((B > 0)[:, None, None] & (sol.actions[T, B] > 0)).ravel()
    rows = sp.diags(~act * 1.0) @ arm.P0 + sp.diags(act * 1.0) @ arm.P1
    rows.eliminate_zeros()
    beta = instance.discount
    occ = spsolve(
        (sp.eye(arm.n_states, format="csc") - beta * rows.T).tocsc(),
        (1.0 - beta) * arm.initial_distribution(),
    )
    return float(occ[act].sum())


def solve_bound(instance: Instance, method: str = "dual", details: bool = False):
    """Upper bound on the N-charger discounted reward: N x relaxed value.

    method: "dual" (golden section over the activation price, each evaluation
    an exact subsidy solve), "lp" (occupancy LP), or "both" (computes the two
    and checks they agree within 1e-4 per charger).
    """
    if method not in ("dual", "lp", "both"):
        raise ValueError("method must be dual, lp or both")
    n = instance.n_chargers
    lp_value = None
    dual_value = None
    lam = None
    freq = None
    x = None
    if method in ("lp", "both"):
        lp = build_occupancy_lp(instance)
        v, x = _solve_lp(lp)
        lp_value = v
        # count only activations that do something (B>0); LP mass on
        # indifferent B=0 activations is degenerate noise
        busy = np.repeat(lp.arm.law.B > 0, lp.n_states // lp.arm.law.B.size)
        freq = float(x[lp.n_states :][busy].sum())
    if method in ("dual", "both"):
        if instance.capacity == instance.n_chargers:
            lam = 0.0  # budget can never bind; dual is nondecreasing
            dual_value = _dual_value(instance, 0.0)
        else:
            hi = 1.0 + instance.penalty.max_increment
            cmin = float(instance.cost.values.min())
            if cmin < 0:
                hi += -cmin
            lam, dual_value = _golden_minimize(
                lambda v: _dual_value(instance, v), 0.0, hi, xtol=1e-9
            )
        if freq is None:
            freq = _activation_frequency(instance, lam)
    if method == "both" and abs(lp_value - dual_value) > 1e-4:
        raise RuntimeError(
            f"bound cross-check failed: LP {lp_value} vs dual {dual_value}"
        )
    per_charger = dual_value if dual_value is not None else lp_value
    result = BoundResult(
        value=n * per_charger,
        lam=lam,
        lp_value=None if lp_value is None else n * lp_value,
        dual_value=None if dual_value is None else n * dual_value,
        activation_frequency=freq,
        method=method,
    )
    return result if details else result.value
