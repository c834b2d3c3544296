"""Scheduling policies: Whittle index, LLLP interchange, EDF, LLF, valley filling.

Every policy is a batch kernel on (S, N) arrays of lead times and demands, one
row per station state (the simulator's rows are seeds), plus precomputed
tables; it returns an (S, N) boolean activation array with at most M ones per
row.  ``sim.policy_kernel`` builds the named policies from these kernels.  The
valley-filling planner solves one LP per station row and is called row by row.

Tie-breaking is fixed everywhere: policy criterion first, then larger demand,
then lower charger id.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .model import Instance
from .whittle import IndexTable

__all__ = [
    "select_by_key",
    "whittle_kernel",
    "edf_kernel",
    "llf_kernel",
    "lllp_kernel",
    "valley_filling_policy",
    "CostForecast",
]

_BIG = np.inf


def select_by_key(key: np.ndarray, b: np.ndarray, m: int, eligible: np.ndarray) -> np.ndarray:
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


def whittle_kernel(
    t: np.ndarray, b: np.ndarray, j: np.ndarray, tau: int, table: IndexTable, m: int
) -> np.ndarray:
    """Batch Whittle decision at cost levels j (S,) and period tau.

    Ranking against M dummy arms of constant index 0 plus the strict-positivity
    rule collapses to: activate the top-m chargers by index among those with a
    strictly positive index.
    """
    v = table.values
    _, b_cap, k, nt = v.shape
    flat = v.ravel()
    comp = ((t * b_cap + b) * k + np.asarray(j).reshape(-1, 1)) * nt + (tau % nt)
    idx = flat[comp]
    eligible = (idx > 0.0) & (b > 0) & (t >= 1)
    return select_by_key(-idx, b, m, eligible)


def edf_kernel(t: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    cand = (t >= 1) & (b > 0)
    return select_by_key(np.where(cand, t, 0), b, m, cand)


def llf_kernel(t: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    cand = (t >= 1) & (b > 0)
    return select_by_key(np.where(cand, t - b, 0), b, m, cand)


def lllp_kernel(t: np.ndarray, b: np.ndarray, active: np.ndarray) -> np.ndarray:
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


class CostForecast:
    """Conditional expected cost k slots ahead, for every (level, period).

    exp_cost[j, tau, k] = E[c at k slots ahead | level j in period tau],
    propagated through the chain's (possibly per-period) transition matrices.
    """

    def __init__(self, instance: Instance, horizon: int | None = None):
        k = instance.cost.n_levels
        nt = instance.n_periods
        h = instance.t_max if horizon is None else horizon
        vals = instance.cost.values
        out = np.empty((k, nt, h + 1))
        for tau in range(nt):
            row = np.eye(k)
            out[:, tau, 0] = vals
            for step in range(1, h + 1):
                row = row @ instance.cost.matrix_for(tau + step - 1)
                out[:, tau, step] = row @ vals
        self.exp_cost = out

    def forecast(self, j: int, tau: int, k: int) -> float:
        return float(self.exp_cost[j, tau % self.exp_cost.shape[1], k])


def valley_filling_policy(
    t: np.ndarray,
    b: np.ndarray,
    j: int,
    tau: int,
    instance: Instance,
    cost_forecast: CostForecast,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Plan all outstanding demand into expected-cheapest future slots.

    Deterministic transportation problem over the horizon of the latest
    deadline: one unit of EV i in future slot k earns 1 - E[c at k]; units
    left unassigned pay the marginal penalty increments of F at the deadline.
    The constraint matrix is totally unimodular, so the LP vertex returned by
    the simplex solver is integral.  Only slot 0 of the plan is executed;
    everything is replanned next slot (no future arrivals assumed).

    ``t``, ``b``: one station row (N,) at cost level j and period tau.  Returns
    the activation (N,) and the plan, one row per occupied charger in id order
    and one column per slot (None when nothing is planned).
    """
    m = instance.capacity
    occupied = np.nonzero((t >= 1) & (b > 0))[0]
    action = np.zeros(t.shape, dtype=bool)
    if occupied.size == 0 or m == 0:
        return action, None
    horizon = int(t[occupied].max())
    ec = np.array([cost_forecast.forecast(j, tau, k) for k in range(horizon)])
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
