"""Scheduling policies: Whittle index, LLLP interchange, EDF, LLF, valley filling.

Every policy works on (S, N) arrays of lead times and demands, one row per
station state (the simulator's rows are seeds), plus precomputed tables.
Whittle, EDF and LLF are key rules: (key, eligible) per charger.
``select_by_key`` activates up to M eligible chargers per row by smallest
key (the ``*_kernel`` functions are a rule plus it); ``sim.stack_kernel``
packs the rules' keys over every state into one table.  The LLLP interchange
refines a Whittle activation; the valley-filling planner solves one LP per
station row, its arrays laid out EV by EV, and is called row by row on the
forecasts of ``expected_costs``.

Tie-breaking is fixed everywhere: policy criterion first, then larger demand,
then lower charger id.
"""

from __future__ import annotations

import numpy as np

from .model import Instance
from .whittle import IndexTable

__all__ = [
    "select_by_key",
    "whittle_kernel",
    "edf_kernel",
    "llf_kernel",
    "lllp_kernel",
    "valley_filling_policy",
    "expected_costs",
]

_BIG = np.iinfo(np.int64).max
_NONE = 2**62  # a sweep slot with no waiter: sorts last, dominates nothing


def select_by_key(key: np.ndarray, b: np.ndarray, m: int, eligible: np.ndarray) -> np.ndarray:
    """Activate up to m eligible chargers with the smallest integer key.

    key, b, eligible: (S, N). Ties break toward larger B, then lower id: the
    three are packed into one integer per charger, and a row's m-th smallest
    packed key is its threshold.  The offsets are shared by all rows, so a
    stack of several policies' rows selects as each would alone.  A packing
    that cannot fit in int64 is refused.
    """
    s, n = key.shape
    if m <= 0:
        return np.zeros((s, n), dtype=bool)
    if m >= n:
        return eligible.copy()
    k_lo, b_lo, b_hi = int(key.min(initial=0)), int(b.min(initial=0)), int(b.max(initial=0))
    if (int(key.max(initial=0)) - k_lo + 1) * (b_hi - b_lo + 1) * n > _BIG:
        raise ValueError("the packed selection key does not fit in int64")
    packed = ((key - k_lo) * (b_hi - b_lo + 1) + (b_hi - b)) * n + np.arange(n)
    packed = np.where(eligible, packed, _BIG)
    threshold = np.partition(packed, m - 1, axis=1)[:, m - 1 : m]
    return (packed <= threshold) & eligible


def whittle_key(t: np.ndarray, b: np.ndarray, j: np.ndarray, tau: int, table: IndexTable):
    """Whittle's key rule at cost levels j (S,) and period tau.

    Ranking against M dummy arms of constant index 0 plus the strict-positivity
    rule collapses to: activate the top-m chargers by index among those with a
    strictly positive index.  The key is the table's dense rank of the index;
    an empty charger or B = 0 has index 0, so it is never eligible.  ``b`` may
    stack several policies' (S, N) demands on ``t``, and ``tau`` may be an
    array that broadcasts against them: one gather serves them all.
    """
    rank = table.rank[t, b, np.asarray(j).reshape(-1, 1), tau % table.rank.shape[3]]
    return rank, rank < table.n_positive


def edf_key(t: np.ndarray, b: np.ndarray):
    cand = (t >= 1) & (b > 0)
    return np.where(cand, t, 0), cand


def llf_key(t: np.ndarray, b: np.ndarray):
    cand = (t >= 1) & (b > 0)
    return np.where(cand, t - b, 0), cand


def whittle_kernel(
    t: np.ndarray, b: np.ndarray, j: np.ndarray, tau: int, table: IndexTable, m: int
) -> np.ndarray:
    key, eligible = whittle_key(t, b, j, tau, table)
    return select_by_key(key, b, m, eligible)


def edf_kernel(t: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    key, eligible = edf_key(t, b)
    return select_by_key(key, b, m, eligible)


def llf_kernel(t: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    key, eligible = llf_key(t, b)
    return select_by_key(key, b, m, eligible)


def lllp_kernel(t: np.ndarray, b: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Batch LLLP interchange on (S, N) state arrays.

    A waiting occupied charger i dominates an active charger k when its
    laxity is no larger and its demand no smaller, one of the two strictly.
    The rule swaps the strongest such pair until none is left: the dominator
    first by (laxity ascending, demand descending, id), the charger it
    replaces last in that order.

    One sweep reaches that fixed point, because a swap never makes a new
    dominating pair: the charger swapped out dominates no active charger
    (that one would be weaker, and replaced instead), and a waiter that
    dominates the one swapped in also dominates the victim and is stronger,
    so it would have been taken first.  The sweep visits the waiting occupied
    chargers once, strongest first, and swaps each that still dominates an
    active charger with the weakest one it dominates.  The chargers swapped
    in before a waiter's turn are stronger than it, so its victims are
    initially active: only a waiter that dominates an initially active
    charger enters the sweep (one test of every waiter against every charger,
    in the smallest integer type that holds the cells below), and when none
    does, the action comes back as it is.  With (laxity, -demand) packed into
    one cell number, small = strong, i dominates k exactly when k's cell is
    larger and its demand no larger.  Work is charger-major, (N, S).
    """
    waiting = (t >= 1) & (b > 0) & ~active
    if not waiting.any():
        return active.copy()
    n = t.shape[1]
    bm = int(b.max()) + 1
    ids = np.arange(n)[:, None]
    b = b.T.astype(np.int64, order="C")
    # (laxity, -demand) packed into one cell number: small = strong
    cell = np.multiply(t.T, bm, dtype=np.int64) - b * (bm + 1) + (bm * bm - 1)
    small = np.min_scalar_type(-int(cell.max()) - 2)  # holds every cell + 1: a cheap cube
    c, bc = (cell + 1).astype(small), b.astype(small)
    enters = ((bc[None] <= bc[:, None]) & ((c * active.T)[None] > c[:, None])).any(axis=1)
    enters &= waiting.T  # waiter i (axis 0) dominates some active charger (axis 1)
    steps = int(enters.sum(axis=0).max())
    if steps == 0:
        return active.copy()
    cell *= n
    weak = (cell + (n - ids)) * active.T  # large = weak, ties to the lower id; 0 when off
    code = np.sort(np.where(enters, cell + ids, _NONE), axis=0)[:steps]  # sweep order
    b_i, floor = bm - 1 - code // n % bm, (code // n + 1) * n
    victim = np.empty(code.shape, dtype=np.int64)  # weak of each step's victim, 0 for none
    for p in range(steps):
        v = ((b <= b_i[p]) * weak).max(axis=0, out=victim[p])
        v *= v > floor[p]  # the weakest active charger of no larger demand, if in a larger cell
        weak *= weak != v
    a = np.zeros((n + 1, t.shape[0]), dtype=bool)  # row n takes the waiters that did not swap
    a[np.where(victim > 0, code % n, n), np.arange(t.shape[0])] = True
    return (a[:n] | (weak > 0)).T


def expected_costs(instance: Instance) -> np.ndarray:
    """Conditional expected cost k slots ahead, for every (level, period).

    out[j, tau, k] = E[c at k slots ahead | level j in period tau] for
    k = 0..t_max (no EV plans further ahead), propagated through the chain's
    (possibly per-period) transition matrices.
    """
    k = instance.cost.n_levels
    vals = instance.cost.values
    out = np.empty((k, instance.n_periods, instance.t_max + 1))
    for tau in range(instance.n_periods):
        row = np.eye(k)
        out[:, tau, 0] = vals
        for step in range(1, instance.t_max + 1):
            row = row @ instance.cost.matrix_for(tau + step - 1)
            out[:, tau, step] = row @ vals
    return out


def valley_filling_policy(
    t: np.ndarray,
    b: np.ndarray,
    j: int,
    tau: int,
    instance: Instance,
    exp_cost: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Plan all outstanding demand into expected-cheapest future slots.

    Deterministic transportation problem over the horizon of the latest
    deadline: one unit of EV i in future slot k earns 1 - E[c at k]; units
    left unassigned pay the marginal penalty increments of F at the deadline.
    The constraint matrix is totally unimodular, so the LP vertex returned by
    the simplex solver is integral.  Only slot 0 of the plan is executed;
    everything is replanned next slot (no future arrivals assumed).

    ``t``, ``b``: one station row (N,) at cost level j and period tau;
    ``exp_cost``: the ``expected_costs`` array.  The LP's columns run EV by
    EV, each EV's slots 0..T-1 and then its penalty units 1..B.  Returns the
    activation (N,) and the plan, one row per occupied charger in id order
    and one column per slot (None when nothing is planned).
    """
    from scipy.optimize import linprog

    m = instance.capacity
    occupied = np.nonzero((t >= 1) & (b > 0))[0]
    action = np.zeros(t.shape, dtype=bool)
    if occupied.size == 0 or m == 0:
        return action, None
    t_occ = t[occupied].astype(np.intp)
    horizon = int(t_occ.max())
    ec = exp_cost[j, tau % exp_cost.shape[1], :horizon]
    width = t_occ + b[occupied]
    ev = np.repeat(np.arange(occupied.size), width)  # each column's EV
    pos = np.arange(ev.size) - np.repeat(np.cumsum(width) - width, width)
    slot = pos < t_occ[ev]  # else penalty unit pos - T + 1
    k = np.where(slot, pos, 0)
    c_obj = np.where(slot, -(1.0 - ec[k]),
                     instance.penalty.delta(np.where(slot, 1, pos - t_occ[ev] + 1)))
    res = linprog(
        c_obj,
        A_ub=((k == np.arange(horizon)[:, None]) & slot).astype(float),  # slot k's load
        b_ub=np.full(horizon, float(m)),
        A_eq=(ev == np.arange(occupied.size)[:, None]).astype(float),  # each EV's demand
        b_eq=b[occupied].astype(float),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"valley-filling plan failed: {res.message}")
    x = res.x
    if np.any(np.abs(x - np.round(x)) > 1e-7):
        raise RuntimeError("valley-filling plan is not integral")
    plan = np.zeros((occupied.size, horizon))
    chosen = slot & (x > 0.5)
    plan[ev[chosen], k[chosen]] = 1.0
    action[occupied] = plan[:, 0] > 0.5
    return action, plan
