"""Whittle index computation for the charging bandit.

Three routes to the same number:

1. ``closed_form_index``: exact formula, valid for constant cost.
2. ``compute_index_table``: piecewise-linear recursion over the lead time.
   The subsidy-problem value differences g_1(T,B) = V(T,B+1) - V(T,B) are
   piecewise linear in the subsidy nu, and the post-departure continuation
   cancels in every such difference, so the recursion never touches the value
   function itself.  The index at (T,B,c_j,tau) is the least root of

       f(nu) = nu - (1 - c_j) + beta * sum_k P_jk * g_1(T-1, B-1, c_k, tau+1),

   which is continuous and strictly increasing in nu.  Only g_1 is carried:
   a wider difference telescopes, g_h(T,B) = sum_{i<h} g_1(T,B+i), and the
   one the g_1 recursion reads, g_2(T-1,B-1), is g_1(T-1,B-1) + g_1(T-1,B).
3. ``index_by_bisection``: oracle that locates the activation threshold of the
   subsidy problem by bisection on top of plain value iteration.  Slow but
   independent of the PWL algebra; used to cross-check route 2.

Every occupied state with B = 0 and the empty state have index exactly 0; a
"dummy" arm used by the policy layer carries that same constant index.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arm import ArmMDP, build_arm_mdp, value_iteration_sweeps
from .model import Instance, PenaltyFunction
from .pwl import PiecewiseLinear, combine, stitch

__all__ = [
    "ExtendedState",
    "IndexTable",
    "IndexCheckError",
    "closed_form_index",
    "base_g",
    "compute_index_table",
    "subsidy_value_iteration",
    "SubsidySolution",
    "solve_subsidy",
    "index_by_bisection",
    "check_indexability",
]


class IndexCheckError(ValueError):
    """The index recursion failed a monotonicity check that the theory says
    cannot fail: a root function that is not nondecreasing, or an index that
    decreases in B past the diagonal."""


class ExtendedState(NamedTuple):
    T: int
    B: int
    j: int
    tau: int


@dataclass(frozen=True)
class IndexTable:
    """Index values on the (T, B, cost level, period) grid.

    ``values[T, B, j, tau]``; row T=0 and column B=0 are identically zero, and
    the index is nondecreasing in B on the B >= T range (checked on build).
    ``rank`` (same shape) is the dense rank of the index, largest first, equal
    values sharing a rank; the ranks below ``n_positive`` are those of the
    strictly positive indices.  The Whittle kernel sorts by it, and
    ``select_by_key`` breaks its ties by B, then charger id.
    """

    values: np.ndarray
    rank: np.ndarray = field(init=False, repr=False, compare=False)
    n_positive: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 4:
            raise ValueError("index table must be 4-D (T, B, cost, period)")
        if np.any(np.abs(v[0]) > 0) or np.any(np.abs(v[:, 0]) > 0):
            raise ValueError("index must be 0 for empty chargers and B = 0")
        t_max = v.shape[0] - 1
        b_max = v.shape[1] - 1
        for t in range(1, t_max + 1):
            lo = max(t, 1)
            if lo + 1 > b_max:
                continue
            seg = v[t, lo:]
            if np.any(np.diff(seg, axis=0) < -1e-9):
                raise ValueError("index not nondecreasing in B on the B >= T range")
        neg_unique, rank = np.unique(-v.ravel(), return_inverse=True)
        object.__setattr__(self, "rank", rank.reshape(v.shape))
        object.__setattr__(self, "n_positive", int(np.count_nonzero(neg_unique < 0)))

    def lookup(self, T: int, B: int, j: int, tau: int) -> float:
        return float(self.values[T, B, j, tau])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "B", "cost_state", "period", "index"])
            for state in np.ndindex(self.values.shape):
                w.writerow([*state, repr(float(self.values[state]))])

    def to_json(self, path) -> None:
        t_max, b_max, k, nt = self.values.shape
        doc = {
            "t_max": t_max - 1,
            "b_max": b_max - 1,
            "cost_levels": k,
            "periods": nt,
            "index": self.values.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


def closed_form_index(T: int, B: int, c0: float, beta: float, penalty: PenaltyFunction) -> float:
    """Constant-cost index.

    0 for B = 0; 1 - c0 + F(B) - F(B-1) in the final slot; 1 - c0 when the
    demand fits strictly inside the lead time; otherwise the deferred marginal
    penalty 1 - c0 + beta^(T-1) * [F(B-T+1) - F(B-T)].
    """
    if T < 0 or B < 0 or (T == 0 and B > 0):
        raise ValueError("invalid charger state")
    if B == 0:
        return 0.0
    if T == 1:
        return 1.0 - c0 + float(penalty.delta(B))
    if B <= T - 1:
        return 1.0 - c0
    return 1.0 - c0 + beta ** (T - 1) * float(penalty.delta(B - T + 1))


def base_g(instance: Instance, h: int, B: int, j: int, tau: int) -> PiecewiseLinear:
    """g_h at lead time 1: V(1, B+h) - V(1, B) as a PWL function of the subsidy.

    Explicit three-piece construction; constant tails, middle slope -1 (or +1
    in the degenerate branch where activating the larger demand never pays).
    """
    b_max = instance.b_max
    if not (0 <= B <= b_max) or not (1 <= h <= b_max - B):
        raise ValueError(f"need 0 <= B <= {b_max} and 1 <= h <= b_max - B; got B={B}, h={h}")
    if not (0 <= j < instance.cost.n_levels) or not (0 <= tau < instance.n_periods):
        raise ValueError("cost level or period out of range")
    c = float(instance.cost.values[j])
    F = instance.penalty
    if B >= 1:
        t_lo = 1.0 - c + float(F.delta(B))
        t_hi = 1.0 - c + float(F.delta(B + h))
        pieces = [
            PiecewiseLinear.constant(float(F(B - 1) - F(B + h - 1))),
            PiecewiseLinear.affine(1.0 - c + float(F(B) - F(B + h - 1)), -1.0),
            PiecewiseLinear.constant(float(F(B) - F(B + h))),
        ]
        return stitch(pieces, [t_lo, t_hi])
    t_h = 1.0 - c + float(F.delta(h))
    if t_h > 0:
        pieces = [
            PiecewiseLinear.constant(1.0 - c - float(F(h - 1))),
            PiecewiseLinear.affine(1.0 - c - float(F(h - 1)), -1.0),
            PiecewiseLinear.constant(-float(F(h))),
        ]
        return stitch(pieces, [0.0, t_h])
    pieces = [
        PiecewiseLinear.constant(1.0 - c - float(F(h - 1))),
        PiecewiseLinear.affine(-float(F(h)), 1.0),
        PiecewiseLinear.constant(-float(F(h))),
    ]
    return stitch(pieces, [t_h, 0.0])


def compute_index_table(instance: Instance, collect_g: bool = False):
    """Index for every extended state by the PWL recursion.

    Levels T = 1..t_max are processed in order.  For each period and cost
    level the expectations E_k g_1(T-1, b, c_k, tau+1) are formed once; they
    give the root functions f, whose least roots are the level's indexes, and
    those indexes in turn split the cases of the level's own g_1's.  Raises
    IndexCheckError if any assembled f fails to be nondecreasing or the table
    fails its monotonicity check (the theory says neither can happen).

    Returns the IndexTable; with ``collect_g`` also the dict of g_1 functions
    keyed by (T, B, j, tau).
    """
    inst = instance
    t_bar, b_bar = inst.t_max, inst.b_max
    K, nt = inst.cost.n_levels, inst.n_periods
    F = inst.penalty
    cvals = inst.cost.values
    beta = inst.discount

    nu = np.zeros((t_bar + 1, b_bar + 1, K, nt))
    for j in range(K):
        for b in range(1, b_bar + 1):
            nu[1, b, j, :] = 1.0 - cvals[j] + float(F.delta(b))

    # g[b][j][tau] = g_1(T, b, c_j, tau) of the current level; level-1 g's do
    # not depend on the period, so the same object is shared across tau
    g = [[[base_g(inst, 1, b, j, 0)] * nt for j in range(K)] for b in range(b_bar)]
    gs = None
    if collect_g:
        gs = {(1, b, j, tau): g[b][j][tau]
              for b in range(b_bar) for j in range(K) for tau in range(nt)}

    for T in range(2, t_bar + 1):
        g_new = [[[None] * nt for _ in range(K)] for _ in range(b_bar)]
        for tau in range(nt):
            P = inst.cost.matrix_for(tau)
            nxt = (tau + 1) % nt
            for j in range(K):
                cj = float(cvals[j])
                subsidy_less_gain = PiecewiseLinear.affine(cj - 1.0, 1.0)
                # eg[b] = E_k g_1(T-1, b, c_k, tau+1)
                eg = [combine([g[b][k][nxt] for k in range(K)], beta * P[j]) for b in range(b_bar)]
                for b in range(1, b_bar + 1):
                    f = combine([eg[b - 1], subsidy_less_gain], [1.0, 1.0])
                    try:
                        nu[T, b, j, tau] = f.least_root()
                    except ValueError as e:
                        raise IndexCheckError(f"f at T={T}, B={b}, j={j}, tau={tau}: {e}") from e
                if T == t_bar:
                    continue
                # g_1(T, b) = V(T, b+1) - V(T, b): below both indexes both
                # states are active, above both passive, and in between the
                # one with the higher index is active (idx[0] = 0)
                idx = nu[T, :, j, tau]
                for b in range(b_bar):
                    lo, hi = idx[b], idx[b + 1]
                    if hi >= lo:
                        mid = PiecewiseLinear.affine(1.0 - cj, -1.0)
                    elif b == 0:
                        mid = combine([eg[0], PiecewiseLinear.affine(0.0, 1.0)], [1.0, 1.0])
                    else:
                        mid = combine([eg[b - 1], eg[b], subsidy_less_gain], [1.0, 1.0, 1.0])
                    both_on = PiecewiseLinear.constant(1.0 - cj) if b == 0 else eg[b - 1]
                    g_new[b][j][tau] = stitch([both_on, mid, eg[b]], sorted([lo, hi]))
                    if gs is not None:
                        gs[(T, b, j, tau)] = g_new[b][j][tau]
        g = g_new

    try:
        table = IndexTable(nu)
    except ValueError as e:
        raise IndexCheckError(str(e)) from e
    return (table, gs) if collect_g else table


def subsidy_value_iteration(
    instance: Instance, nu: float, tol: float = 1e-9, arm: ArmMDP | None = None
):
    """Value iteration for the single-charger problem with passivity subsidy nu.

    Returns (V, actions) over the extended-state grid of ``build_arm_mdp``;
    actions break ties toward passive.  Runs enough sweeps that the sup-norm
    error from the cold start is at most ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if arm is None:
        arm = build_arm_mdp(instance)
    beta = instance.discount
    n_iter = value_iteration_sweeps(arm.reward_sup() + abs(nu), beta, tol)
    r0 = arm.R0 + nu
    v = np.zeros(arm.n_states)
    for _ in range(n_iter):
        v = np.maximum(r0 + beta * (arm.P0 @ v), arm.R1 + beta * (arm.P1 @ v))
    q0 = r0 + beta * (arm.P0 @ v)
    q1 = arm.R1 + beta * (arm.P1 @ v)
    return v, (q1 > q0).astype(np.int8)


@dataclass(frozen=True)
class SubsidySolution:
    """Exact subsidy-problem solution on the (T, B, cost, period) grid.

    ``values[0, 0]`` is the empty-charger value; ``values[0, B>0]`` is unused
    and zero.  ``actions`` holds the optimal action (ties passive).
    ``arrival_value[j, tau]`` is the expected value of the state occupying a
    slot at period tau right after a departure in period tau - 1.
    """

    values: np.ndarray
    actions: np.ndarray
    arrival_value: np.ndarray


def solve_subsidy(instance: Instance, nu: float) -> SubsidySolution:
    """Solve the subsidy problem exactly with one backward pass over T.

    The continuation value after a departure enters every state's Bellman
    equation linearly, with the same coefficient under both actions and no
    dependence on B.  Stripping it off leaves a finite-horizon DP over lead
    times; the continuation itself then solves a (K * N_tau)-dimensional
    linear system.  No fixed-point iteration, so this is fast even for
    discount factors very close to 1; ``subsidy_value_iteration`` provides the
    independent slow path.  The arrival mixing and the reward are written out
    here on purpose instead of read from ``charger_law``: this is the one
    coding of the per-charger law independent of that table, which the LP vs
    dual check and the full-capacity joint DP test compare against.
    """
    inst = instance
    t_bar, b_bar = inst.t_max, inst.b_max
    K, nt = inst.cost.n_levels, inst.n_periods
    beta = inst.discount
    cvals = inst.cost.values
    ftab = inst.penalty.table[: b_bar + 1]

    # local values U (continuation stripped) and greedy actions
    u = np.zeros((t_bar + 1, b_bar + 1, K, nt))
    act = np.zeros((t_bar + 1, b_bar + 1, K, nt), dtype=np.int8)
    u_empty = np.full((K, nt), max(nu, 0.0))
    gain = (1.0 - cvals)[:, None]  # (K, 1) broadcast over periods

    q_pass = nu - ftab[1:, None, None] + np.zeros((b_bar, K, nt))
    q_act = gain[None] - ftab[:-1, None, None] + np.zeros((b_bar, K, nt))
    u[1, 1:] = np.maximum(q_pass, q_act)
    act[1, 1:] = q_act > q_pass
    u[1, 0] = max(nu, 0.0)
    act[1, 0] = 1 if nu < 0 else 0

    for t in range(2, t_bar + 1):
        prev = u[t - 1]  # (b_bar+1, K, nt)
        mid = np.empty_like(prev)
        for tau in range(nt):
            p = inst.cost.matrix_for(tau)
            mid[:, :, tau] = beta * prev[:, :, (tau + 1) % nt] @ p.T
        q_pass = nu + mid
        q_act = np.concatenate([mid[:1], gain[None] + mid[:-1]], axis=0)
        act[t] = q_act > q_pass
        u[t] = np.maximum(q_pass, q_act)

    # continuation: A(k, tau) = E[V of the slot's occupant at period tau after
    # a departure at tau-1]; solves A = a0 + G A with ||G|| <= beta < 1
    e = K * nt
    m1 = np.zeros((e, e))
    for tau in range(nt):
        p = inst.cost.matrix_for(tau)
        for j in range(K):
            for k in range(K):
                m1[j * nt + tau, k * nt + (tau + 1) % nt] = beta * p[j, k]
    powers = [np.eye(e)]
    for _ in range(t_bar):
        powers.append(powers[-1] @ m1)

    g_mat = np.zeros((e, e))
    a0 = np.zeros((K, nt))
    for tau in range(nt):
        src = (tau - 1) % nt
        rho = inst.arrivals.rho_for(src)
        pmf = inst.arrivals.pmf_for(src)
        qt = pmf.sum(axis=1)  # (t_bar+1,)
        rows = [j * nt + tau for j in range(K)]
        g_mat[rows] = (1.0 - rho) * powers[1][rows]
        for tp in range(1, t_bar + 1):
            if qt[tp] > 0:
                g_mat[rows] += rho * qt[tp] * powers[tp][rows]
        a0[:, tau] = (1.0 - rho) * u_empty[:, tau]
        for (tp, bp) in zip(*np.nonzero(pmf)):
            a0[:, tau] += rho * pmf[tp, bp] * u[tp, bp, :, tau]
    a_vec = np.linalg.solve(np.eye(e) - g_mat, a0.ravel())

    d = np.array([(powers[t] @ a_vec).reshape(K, nt) for t in range(t_bar + 1)])
    values = u.copy()
    for t in range(1, t_bar + 1):
        values[t] += d[t][None]
    values[0, 0] = u_empty + d[1]
    return SubsidySolution(values, act, a_vec.reshape(K, nt))


def index_by_bisection(
    instance: Instance,
    state,
    tol: float = 1e-8,
    arm: ArmMDP | None = None,
    vi_tol: float | None = None,
) -> float:
    """Oracle index: bisect the subsidy at which ``state`` turns passive.

    The bracket is +/- (1 + max penalty increment + max |cost|), which
    contains every index because the one-slot activation gain is bounded by
    that quantity.  A missing flip inside the bracket raises, signalling a
    non-indexable input (impossible for valid instances).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if arm is None:
        arm = build_arm_mdp(instance)
    sid = arm.state_id(*state)
    span = 1.0 + instance.penalty.max_increment + float(np.abs(instance.cost.values).max())
    if vi_tol is None:
        vi_tol = max(1e-13, tol * (1.0 - instance.discount) / 8.0)

    def active(v: float) -> bool:
        return bool(subsidy_value_iteration(instance, v, tol=vi_tol, arm=arm)[1][sid])

    lo, hi = -span, span
    if not active(lo):
        raise ValueError("bracket failure: state is passive even at the bottom subsidy")
    if active(hi):
        raise ValueError("bracket failure: state is active even at the top subsidy")
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if active(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_indexability(
    instance: Instance,
    nu_grid,
    states=None,
    vi_tol: float = 1e-10,
    arm: ArmMDP | None = None,
) -> bool:
    """True iff the passive set grows monotonically along the sorted nu grid.

    ``states`` restricts the check to particular extended states (ids or
    (T,B,j,tau) tuples); default is every state.
    """
    if arm is None:
        arm = build_arm_mdp(instance)
    grid = np.asarray(nu_grid, dtype=float)
    if grid.size == 0:
        return True
    if np.any(np.diff(grid) < 0):
        raise ValueError("nu grid must be sorted")
    acts = np.stack(
        [subsidy_value_iteration(instance, float(v), tol=vi_tol, arm=arm)[1] for v in grid]
    )
    if states is None:
        cols = acts
    else:
        ids = [int(s) if isinstance(s, (int, np.integer)) else arm.state_id(*s) for s in states]
        cols = acts[:, ids]
    return not np.any(np.diff(cols.astype(np.int8), axis=0) > 0)
