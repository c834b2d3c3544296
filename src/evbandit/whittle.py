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
# combine and stitch stay importable from here: perfbench/spans.py traces them
from .pwl import PiecewiseLinear, PWLBatch, RowError, combine, stitch  # noqa: F401

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
    """The index recursion failed a check that the theory says cannot fail: a
    root function that is not nondecreasing or has no root, pieces of a g_1
    that disagree at a knot, or an index that decreases in B past the
    diagonal."""


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


def _base_rows(instance: Instance, h: int, B, j) -> PWLBatch:
    """g_h at lead time 1 for arrays of demands B and cost levels j, a row each.

    Explicit three-piece construction; constant tails, middle slope -1 (or +1
    in the degenerate branch where activating the larger demand never pays).
    """
    F = instance.penalty.table
    gain = 1.0 - instance.cost.values[j]
    busy, Bm = B >= 1, np.maximum(B, 1)  # F(B - 1) is used only where B >= 1
    t_h = gain + (F[h] - F[h - 1])
    pays, head, flat = t_h > 0, gain - F[h - 1], np.zeros_like(gain)
    knots = np.where(busy[:, None],
                     np.stack([gain + (F[Bm] - F[Bm - 1]), gain + (F[B + h] - F[B + h - 1])], 1),
                     np.stack([np.where(pays, flat, t_h), np.where(pays, t_h, flat)], 1))
    return PWLBatch.stitch([
        PWLBatch.affine(np.where(busy, F[Bm - 1] - F[B + h - 1], head), flat),
        PWLBatch.affine(np.where(busy, gain + (F[B] - F[B + h - 1]), np.where(pays, head, -F[h])),
                        np.where(busy | pays, -1.0, 1.0)),
        PWLBatch.affine(np.where(busy, F[B] - F[B + h], -F[h]), flat),
    ], knots)


def base_g(instance: Instance, h: int, B: int, j: int, tau: int) -> PiecewiseLinear:
    """g_h at lead time 1: V(1, B+h) - V(1, B) as a PWL function of the subsidy."""
    b_max = instance.b_max
    if not (0 <= B <= b_max) or not (1 <= h <= b_max - B):
        raise ValueError(f"need 0 <= B <= {b_max} and 1 <= h <= b_max - B; got B={B}, h={h}")
    if not (0 <= j < instance.cost.n_levels) or not (0 <= tau < instance.n_periods):
        raise ValueError("cost level or period out of range")
    return _base_rows(instance, h, np.array([B]), np.array([j])).row(0)


def compute_index_table(instance: Instance, collect_g: bool = False):
    """Index for every extended state by the PWL recursion.

    The g_1's of one lead time are the rows of one PWLBatch, ordered (period,
    B, cost level), and each level T = 2..t_max is a few operations on the
    whole batch.  The expectations E_k g_1(T-1, b, c_k, tau+1) give the root
    functions f, whose least roots are the level's indexes, and those indexes
    in turn split the cases of the level's own g_1's.  Every failed check of
    the recursion or of the table raises IndexCheckError.

    Returns the IndexTable; with ``collect_g`` also the dict of g_1 functions
    keyed by (T, B, j, tau).
    """
    inst = instance
    t_bar, b_bar = inst.t_max, inst.b_max
    K, nt = inst.cost.n_levels, inst.n_periods
    cvals, gain = inst.cost.values, 1.0 - inst.cost.values
    beta = inst.discount

    nu = np.zeros((t_bar + 1, b_bar + 1, K, nt))
    nu[1, 1:] = (gain[None, :] + inst.penalty.delta(np.arange(1, b_bar + 1))[:, None])[..., None]

    # row r = (tau * b_bar + b) * K + j holds g_1(T, b, c_j, tau)
    tau, b, j = (a.ravel() for a in np.indices((nt, b_bar, K)))
    R = tau.size
    r = np.arange(R)

    def checked(T, what, B, step):
        try:
            return step()
        except RowError as e:
            s = e.row
            raise IndexCheckError(f"{what} at T={T}, B={B[s]}, j={j[s]}, tau={tau[s]}: {e}") from e

    g = checked(1, "g_1", b, lambda: _base_rows(inst, 1, b, j))
    levels = [g]  # the g_1 batch of each lead time, for collect_g
    # rows appended to a level's E g's: R + j is nu - (1 - c_j), R + K + j the
    # constant 1 - c_j, R + 2K + j is 1 - c_j - nu, R + 3K is nu and R + 3K + 1
    # is 0, which pads a sum: its breakpoint 0 is already in the sum's grid
    # (from nu) and it adds exact zeros, which change no bit
    fixed = PWLBatch.affine(np.concatenate([cvals - 1.0, gain, gain, [0.0, 0.0]]),
                            np.concatenate([np.ones(K), np.zeros(K), -np.ones(K), [1.0, 0.0]]))
    P = np.stack([inst.cost.matrix_for(t) for t in range(nt)])
    next_rows = ((tau + 1) % nt * b_bar + b)[::K, None] * K + np.arange(K)

    for T in range(2, t_bar + 1):
        # E_k g_1(T-1, b, c_k, tau+1): one breakpoint grid per (tau, b)
        eg = g.combine(next_rows, beta * P[tau, j], group=r // K)
        both = PWLBatch.concat([eg, fixed])
        f = both.combine(np.stack([r, R + j], axis=1), np.ones((R, 2)))
        nu[T, 1:] = checked(T, "f", b + 1, f.least_roots).reshape(nt, b_bar, K).transpose(1, 2, 0)
        if T == t_bar:
            break
        # g_1(T, b) = V(T, b+1) - V(T, b): below both indexes both states are
        # active, above both passive, and in between the one with the higher
        # index is active (the index at b = 0 is 0).  The middle piece is
        # 1 - c_j - nu unless the indexes cross; then it is
        # E g(b-1) + E g(b) + nu - (1 - c_j), or E g(0) + nu at b = 0
        lo, hi = nu[T, b, j, tau], nu[T, b + 1, j, tau]
        flip = hi < lo
        s = np.flatnonzero(flip)
        crossed = both.combine(np.where((b[s] == 0)[:, None],
                                        np.stack([s, np.full_like(s, R + 3 * K),
                                                  np.full_like(s, R + 3 * K + 1)], axis=1),
                                        np.stack([s - K, s, R + j[s]], axis=1)),
                               np.ones((s.size, 3)))
        pick = 2 * K + j
        pick[s] = 3 * K + 2 + np.arange(s.size)
        pieces = [both.take(np.where(b == 0, R + K + j, r - K)),
                  PWLBatch.concat([fixed, crossed]).take(pick), eg]
        knots = np.stack([np.where(flip, hi, lo), np.where(flip, lo, hi)], axis=1)
        g = checked(T, "g_1", b, lambda: PWLBatch.stitch(pieces, knots))
        levels += [g] if collect_g else []

    try:
        table = IndexTable(nu)
    except ValueError as e:
        raise IndexCheckError(str(e)) from e
    if not collect_g:
        return table
    return table, {(T, int(b[s]), int(j[s]), int(tau[s])): g.row(s)
                   for T, g in enumerate(levels, 1) for s in r}


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
