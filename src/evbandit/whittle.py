"""Whittle index computation for the charging bandit.

Two routes to the same number (the paper's constant-cost formula is an oracle in the tests):

1. ``compute_index_table``: piecewise-linear recursion over the lead time.
   The subsidy-problem value differences g_1(T,B) = V(T,B+1) - V(T,B) are
   piecewise linear in the subsidy nu, and the post-departure continuation
   cancels in every such difference, so the recursion never touches the value
   function itself.  The index at (T,B,c_j,tau) is the least root of

       f(nu) = nu - (1 - c_j) + beta * sum_k P_jk * g_1(T-1, B-1, c_k, tau+1),

   which is continuous and strictly increasing in nu; at T = 1 the sum is
   F(B-1) - F(B), undiscounted, as level 0 is the departure, owing F(B).
   Only g_1 is carried: a wider difference telescopes, g_h(T,B) =
   sum_{i<h} g_1(T,B+i), and g_2(T-1,B-1) is g_1(T-1,B-1) + g_1(T-1,B).
2. ``index_by_bisection``: oracle that bisects every state's activation
   threshold at once on ``subsidy_pass`` of the instance itself, the exact
   backward pass that ``solve_subsidy`` also runs for each of the bound's
   probes.  Independent of the PWL algebra; ``index --verify-oracle``
   checks the whole table against it.
   The tests also bisect on ``subsidy_value_iteration`` (``tests/oracles.py``),
   value iteration on the entries of ``model.extended_moves``, the slow route
   independent of both.

Every occupied state with B = 0 and the empty state have index exactly 0; a
"dummy" arm used by the policy layer carries that same constant index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model import Instance, charger_law, extended_moves, instance_sha256
# combine and stitch stay importable from here: perfbench/spans.py traces them
from .pwl import PWLBatch, RowError, combine, stitch  # noqa: F401

__all__ = [
    "IndexTable",
    "IndexCheckError",
    "compute_index_table",
    "subsidy_value_iteration",
    "SubsidySolution",
    "SubsidyProblem",
    "subsidy_pass",
    "solve_subsidy",
    "index_by_bisection",
]

# index_by_bisection's chunks of states keep subsidy_pass's arrays, about
# eight float64 arrays of one lead time per state, under this many bytes,
# and it bisects each state's subsidy to within this tolerance
ORACLE_BYTES = 64 << 20
BISECTION_TOL = 1e-8


class IndexCheckError(ValueError):
    """The index recursion failed a check that the theory says cannot fail: a
    root function that is not nondecreasing or has no root, pieces of a g_1
    that disagree at a knot, or an index that decreases in B past the
    diagonal."""


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
        # indexes equal in exact arithmetic differ by rounding: each of t_max levels
        # rounds values up to max |v| K + 6 times (E g's K-term sum, f's shift, the
        # root's interpolation; weights sum to beta < 1); up to 18 eps max |v| seen
        k = (v.shape[0] - 1) * (v.shape[2] + 6)
        tol = max(1e-9, k * np.finfo(float).eps * np.abs(v).max())
        for t in range(1, v.shape[0]):
            if np.any(np.diff(v[t, t:], axis=0) < -tol):
                raise ValueError("index not nondecreasing in B on the B >= T range")
        neg_unique, rank = np.unique(-v.ravel(), return_inverse=True)
        object.__setattr__(self, "rank", rank.reshape(v.shape))
        object.__setattr__(self, "n_positive", int(np.count_nonzero(neg_unique < 0)))

    def to_csv(self, path) -> None:
        """The csv module's bytes (``\\r\\n`` line ends), in one write."""
        rows = zip(np.ndindex(self.values.shape), self.values.ravel().tolist())
        lines = ["T,B,cost_state,period,index"]
        lines += [f"{t},{b},{j},{tau},{v!r}" for (t, b, j, tau), v in rows]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")

    def to_json(self, path, instance: Instance) -> None:
        """Write the table and its ``key`` (see ``_table_key``)."""
        t_max, b_max, k, nt = self.values.shape
        doc = {
            "t_max": t_max - 1,
            "b_max": b_max - 1,
            "cost_levels": k,
            "periods": nt,
            "key": _table_key(instance, self.values),
            "index": self.values.tolist(),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=1))

    @classmethod
    def from_json(cls, path, instance: Instance) -> IndexTable | None:
        """The table ``to_json`` wrote for ``instance``, bit for bit (JSON floats
        round-trip), or None if the file is unreadable or malformed, its shape is
        not the instance's, the constructor refuses it, or its key differs from
        ``_table_key`` of this version, ``instance`` and the loaded values."""
        shape = (instance.t_max + 1, instance.b_max + 1, instance.cost.n_levels, instance.n_periods)
        try:
            with open(path) as fh:
                doc = json.load(fh)
            values = np.asarray(doc["index"], dtype=float)
            table = cls(values) if values.shape == shape else None
        except (OSError, ValueError, TypeError, KeyError, OverflowError, RecursionError):
            return None
        return table if table is not None and doc.get("key") == _table_key(instance, values) else None


def _table_key(instance: Instance, values: np.ndarray) -> str:
    """sha256 of the package version, ``instance_sha256`` and the values' bytes."""
    text = (__version__ + instance_sha256(instance)).encode()
    return hashlib.sha256(text + values.tobytes()).hexdigest()


def compute_index_table(instance: Instance) -> IndexTable:
    """Index for every extended state by the PWL recursion.

    The g_1's of one lead time are the rows of one PWLBatch, ordered (period,
    B, cost level); a level T = 1..t_max forms E g, f on its breakpoints (no
    combine), f's least roots (the level's indexes) and the g_1's they split;
    level 0's E g is g_0(b) = F(b) - F(b+1), the penalty owed at departure.
    A failed check of the recursion or of the table raises IndexCheckError.
    """
    inst = instance
    t_bar, b_bar = inst.t_max, inst.b_max
    K, nt = inst.cost.n_levels, inst.n_periods
    cvals, gain = inst.cost.values, 1.0 - inst.cost.values
    beta = inst.discount
    F = inst.penalty.table

    nu = np.zeros((t_bar + 1, b_bar + 1, K, nt))

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

    # rows appended to a level's E g's, for the crossed combine and the stitch
    # (f is formed on E g's knots with no combine): R + j is nu - (1 - c_j),
    # R + K + j the constant 1 - c_j, R + 2K + j is 1 - c_j - nu, R + 3K is nu
    # and R + 3K + 1 is 0, a pad of exact zeros at nu's knot 0 (no bit moves)
    fixed = PWLBatch.affine(np.concatenate([cvals - 1.0, gain, gain, [0.0, 0.0]]),
                            np.concatenate([np.ones(K), np.zeros(K), -np.ones(K), [1.0, 0.0]]))
    P = inst.cost.matrix_for(np.arange(nt))
    next_rows = ((tau + 1) % nt * b_bar + b)[::K, None] * K + np.arange(K)

    eg = PWLBatch.affine(F[b] - F[b + 1], np.zeros(R))
    for T in range(1, t_bar + 1):
        # on E g's breakpoint grid, one per (tau, b), f = E g + (nu - (1 - c_j)),
        # 0 in the padding (where inf - inf warns)
        y = np.where(eg.valid, eg.Y + (eg.X + (cvals[j] - 1.0)[:, None]), 0.0)
        f = PWLBatch(eg.X, y, eg.n, eg.left + 1.0, eg.right + 1.0)
        nu[T, 1:] = checked(T, "f", b + 1, f.least_roots).reshape(nt, b_bar, K).transpose(1, 2, 0)
        if T == t_bar:
            break
        both = PWLBatch.concat([eg, fixed])
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
        eg = g.combine(next_rows, beta * P[tau, j], group=r // K)  # E_k g_1(T, b, c_k, tau+1)

    try:
        return IndexTable(nu)
    except ValueError as e:
        raise IndexCheckError(str(e)) from e


def value_iteration_sweeps(r_sup: float, beta: float, tol: float) -> int:
    """Sweeps that bring value iteration from a cold start within ``tol``
    (sup norm) of the fixed point, for rewards bounded by ``r_sup``."""
    if r_sup == 0:
        return 1
    return max(1, int(np.ceil(np.log(tol * (1.0 - beta) / r_sup) / np.log(beta))))


def subsidy_value_iteration(instance: Instance, nu: float, tol: float = 1e-9):
    """Value iteration for the single-charger problem with passivity subsidy nu.

    Returns (V, actions) over the states of ``model.extended_moves``, which
    reshape to ``IndexTable.values``' grid (a cell T = 0, B >= 1 holds the
    empty charger's), whose entries each sweep adds up: one bincount for the
    staying moves of both actions, and one for the refill rows of the price
    states, which every vacant state of a price state takes under either
    action.  Actions break ties toward passive.  Runs enough sweeps that the
    sup-norm error from the cold start is at most ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    inst = instance
    law = charger_law(inst)
    m = inst.cost.n_levels * inst.n_periods
    n = law.T.size * m
    (a, s, s2, p), (v, r2, q), vacant = extended_moves(inst, law)
    stay, price = a * n + s, vacant % m
    beta = inst.discount
    reward = np.repeat(law.reward.reshape(2, -1), inst.n_periods, axis=1)
    n_iter = value_iteration_sweeps(float(np.abs(reward).max()) + abs(nu), beta, tol)
    reward[0] += nu

    def backup(values):
        ev = np.bincount(stay, p * values[s2], minlength=2 * n).reshape(2, n)
        ev[:, vacant] = np.bincount(v, q * values[r2], minlength=m)[price]
        return reward + beta * ev

    values = np.zeros(n)
    for _ in range(n_iter):
        values = backup(values).max(axis=0)
    q0, q1 = backup(values)
    return values, (q1 > q0).astype(np.int8)


def subsidy_pass(instance: Instance, nu):
    """Backward pass of the subsidy problem over lead times, for S subsidies.

    Yields, for T = 1..t_max and each only when asked for, the local values
    U(T) (the continuation after the departure stripped off, as both actions
    carry it alike) and the optimal actions (ties passive), each of shape
    (S, b_max + 1, K, N_tau) for the S subsidies ``nu``, each a step from the
    level below it, starting from level 0, the departure: U(0, B) = -F(B).
    """
    inst = instance
    b_bar, K, nt = inst.b_max, inst.cost.n_levels, inst.n_periods
    beta = inst.discount
    nu = np.asarray(nu, dtype=float)[:, None, None, None]
    gain = (1.0 - inst.cost.values)[:, None]  # (K, 1) broadcast over periods
    p_t = [inst.cost.matrix_for(tau).T for tau in range(nt)]

    # mid is beta E U(T-1) from level 2 on, and U(0) = -F(B), undiscounted, at
    # level 1; as 0.0 - F, F(0) = 0 enters as +0.0
    mid = np.zeros((1, b_bar + 1, K, nt)) - inst.penalty.table[: b_bar + 1, None, None]
    for t in range(1, inst.t_max + 1):
        if t > 1:
            mid = np.empty_like(u)
            for tau in range(nt):
                mid[..., tau] = beta * u[..., (tau + 1) % nt] @ p_t[tau]
        q_pass = nu + mid
        q_act = np.concatenate([mid[:, :1], gain + mid[:, :-1]], axis=1)
        u = np.maximum(q_pass, q_act)
        yield u, q_act > q_pass


@dataclass(frozen=True)
class SubsidySolution:
    """Exact subsidy-problem solution on the (T, B, cost, period) grid.

    ``values[0, 0]`` is the empty-charger value; ``values[0, B>0]`` is unused
    and zero.  ``actions`` holds the optimal action (ties passive).
    ``activations`` (laid out like ``values``) is E sum_t beta^t a_t under
    ``actions``, so the slope of ``values`` in nu is 1/(1 - beta) minus it.
    """

    values: np.ndarray
    actions: np.ndarray
    activations: np.ndarray


@dataclass(frozen=True, eq=False)
class SubsidyProblem:
    """What ``solve_subsidy`` and the bound read that does not depend on nu,
    built once by ``of``: ``price_powers[t]`` = m1^t, t = 0..t_max, m1 moving
    price state (j, tau), id j N_tau + tau, to (k, tau + 1) with weight beta
    P_tau(j, k); ``cost_t``, the P_tau transposed; ``stationary``, the cost
    law pi; ``system``, I - G; and per period tau (arrivals of tau - 1)
    ``stay`` = 1 - rho and ``arrivals``, (n, N_tau) arrays T', B' and rho
    pmf(T', B') over the nonzeros in row-major order, padded by weight -0.0
    at (0, 0), +0.0 when a0 is formed: a sum gains -0.0, no bit."""

    instance: Instance
    price_powers: list[np.ndarray]
    cost_t: list[np.ndarray]
    stationary: np.ndarray
    system: np.ndarray
    stay: np.ndarray
    arrivals: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def of(cls, instance: Instance) -> SubsidyProblem:
        inst, K, nt = instance, instance.cost.n_levels, instance.n_periods
        e, m1 = K * nt, np.zeros((K, nt, K, nt))
        for tau in range(nt):
            m1[:, tau, :, (tau + 1) % nt] = inst.discount * inst.cost.matrix_for(tau)
        powers, g_mat = [np.eye(e)], np.zeros((e, e))
        for _ in range(inst.t_max):
            powers.append(powers[-1] @ m1.reshape(e, e))
        pmfs, rho = (np.roll(a, 1, axis=0) for a in (inst.arrivals.pmf, inst.arrivals.rho))
        at = np.zeros((2, max(np.count_nonzero(pmf) for pmf in pmfs), nt), dtype=np.intp)
        weight = np.full(at.shape[1:], -0.0)
        for tau, pmf in enumerate(pmfs):
            rows, qt = slice(tau, e, nt), pmf.sum(axis=1)  # rows j N_tau + tau
            g_mat[rows] = (1.0 - rho[tau]) * powers[1][rows]
            for t in np.flatnonzero(qt[1:] > 0) + 1:
                g_mat[rows] += rho[tau] * qt[t] * powers[t][rows]
            tp, bp = np.nonzero(pmf)
            at[:, : tp.size, tau], weight[: tp.size, tau] = (tp, bp), rho[tau] * pmf[tp, bp]
        return cls(inst, powers, [inst.cost.matrix_for(tau).T for tau in range(nt)],
                   inst.cost.stationary(), np.eye(e) - g_mat, 1.0 - rho, (*at, weight))


def solve_subsidy(problem: SubsidyProblem, nu: float) -> SubsidySolution:
    """Solve the subsidy problem exactly with one backward pass over T.

    The continuation value after a departure enters every state's Bellman
    equation linearly, with the same coefficient under both actions and no
    dependence on B.  Stripping it off leaves a finite-horizon DP over lead
    times (``subsidy_pass``, the one the oracle bisects on); the continuation
    itself then solves a (K * N_tau)-dimensional linear system.  No
    fixed-point iteration, so this is fast even for discount factors very
    close to 1; ``subsidy_value_iteration`` provides the independent slow
    path.  ``problem`` holds what reads no nu; per nu run the pass, the
    activation counts, a0 ((1 - rho) times the empty value, then the arrival
    terms left to right: a cumsum's last row, not a pairwise sum), one solve
    and the continuation added back.  The arrival mixing and the reward are
    written out here, in ``SubsidyProblem.of`` and in ``subsidy_pass`` on
    purpose instead of read from ``charger_law``: this is the one coding of
    the per-charger law independent of that table, which the LP vs dual
    check and the full-capacity joint DP test compare against.
    """
    inst = problem.instance
    t_bar, b_bar = inst.t_max, inst.b_max
    K, nt = inst.cost.n_levels, inst.n_periods
    beta = inst.discount

    # local parts (continuation stripped) of two grids: the values U, and the
    # activation counts n(T, B) = a + beta E n(T-1, B-a) of the greedy actions
    local = np.zeros((2, t_bar + 1, b_bar + 1, K, nt))
    act = np.zeros((t_bar + 1, b_bar + 1, K, nt), dtype=np.int8)
    for t, (u_t, act_t) in enumerate(subsidy_pass(inst, [nu]), 1):
        local[0, t], act[t] = u_t[0], act_t[0]
        nxt = beta * np.stack([local[1, t - 1, ..., (tau + 1) % nt] @ problem.cost_t[tau]
                               for tau in range(nt)], axis=-1)
        local[1, t] = np.where(act_t[0], 1.0 + np.concatenate([nxt[:1], nxt[:-1]]), nxt)
    empty = np.stack([np.full((K, nt), max(nu, 0.0)), np.full((K, nt), float(nu < 0.0))])

    # continuation: A(k, tau) = E[V of the slot's occupant at period tau after
    # a departure at tau-1]; solves A = a0 + G A with ||G|| <= beta < 1, for
    # the values and the activation counts alike; a0's terms, (1 + n, N_tau, 2, K)
    tp, bp, w = problem.arrivals
    terms = np.concatenate([(problem.stay[:, None, None] * empty.transpose(2, 0, 1))[None],
                            w[..., None, None] * local[:, tp, bp, :, np.arange(nt)]])
    a0 = np.cumsum(terms, axis=0)[-1].transpose(1, 2, 0).reshape(2, K * nt)
    a_vec = np.linalg.solve(problem.system, a0.T)

    d = np.array([(power @ a_vec).T.reshape(2, K, nt) for power in problem.price_powers])
    local[:, 1:] += d[1:].transpose(1, 0, 2, 3)[:, :, None]  # the continuation back on
    local[:, 0, 0] = empty + d[1]
    return SubsidySolution(local[0], act, local[1])


def index_by_bisection(instance: Instance) -> np.ndarray:
    """Oracle index of every state: bisect the subsidy at which it turns passive.

    Every state with T >= 1 is bisected at once, one subsidy each, to within
    BISECTION_TOL, or to adjacent floats where those lie further apart, on
    ``subsidy_pass``, reading its action at its own lead time, in chunks
    whose pass arrays stay under ORACLE_BYTES.  The bracket is twice the bound
    1 + max penalty increment + max |cost| on the one-slot activation gain
    either way, room that rounding cannot take (an exact doubling: after two
    halvings, the bound's own brackets), so a state that does not turn from
    active to passive in it raises ValueError (a non-indexable input,
    impossible for valid instances).  Returns an array shaped like
    ``IndexTable.values``, with row T = 0 zero.
    """
    inst = instance
    shape = (inst.t_max + 1, inst.b_max + 1, inst.cost.n_levels, inst.n_periods)
    T, B, j, tau = (a.ravel() for a in np.indices(shape))
    span = 2.0 * (1.0 + inst.penalty.max_increment + float(np.abs(inst.cost.values).max()))
    index = np.zeros(T.size)
    states = np.flatnonzero(T >= 1)
    chunk = max(1, ORACLE_BYTES // (8 * 8 * (T.size // shape[0])))

    for s in np.split(states, range(chunk, states.size, chunk)):
        def active(nu):  # stops the pass at the chunk's last lead time
            on = np.empty(s.size, dtype=bool)
            for t, (_, act) in zip(range(1, T[s[-1]] + 1), subsidy_pass(inst, nu)):
                at = np.flatnonzero(T[s] == t)
                on[at] = act[at, B[s[at]], j[s[at]], tau[s[at]]]
            return on

        lo, hi = np.full(s.size, -span), np.full(s.size, span)
        bad = s[~active(lo) | active(hi)]
        if bad.size:
            state = tuple(int(a[bad[0]]) for a in (T, B, j, tau))
            raise ValueError(f"bracket failure: state (T, B, j, tau) = {state} does not "
                             f"turn from active to passive between -{span:.6g} and {span:.6g}")
        mid = 0.5 * (lo + hi)
        # a bracket of adjacent floats wider than the tolerance (|index| above
        # about 1.3e8) has no midpoint inside it, and halving stops there
        while np.any((hi - lo > 2.0 * BISECTION_TOL) & (lo < mid) & (mid < hi)):
            on = active(mid)
            lo, hi = np.where(on, mid, lo), np.where(on, hi, mid)
            mid = 0.5 * (lo + hi)
        index[s] = 0.5 * (lo + hi)
    return index.reshape(shape)
