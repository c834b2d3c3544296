"""Exact small-instance oracles that only the tests call.

The joint DP and the exact evaluation of a policy kernel solve the full
N-charger MDP of a toy instance from the shared per-charger law;
``policy_kernel`` is the simulator's stacked kernel for one policy, and
``reference_stack_kernel`` the ranking policies' kernel as it was before the
packed-key table, each key rule and then one ``select_by_key`` call;
``run_episode`` simulates one seed; ``check_indexability`` tests the
passive-set monotonicity of the subsidy problem on a grid;
``index_by_vi_bisection`` bisects one state's index on value iteration, the
slow route independent of both the PWL recursion and the exact backward
pass of ``whittle.index_by_bisection``; ``collected_g`` reads the g_1
functions of one ``compute_index_table`` call off its stitches;
``arm_mdp`` is the single-charger MDP on the extended states, dense, built
from ``dense_move``, the dense view of the shared law's next-state indices
and arrival rows, which the joint DP also reads; ``activation_frequency``
solves the occupancy of the subsidy problem's greedy policy on it, the
reference for ``SubsidySolution.activations``; ``OccupancyLP`` holds an
occupancy LP as HiGHS takes it; ``kronecker_occupancy_lp`` is the occupancy
LP on ``arm_mdp``'s transition matrices, and ``reference_occupancy_lp`` the
vacancy form of ``bound``'s module docstring built from ``dense_move``, the
only place that form exists as a matrix: ``bound`` reads its entries off
``model.extended_moves`` and never builds it; ``lp_matrices`` builds an
occupancy LP's scipy matrices from its triplets; ``_solve_lp`` solves an
occupancy LP with HiGHS, the independent referee of ``bound``'s certificate,
and ``highs_outside_bracket`` measures HiGHS's optimum against that
certificate's bracket; ``basis_by_spsolve`` solves the basis of a policy
with scipy's sparse LU, the referee of the certificate's sweeps;
``closed_form_index`` is the paper's formula for the index under constant
cost, kept as an oracle; ``reference_index_table`` is
``compute_index_table`` as it was when a combine formed the root functions,
``reference_solve_subsidy`` ``whittle.solve_subsidy`` as it was when
every call built its own price powers, G and arrival mix, and
``reference_exact_dual`` ``bound._exact_dual`` as it was when it searched
the index table's kinks.
Every oracle numbers a charger's states as ``charger_law`` does, (T, B) at
T (b_max + 1) + B, and the extended states as ``state_id`` does, the ravel
index of (T, B, j, tau) on the grid of ``IndexTable.values``, so an array
laid out like that table ravels in their order.  The cells T = 0, B >= 1,
which no charger enters, are kept as empty chargers.
Tests import this module as ``oracles`` (``tests/`` is on ``sys.path``);
pytest does not collect it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

import numpy as np

from evbandit import whittle
from evbandit.bound import BoundResult, _dual
from evbandit.model import ChargerLaw, Instance, PenaltyFunction, charger_law
from evbandit.policies import edf_key, llf_key, lllp_kernel, select_by_key, whittle_key
from evbandit.pwl import PWLBatch
from evbandit.sim import _run_batch, default_horizon, stack_kernel
from evbandit.whittle import IndexTable, compute_index_table, value_iteration_sweeps


def dense_move(law: ChargerLaw) -> np.ndarray:
    """The law as a dense table move[a, tau, i, i2]: the probability that a
    charger in state i, under action a in period tau, is in state i2 in the
    next slot.  A staying charger's row holds a one at ``next[a, i]``, a
    departing or empty charger's row is ``arrival[tau]``."""
    nt, n_cs = law.arrival.shape
    move = np.zeros((2, nt, n_cs, n_cs))
    a, i = np.nonzero(law.next)
    move[a, :, i, law.next[a, i]] = 1.0
    a, i = np.nonzero(law.next == 0)
    move[a, :, i] = law.arrival
    return move


def state_id(instance: Instance, T: int, B: int, j: int, tau: int) -> int:
    """The id of extended state (T, B, cost level j, period tau), its ravel
    index on the grid of ``IndexTable.values``: ``arm_mdp``'s and
    ``whittle.subsidy_value_iteration``'s order."""
    shape = (instance.t_max + 1, instance.b_max + 1, instance.cost.n_levels, instance.n_periods)
    return int(np.ravel_multi_index((T, B, j, tau), shape))


def policy_kernel(name: str, instance: Instance, table: IndexTable | None = None):
    """The named policy as a batch kernel ``kern(t, b, j, tau)`` on (S, N) lead
    times and demands: ``sim.stack_kernel`` for one policy.  Returns the
    (S, N) activation and the (S,) rows the LLLP interchange changed."""
    kern = stack_kernel((name,), instance, table)
    return lambda t, b, j, tau: tuple(x[0] for x in kern(t, b[None], j, tau))


def reference_stack_kernel(runs, instance: Instance, table: IndexTable | None = None):
    """``sim.stack_kernel`` for the ranking policies ``runs`` (in POLICY_NAMES
    order, valley left out) as it was before its packed-key table: each
    policy's key rule on the slot's states, one ``select_by_key`` call on the
    stacked keys, and ``lllp_kernel`` on whittle+lllp's Whittle choice.
    ``kern(t, b, j, tau)`` returns the same (P, S, N) activation and (P, S)
    rows the interchange changed."""
    n_whittle = sum(p.startswith("whittle") for p in runs)
    plain = [edf_key if p == "edf" else llf_key for p in runs[n_whittle:]]
    lllp = runs.index("whittle+lllp") if "whittle+lllp" in runs else None
    m = instance.capacity

    def kern(t, b, j, tau):
        n = t.shape[1]
        swapped = np.zeros(b.shape[:2], dtype=bool)
        keyed = [whittle_key(t, b[:n_whittle], j, tau, table)] if n_whittle else []
        keyed += [rule(t, b[p : p + 1]) for p, rule in enumerate(plain, n_whittle)]
        key, eligible = (np.concatenate(x).reshape(-1, n) for x in zip(*keyed))
        action = select_by_key(key, b.reshape(-1, n), m, eligible).reshape(b.shape)
        if lllp is not None:
            refined = lllp_kernel(t, b[lllp], action[lllp])
            swapped[lllp] = np.any(refined != action[lllp], axis=1)
            action[lllp] = refined
        return action, swapped

    return kern


def run_episode(
    instance: Instance,
    policy: str,
    seed: int,
    horizon: int | None = None,
    table: IndexTable | None = None,
    truncation_tol: float = 1e-3,
) -> SimpleNamespace:
    """One seeded episode from an empty facility, its metrics as attributes
    (Python scalars); see monte_carlo for batches."""
    if horizon is None:
        horizon = default_horizon(instance, truncation_tol)
    if table is None and policy.startswith("whittle"):
        table = compute_index_table(instance)
    metrics = _run_batch(instance, (policy,), [seed], horizon, table)
    return SimpleNamespace(**{k: v.item() for k, v in metrics.items()})


def check_indexability(
    instance: Instance,
    nu_grid,
    states=None,
    vi_tol: float = 1e-10,
) -> bool:
    """True iff the passive set grows monotonically along the sorted nu grid.

    ``states`` restricts the check to particular extended states (ids or
    (T,B,j,tau) tuples); default is every state.  The subsidy problem is
    solved by ``evbandit.whittle.subsidy_value_iteration``, looked up at call
    time.
    """
    grid = np.asarray(nu_grid, dtype=float)
    if grid.size == 0:
        return True
    if np.any(np.diff(grid) < 0):
        raise ValueError("nu grid must be sorted")
    acts = np.stack(
        [whittle.subsidy_value_iteration(instance, float(v), tol=vi_tol)[1] for v in grid]
    )
    if states is None:
        cols = acts
    else:
        ids = [int(s) if isinstance(s, (int, np.integer)) else state_id(instance, *s) for s in states]
        cols = acts[:, ids]
    return not np.any(np.diff(cols.astype(np.int8), axis=0) > 0)


def index_by_vi_bisection(
    instance: Instance,
    state,
    tol: float = 1e-8,
) -> float:
    """Oracle index: bisect the subsidy at which ``state`` turns passive.

    The bracket is +/- (1 + max penalty increment + max |cost|), which
    contains every index because the one-slot activation gain is bounded by
    that quantity.  A missing flip inside the bracket raises, signalling a
    non-indexable input (impossible for valid instances).  The subsidy
    problem is solved by ``evbandit.whittle.subsidy_value_iteration``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sid = state_id(instance, *state)
    span = 1.0 + instance.penalty.max_increment + float(np.abs(instance.cost.values).max())
    vi_tol = max(1e-13, tol * (1.0 - instance.discount) / 8.0)

    def active(v: float) -> bool:
        return bool(whittle.subsidy_value_iteration(instance, v, tol=vi_tol)[1][sid])

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


class _JointMDP:
    """The full N-charger MDP of a toy instance, built from the shared law.

    Joint values have shape (n_cs,) * N + (K, N_tau); the chargers move
    independently given the action, so a backup applies each charger's move
    matrix along its own axis.
    """

    def __init__(self, instance: Instance, tol: float):
        self.instance = instance
        self.law = charger_law(instance)
        self.move = dense_move(self.law)
        n_cs = self.law.T.size
        n = instance.n_chargers
        total = n_cs**n * instance.cost.n_levels * instance.n_periods
        if total > 1_000_000:
            raise ValueError(f"joint state space too large ({total} states)")
        self.shape = (n_cs,) * n + (instance.cost.n_levels, instance.n_periods)
        self.actions = [a for a in product((0, 1), repeat=n) if sum(a) <= instance.capacity]
        self.rewards = []
        for a in self.actions:
            r = np.zeros(self.shape[:-1])
            for i, ai in enumerate(a):
                sl = [None] * n + [slice(None)]
                sl[i] = slice(None)
                r = r + self.law.reward[ai][tuple(sl)]
            self.rewards.append(r)
        r_sup = max(float(np.abs(r).max()) for r in self.rewards)
        self.n_iter = value_iteration_sweeps(r_sup, instance.discount, tol)

    def q_values(self, v: np.ndarray, tau: int, which=None):
        """Yield (action number, Q-values at period tau) for each action, or for
        the action numbers in ``which``; ``v`` is the current joint value."""
        inst = self.instance
        w = v[..., (tau + 1) % inst.n_periods]
        w = np.tensordot(w, inst.cost.matrix_for(tau), axes=([-1], [1]))  # over next cost
        for k in range(len(self.actions)) if which is None else which:
            ev = w
            for i, ai in enumerate(self.actions[k]):
                ev = np.moveaxis(np.tensordot(self.move[ai, tau], ev, axes=([1], [i])), 0, i)
            yield k, self.rewards[k] + inst.discount * ev

    def start_value(self, v: np.ndarray) -> float:
        """Value at the empty facility, period 0, cost at its stationary law."""
        return float(self.instance.cost.stationary() @ v[(0,) * self.instance.n_chargers][:, 0])


def brute_force_joint_dp(instance: Instance, tol: float = 1e-8):
    """Optimal joint value by value iteration over the full system MDP.

    Only for toy instances (state count capped at 1e6).  Returns
    (value at the empty-facility start, greedy action table); the table maps a
    flattened joint state index to the optimal action tuple.
    """
    jm = _JointMDP(instance, tol)
    nt = instance.n_periods
    v = np.zeros(jm.shape)
    for _ in range(jm.n_iter):
        vn = np.empty(jm.shape)
        for tau in range(nt):
            best = None
            for _, q in jm.q_values(v, tau):
                best = q if best is None else np.maximum(best, q)
            vn[..., tau] = best
        v = vn

    policy = {}
    for tau in range(nt):
        best = arg = None
        for k, q in jm.q_values(v, tau):
            if best is None:
                best = q.copy()
                arg = np.zeros(q.shape, dtype=np.int64)
            else:
                upd = q > best
                best = np.where(upd, q, best)
                arg[upd] = k
        policy[tau] = arg
    return jm.start_value(v), {"actions": jm.actions, "choice": policy}


def evaluate_policy_exact(instance: Instance, kern, tol: float = 1e-8) -> float:
    """Exact discounted value of a stationary policy on a toy instance.

    ``kern`` is a batch kernel as built by ``policy_kernel``; it is called once
    per period on every joint state at once to tabulate the policy, which is
    then evaluated by iteration.
    """
    jm = _JointMDP(instance, tol)
    n, nt = instance.n_chargers, instance.n_periods
    grid = np.indices(jm.shape[:-1]).reshape(n + 1, -1)  # charger states..., cost level
    t, b, j = jm.law.T[grid[:n]].T, jm.law.B[grid[:n]].T, grid[n]
    bits = 1 << np.arange(n)
    by_code = np.full(1 << n, -1)  # action number by bit code; -1 over capacity
    for k, a in enumerate(jm.actions):
        by_code[np.dot(a, bits)] = k

    choice = np.empty(jm.shape, dtype=np.int64)
    for tau in range(nt):
        action = np.asarray(kern(t, b, j, tau)[0], dtype=bool)
        codes = by_code[action.astype(np.int64) @ bits]
        if np.any(codes < 0):
            raise RuntimeError("policy violated the capacity limit")
        choice[..., tau] = codes.reshape(jm.shape[:-1])

    v = np.zeros(jm.shape)
    for _ in range(jm.n_iter):
        vn = np.empty(jm.shape)
        for tau in range(nt):
            acc = np.zeros(jm.shape[:-1])
            chosen = choice[..., tau]
            for ai, q in jm.q_values(v, tau, np.unique(chosen)):
                acc = np.where(chosen == ai, q, acc)
            vn[..., tau] = acc
        v = vn
    return jm.start_value(v)


def activation_frequency(instance: Instance, lam: float) -> float:
    """Discounted activation frequency (1-beta) E sum beta^t a_t of the
    lam-greedy policy (ties passive) from mu0, by a dense solve of its
    occupancy on ``arm_mdp``.  Only activations with B > 0 count, which is
    every activation for lam >= 0."""
    P0, P1, _, _, mu0 = arm_mdp(instance)
    sol = whittle.solve_subsidy(whittle.SubsidyProblem.of(instance), lam)
    demand = np.arange(instance.b_max + 1)[:, None, None]
    act = ((demand > 0) & (sol.actions > 0)).ravel()  # sol.actions ravels in state-id order
    rows = np.where(act[:, None], P1, P0)
    beta = instance.discount
    occ = np.linalg.solve(np.eye(act.size) - beta * rows.T, (1.0 - beta) * mu0)
    return float(occ[act].sum())


def reference_solve_subsidy(instance: Instance, nu: float) -> whittle.SubsidySolution:
    """``whittle.solve_subsidy`` as it was when each call built the price
    powers m1^t (``SubsidyProblem``'s), G and the arrival mixing itself and
    formed a0 by a loop over the arrival law's nonzeros: the bit-for-bit
    reference for the solve on a ``SubsidyProblem``.
    """
    inst = instance
    t_bar, b_bar = inst.t_max, inst.b_max
    K, nt = inst.cost.n_levels, inst.n_periods
    beta = inst.discount

    # local parts (continuation stripped) of two grids: the values U, and the
    # activation counts n(T, B) = a + beta E n(T-1, B-a) of the greedy actions
    local = np.zeros((2, t_bar + 1, b_bar + 1, K, nt))
    act = np.zeros((t_bar + 1, b_bar + 1, K, nt), dtype=np.int8)
    for t, (u_t, act_t) in enumerate(whittle.subsidy_pass(inst, [nu]), 1):
        local[0, t], act[t] = u_t[0], act_t[0]
        nxt = beta * np.stack([local[1, t - 1, ..., (tau + 1) % nt] @ inst.cost.matrix_for(tau).T
                               for tau in range(nt)], axis=-1)
        local[1, t] = np.where(act_t[0], 1.0 + np.concatenate([nxt[:1], nxt[:-1]]), nxt)
    empty = np.stack([np.full((K, nt), max(nu, 0.0)), np.full((K, nt), float(nu < 0.0))])

    # continuation: A(k, tau) = E[V of the slot's occupant at period tau after
    # a departure at tau-1]; solves A = a0 + G A with ||G|| <= beta < 1, for
    # the values and the activation counts alike
    e = K * nt
    m1 = np.zeros((K, nt, K, nt))
    for tau in range(nt):
        m1[:, tau, :, (tau + 1) % nt] = instance.discount * instance.cost.matrix_for(tau)
    powers = [np.eye(K * nt)]
    for _ in range(instance.t_max):
        powers.append(powers[-1] @ m1.reshape(K * nt, K * nt))

    g_mat = np.zeros((e, e))
    a0 = np.zeros((2, K, nt))
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
        a0[..., tau] = (1.0 - rho) * empty[..., tau]
        for (tp, bp) in zip(*np.nonzero(pmf)):
            a0[..., tau] += rho * pmf[tp, bp] * local[:, tp, bp, :, tau]
    a_vec = np.linalg.solve(np.eye(e) - g_mat, a0.reshape(2, e).T)

    d = np.array([(powers[t] @ a_vec).T.reshape(2, K, nt) for t in range(t_bar + 1)])
    local[:, 1:] += d[1:].transpose(1, 0, 2, 3)[:, :, None]  # the continuation back on
    local[:, 0, 0] = empty + d[1]
    return whittle.SubsidySolution(local[0], act, local[1])



def reference_exact_dual(problem: whittle.SubsidyProblem, table: IndexTable | None):
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
    the pieces' actions either side.  A ``table`` of None is built.
    ``bound._exact_dual`` as it was before its cutting-plane search, the
    referee of that search.
    """
    inst = problem.instance
    share = inst.capacity / inst.n_chargers
    values = (compute_index_table(inst) if table is None else table).values
    kinks = np.sort(values[values > 0])  # np.unique would import numpy.ma
    kinks = kinks[np.diff(kinks, prepend=0.0) > 0]
    edges = np.concatenate([[0.0], kinks, [kinks.max(initial=0.0) + 1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    piece = functools.cache(lambda i: _dual(problem, float(mids[i])))

    if piece(0)[1] <= share:
        return 0.0, _dual(problem, 0.0)[0], piece(0)[1], (None, piece(0)[2])
    lo, hi = 0, mids.size - 1  # f > M/N on piece lo; past every index f = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if piece(mid)[1] > share else (lo, mid)
    (d_lo, f_lo, act_lo), (d_hi, f_hi, act_hi) = piece(lo), piece(hi)
    # the two lines d + (M/N - f) (lambda - mid) / (1 - beta) meet at lambda*
    lam = ((d_hi - d_lo) * (1.0 - inst.discount) + (share - f_lo) * mids[lo]
           - (share - f_hi) * mids[hi]) / (f_hi - f_lo)
    lam = float(np.clip(lam, mids[lo], mids[hi]))
    return lam, _dual(problem, lam)[0], f_hi, (act_lo, act_hi)

@dataclass
class OccupancyLP:
    """max c·x s.t. A_eq x = b_eq, A_ub·x <= b_ub, x >= 0, an occupancy LP as
    HiGHS takes it.

    Variables are stacked [x(s,0), x(s,1)] over the ``n_states`` extended
    states of ``state_id`` and, in the vacancy form of ``bound``'s module
    docstring, the K * N_tau refills z(j, tau) after them.  ``A_eq`` holds
    (rows, cols, values) triplets; ``A_ub`` is 1 on each x(s,1).
    """

    c: np.ndarray
    A_eq: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    n_states: int


# HiGHS's interior point (with its crossover) against its default simplex on
# the vacancy form, 20 alternating pairs on a 2-core x86 host: 58 against
# 76 ms on the K=5, N_tau=4 tod_index instance and 44 against 58 ms on
# dynamic_cost; on fig3 and toy it loses about 1 ms
LP_METHOD = "highs-ipm"

# HiGHS's default primal and dual feasibility tolerance; its optimum can
# miss the true one by about this much relative to the objective's size
HIGHS_TOL = 1e-7


def lp_matrices(lp: OccupancyLP):
    """(A_eq, A_ub) of ``lp`` as scipy csr matrices: A_eq from its (rows,
    cols, values) triplets, A_ub the budget vector as a one-row matrix."""
    import scipy.sparse as sp

    rows, cols, vals = lp.A_eq
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(lp.b_eq.size, lp.c.size))
    return a_eq, sp.csr_matrix(lp.A_ub[None, :])


def _solve_lp(lp: OccupancyLP) -> tuple[float, np.ndarray]:
    """(optimum, [x(s,0), x(s,1)]): the LP's value by HiGHS and its x part, without z."""
    from scipy.optimize import linprog

    a_eq, a_ub = lp_matrices(lp)
    res = linprog(-lp.c, A_eq=a_eq, b_eq=lp.b_eq, A_ub=a_ub, b_ub=lp.b_ub,
                  bounds=(0.0, None), method=LP_METHOD)
    if not res.success:
        raise RuntimeError(f"occupancy LP failed: {res.message}")
    return -res.fun, res.x[: 2 * lp.n_states]


def highs_outside_bracket(value: float, result: BoundResult, n_chargers: int) -> float:
    """How far ``value``, HiGHS's optimum of the occupancy LP, lies outside
    the certificate's bracket [``lp_value``, ``lp_upper``] of a
    ``solve_bound(..., verify=True)`` ``result``, per charger, less HIGHS_TOL
    times the optimum's size: at most 0 when HiGHS agrees."""
    outside = max(result.lp_value / n_chargers - value, value - result.lp_upper / n_chargers)
    return outside - HIGHS_TOL * max(1.0, abs(value))


def basis_by_spsolve(lp: OccupancyLP, act: np.ndarray, price: float = 0.0):
    """(x, y) with B x = b_eq and y B = c_B - ``price`` A_ub,B, B the columns
    of ``lp``'s A_eq for x(s, act(s)) and every z, by
    ``scipy.sparse.linalg.spsolve``; x spans all of ``lp``'s variables, y its
    rows.  ``act`` is laid out like ``IndexTable.values``."""
    from scipy.sparse.linalg import spsolve

    n = lp.n_states
    cols = np.r_[np.arange(n) + n * act.ravel().astype(np.intp), 2 * n : lp.c.size]
    basis = lp_matrices(lp)[0].tocsc()[:, cols]
    x = np.zeros(lp.c.size)
    x[cols] = spsolve(basis, lp.b_eq)
    return x, spsolve(basis.T.tocsc(), lp.c[cols] - price * lp.A_ub[cols])


def kronecker_occupancy_lp(instance: Instance) -> OccupancyLP:
    """The occupancy LP on ``arm_mdp``, one column per (state, action) only.

    Balance: sum_a x(s',a) = (1-beta) mu0(s') + beta sum_{s,a} P_a(s'|s) x(s,a);
    budget: sum_s x(s,1) <= M/N; objective (to maximize):
    (1/(1-beta)) sum x(s,a) R_a(s).  Each departing state's column carries
    the whole refill, arrival law times the next cost level's law."""
    P0, P1, R0, R1, mu0 = arm_mdp(instance)
    n = mu0.size
    beta = instance.discount
    a_eq = np.hstack([np.eye(n) - beta * P0.T, np.eye(n) - beta * P1.T])
    rows, cols = np.nonzero(a_eq)
    a_ub = np.concatenate([np.zeros(n), np.ones(n)])
    b_ub = np.array([instance.capacity / instance.n_chargers])
    c = np.concatenate([R0, R1]) / (1.0 - beta)
    return OccupancyLP(c, (rows, cols, a_eq[rows, cols]), (1.0 - beta) * mu0, a_ub, b_ub, n)


def dense_arm_transitions(instance: Instance):
    """The arm's transition matrices P0, P1 on the extended states (see
    ``state_id``), dense, from the dense table of ``dense_move``: per action
    and period, its kron with the period's cost matrix."""
    inst = instance
    move = dense_move(charger_law(inst))
    n_cs, k, nt = move.shape[2], inst.cost.n_levels, inst.n_periods
    P = np.zeros((2, n_cs, k, nt, n_cs, k, nt))
    for tau in range(nt):
        cost = inst.cost.matrix_for(tau)
        P[:, :, :, tau, :, :, (tau + 1) % nt] = move[:, tau, :, None, :, None] * cost[:, None, :]
    n = n_cs * k * nt
    return P[0].reshape(n, n), P[1].reshape(n, n)


def arm_mdp(instance: Instance):
    """The single-charger MDP on the extended states, dense: (P0, P1, R0, R1,
    mu0), the transition matrices of ``dense_arm_transitions``, each
    action's rewards from ``charger_law``, and the initial law mu0, the empty
    charger in period 0 with the cost level at its stationary law."""
    law = charger_law(instance)
    k, nt = instance.cost.n_levels, instance.n_periods
    R0, R1 = np.repeat(law.reward.reshape(2, -1), nt, axis=1)
    mu0 = np.zeros(R0.size)
    mu0[: k * nt : nt] = instance.cost.stationary()
    return (*dense_arm_transitions(instance), R0, R1, mu0)


def collected_g(instance: Instance) -> dict:
    """The g_1 functions of one ``compute_index_table`` call, keyed by (T, B,
    j, tau) for T = 1..t_max - 1: the batches its ``PWLBatch.stitch`` calls
    return, one a level, whose row (tau b_max + B) K + j is g_1(T, B, c_j,
    tau)."""
    levels = []
    stitch = PWLBatch.__dict__["stitch"]

    def spy(cls, pieces, knots):
        levels.append(stitch.__func__(cls, pieces, knots))
        return levels[-1]

    PWLBatch.stitch = classmethod(spy)
    try:
        compute_index_table(instance)
    finally:
        PWLBatch.stitch = stitch
    assert len(levels) == instance.t_max - 1
    shape = (instance.n_periods, instance.b_max, instance.cost.n_levels)
    return {(T, b, j, tau): g.row(r) for T, g in enumerate(levels, 1)
            for r, (tau, b, j) in enumerate(np.ndindex(shape))}


def reference_occupancy_lp(instance: Instance) -> OccupancyLP:
    """The occupancy LP in the vacancy form of ``bound``'s module docstring,
    built from the dense table of ``dense_move``: per period, the staying
    rows' kron with the cost matrix, and the empty charger's row (the arrival
    law, the refill of z(., tau)) likewise.  The LP that HiGHS solves to
    referee ``bound``'s certificate, and whose matrices that certificate's
    products, read off ``model.extended_moves``, must reproduce."""
    import scipy.sparse as sp

    inst = instance
    law = charger_law(inst)
    move = dense_move(law)
    k, nt, beta = inst.cost.n_levels, inst.n_periods, inst.discount
    m = k * nt
    n = law.T.size * m
    s = np.arange(n)
    gone = law.T <= 1
    vacant = np.flatnonzero(np.repeat(gone, m))
    z = n + vacant % m  # the row of the z(j, tau) each vacant state counts in
    rows = [s, s, z, z, n + np.arange(m)]
    cols = [s, n + s, vacant, n + vacant, 2 * n + np.arange(m)]
    data = [np.ones(n), np.ones(n), -np.ones(vacant.size), -np.ones(vacant.size), np.ones(m)]
    for tau in range(nt):
        cost = sp.csr_matrix(inst.cost.matrix_for(tau))
        # coo: kron's BSR path, taken for a cost matrix at least half full,
        # would store that matrix's zeros
        step = [sp.kron(sp.csr_matrix(move[a, tau] * ~gone[:, None]), cost, format="coo")
                for a in (0, 1)]
        step.append(sp.kron(sp.csr_matrix(move[0, tau, :1]), cost, format="coo"))
        for offset, block in zip((0, n, 2 * n), step):
            rows.append(block.col * nt + (tau + 1) % nt)
            cols.append(offset + block.row * nt + tau)
            data.append(-beta * block.data)
    a_eq = tuple(map(np.concatenate, (rows, cols, data)))
    b_eq = np.zeros(n + m)
    b_eq[:m:nt] = (1.0 - beta) * inst.cost.stationary()
    a_ub = np.repeat([0.0, 1.0, 0.0], [n, n, m])
    b_ub = np.array([inst.capacity / inst.n_chargers])
    c = np.concatenate([np.repeat(law.reward.reshape(2, -1), nt, axis=1).ravel(), np.zeros(m)])
    return OccupancyLP(c / (1.0 - beta), a_eq, b_eq, a_ub, b_ub, n)


def closed_form_index(T: int, B: int, c0: float, beta: float, penalty: PenaltyFunction) -> float:
    """The paper's closed-form index for constant cost c0.

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


def reference_index_table(instance: Instance) -> IndexTable:
    """``whittle.compute_index_table`` (without the state named in a failed
    check) as it formed each level's root functions
    f = E g + nu - (1 - c_j): by a two-member ``combine`` of the E g row and
    the affine row, which merges the breakpoint 0 into E g's grid, evaluates
    both members on it, sums and simplifies, each level T = 1..t_max from
    the same level 0.  The reference for the table: the same bits on
    well-scaled instances, the same to rounding on others."""
    inst = instance
    t_bar, b_bar, K, nt = inst.t_max, inst.b_max, inst.cost.n_levels, inst.n_periods
    cvals, gain, beta = inst.cost.values, 1.0 - inst.cost.values, inst.discount
    F = inst.penalty.table
    nu = np.zeros((t_bar + 1, b_bar + 1, K, nt))
    tau, b, j = (a.ravel() for a in np.indices((nt, b_bar, K)))
    R = tau.size
    r = np.arange(R)
    fixed = PWLBatch.affine(np.concatenate([cvals - 1.0, gain, gain, [0.0, 0.0]]),
                            np.concatenate([np.ones(K), np.zeros(K), -np.ones(K), [1.0, 0.0]]))
    P = inst.cost.matrix_for(np.arange(nt))
    next_rows = ((tau + 1) % nt * b_bar + b)[::K, None] * K + np.arange(K)
    eg = PWLBatch.affine(F[b] - F[b + 1], np.zeros(R))
    for T in range(1, t_bar + 1):
        both = PWLBatch.concat([eg, fixed])
        f = both.combine(np.stack([r, R + j], axis=1), np.ones((R, 2)))
        nu[T, 1:] = f.least_roots().reshape(nt, b_bar, K).transpose(1, 2, 0)
        if T == t_bar:
            break
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
        g = PWLBatch.stitch(pieces, knots)
        eg = g.combine(next_rows, beta * P[tau, j], group=r // K)
    return IndexTable(nu)
