"""Exact small-instance oracles that only the tests call.

The joint DP and the exact evaluation of a policy kernel solve the full
N-charger MDP of a toy instance from the shared per-charger law;
``policy_kernel`` is the simulator's stacked kernel for one policy;
``run_episode`` simulates one seed; ``check_indexability`` tests the
passive-set monotonicity of the subsidy problem on a grid;
``index_by_vi_bisection`` bisects one state's index on value iteration, the
slow route independent of both the PWL recursion and the exact backward
pass of ``whittle.index_by_bisection``.  Tests import this
module as ``oracles`` (``tests/`` is on ``sys.path``); pytest does not collect
it.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from evbandit import whittle
from evbandit.arm import ArmMDP, build_arm_mdp, value_iteration_sweeps
from evbandit.model import Instance, charger_law
from evbandit.sim import EpisodeMetrics, _run_batch, default_horizon, stack_kernel
from evbandit.whittle import IndexTable, compute_index_table


def policy_kernel(name: str, instance: Instance, table: IndexTable | None = None):
    """The named policy as a batch kernel ``kern(t, b, j, tau)`` on (S, N) lead
    times and demands: ``sim.stack_kernel`` for one policy.  Returns the
    (S, N) activation and the (S,) rows the LLLP interchange changed."""
    kern = stack_kernel((name,), instance, table)
    return lambda t, b, j, tau: tuple(x[0] for x in kern(t, b[None], j, tau))


def run_episode(
    instance: Instance,
    policy: str,
    seed: int,
    horizon: int | None = None,
    table: IndexTable | None = None,
    truncation_tol: float = 1e-3,
) -> EpisodeMetrics:
    """One seeded episode from an empty facility; see monte_carlo for batches."""
    if horizon is None:
        horizon = default_horizon(instance, truncation_tol)
    if table is None and policy.startswith("whittle"):
        table = compute_index_table(instance)
    return _run_batch(instance, (policy,), [seed], horizon, table)[0][0]


def check_indexability(
    instance: Instance,
    nu_grid,
    states=None,
    vi_tol: float = 1e-10,
    arm: ArmMDP | None = None,
) -> bool:
    """True iff the passive set grows monotonically along the sorted nu grid.

    ``states`` restricts the check to particular extended states (ids or
    (T,B,j,tau) tuples); default is every state.  The subsidy problem is
    solved by ``evbandit.whittle.subsidy_value_iteration``, looked up at call
    time.
    """
    if arm is None:
        arm = build_arm_mdp(instance)
    grid = np.asarray(nu_grid, dtype=float)
    if grid.size == 0:
        return True
    if np.any(np.diff(grid) < 0):
        raise ValueError("nu grid must be sorted")
    acts = np.stack(
        [whittle.subsidy_value_iteration(instance, float(v), tol=vi_tol, arm=arm)[1] for v in grid]
    )
    if states is None:
        cols = acts
    else:
        ids = [int(s) if isinstance(s, (int, np.integer)) else arm.state_id(*s) for s in states]
        cols = acts[:, ids]
    return not np.any(np.diff(cols.astype(np.int8), axis=0) > 0)


def index_by_vi_bisection(
    instance: Instance,
    state,
    tol: float = 1e-8,
    arm: ArmMDP | None = None,
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
    if arm is None:
        arm = build_arm_mdp(instance)
    sid = arm.state_id(*state)
    span = 1.0 + instance.penalty.max_increment + float(np.abs(instance.cost.values).max())
    vi_tol = max(1e-13, tol * (1.0 - instance.discount) / 8.0)

    def active(v: float) -> bool:
        return bool(whittle.subsidy_value_iteration(instance, v, tol=vi_tol, arm=arm)[1][sid])

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
                ev = np.moveaxis(np.tensordot(self.law.move[ai, tau], ev, axes=([1], [i])), 0, i)
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
