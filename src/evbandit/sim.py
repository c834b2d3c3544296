"""Seeded Monte Carlo engine with common random numbers across policies.

All exogenous randomness is action-independent: the cost chain moves on its
own, lead times tick down deterministically, and a charger's occupancy in the
next slot is decided by arrival/type draws only when it vacates.  Only the
remaining demand B depends on the actions.  ``world_slots`` therefore draws
the rest once per seed set, from three named streams per seed (cost path,
arrival coin flips, EV type draws), and yields it slot by slot as the time
loop reaches it: each slot's cost level and lead times and the demand of any
arriving EV.  Every policy runs against that one world, so common random
numbers hold by construction and paired comparisons subtract the same noise.
No array has a horizon axis: the world is drawn in blocks of _BLOCK slots.

Every policy's episodes advance in one time loop: the demands are one
(n_policies, n_seeds, n_chargers) array, and each slot ``stack_kernel``
decides for all policies at once (one selection for every ranking policy),
then the service and the accounting run once for all.  An arrival's type is
looked up only where an EV arrives.
The exact joint-MDP oracles that check this simulator on toy instances live
with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import Instance, serve
from .policies import (  # the *_kernel names are not called here; perfbench/spans.py traces them
    CostForecast,
    edf_kernel,
    edf_key,
    llf_kernel,
    llf_key,
    lllp_kernel,
    select_by_key,
    valley_filling_policy,
    whittle_kernel,
    whittle_key,
)
from .whittle import compute_index_table

__all__ = [
    "EpisodeMetrics",
    "ComparisonReport",
    "default_horizon",
    "stack_kernel",
    "monte_carlo",
]

POLICY_NAMES = ("whittle", "whittle+lllp", "edf", "llf", "valley")

_BLOCK = 64  # slots of uniforms held per seed and stream


@dataclass
class EpisodeMetrics:
    """Per-episode accounting.  discounted_reward is revenue − cost − penalty
    by construction; the three parts are accumulated with the same discount
    weights the reward definition uses."""

    policy: str
    seed: int
    horizon: int
    discounted_reward: float
    revenue: float
    energy_cost: float
    penalty: float
    delivered_units: int
    arrived_units: int
    unserved_units: int
    completion_fraction: float
    activations_per_slot: float
    interchanges: int


def default_horizon(instance: Instance, tol: float = 1e-3) -> int:
    """Smallest H with beta^H (1 + max dF) / (1 - beta) <= tol per charger."""
    beta = instance.discount
    scale = (1.0 + instance.penalty.max_increment) / (1.0 - beta)
    return max(1, int(np.ceil(np.log(tol / scale) / np.log(beta))))


def _type_tables(instance: Instance):
    out = []
    for tau in range(instance.n_periods):
        pmf = instance.arrivals.pmf_for(tau)
        tt, bb = np.nonzero(pmf)
        cum = np.cumsum(pmf[tt, bb])
        out.append((cum, tt, bb))
    return out


def world_slots(instance: Instance, seeds, horizon: int):
    """The world of ``seeds`` over ``horizon`` slots, from an empty facility,
    one slot at a time.

    Yields each slot's (S, N) lead times, (S,) cost levels and (S, N)
    arrivals: the demand of the EV that takes charger i at the end of the
    slot, 0 when none does.  The uniforms are drawn per seed and stream in
    blocks of at most _BLOCK slots (the doubles do not depend on the block
    size).  The cost level starts from the stationary law and then steps by
    the current period's matrix; a vacated charger is refilled when its
    arrival coin falls below rho, and only then is its type drawn, by
    inverting the period's type CDF at its type uniform.
    """
    s, n, nt = len(seeds), instance.n_chargers, instance.n_periods
    streams = [np.random.SeedSequence(int(sd)).spawn(3) for sd in seeds]  # cost, coin, type
    gens = [[np.random.default_rng(st) for st in three] for three in streams]
    k = instance.cost.n_levels
    cum0 = np.cumsum(instance.cost.stationary())
    cums = [np.cumsum(instance.cost.matrix_for(tau), axis=1) for tau in range(nt)]
    rho = np.array([instance.arrivals.rho_for(tau) for tau in range(nt)])
    types = _type_tables(instance)

    t_arr = np.zeros((s, n), dtype=np.int64)
    for start in range(0, horizon, _BLOCK):
        rows = min(_BLOCK, horizon - start)
        cost_u = np.empty((s, rows))
        coin = np.empty((s, rows, n))
        u = np.empty((s, rows, n))
        for i, (cost_gen, arr_gen, type_gen) in enumerate(gens):
            cost_gen.random(out=cost_u[i])
            arr_gen.random(out=coin[i])
            type_gen.random(out=u[i])
        coin = (coin < rho[(start + np.arange(rows)) % nt][:, None]).swapaxes(0, 1).copy()
        u = u.swapaxes(0, 1).copy()  # slot-major, as the loop reads them
        for r in range(rows):
            slot = start + r
            if slot == 0:
                j = np.minimum(np.searchsorted(cum0, cost_u[:, r], side="right"), k - 1)
            else:
                j = np.minimum((cost_u[:, r, None] > cums[(slot - 1) % nt][j]).sum(axis=1), k - 1)
            cum, tt, bb = types[slot % nt]
            arrives = coin[r] & (t_arr <= 1)
            kind = np.minimum(np.searchsorted(cum, u[r][arrives], side="right"), cum.size - 1)
            arrival = np.zeros((s, n), dtype=np.int64)
            arrival[arrives] = bb[kind]
            yield t_arr, j, arrival
            t_arr = np.maximum(t_arr - 1, 0)
            t_arr[arrives] = tt[kind]


def stack_kernel(runs, instance: Instance, table=None):
    """The policies ``runs``, in POLICY_NAMES order, as one batch kernel.

    ``kern(t, b, j, tau)`` takes (S, N) lead times, (P, S, N) demands (one
    slice per policy), (S,) cost levels and the period, and returns the
    (P, S, N) activation and the (P, S) rows the LLLP interchange changed.
    The ranking policies' keys are stacked, and one ``select_by_key`` call
    selects for all of them; "whittle+lllp" is the Whittle choice refined by
    ``lllp_kernel`` (the one place the two are composed), and valley plans
    row by row.  Whittle policies need the index table.
    """
    if list(runs) != sorted(runs, key=POLICY_NAMES.index):  # .index refuses unknown names
        raise ValueError(f"policies {runs!r} are not in POLICY_NAMES order")
    n_whittle = sum(p.startswith("whittle") for p in runs)
    if n_whittle and table is None:
        raise ValueError("whittle policies need an index table")
    ranked = len(runs) - ("valley" in runs)
    plain = [edf_key if p == "edf" else llf_key for p in runs[n_whittle:ranked]]
    lllp = runs.index("whittle+lllp") if "whittle+lllp" in runs else None
    forecast = CostForecast(instance) if ranked < len(runs) else None
    m = instance.capacity

    def kern(t, b, j, tau):
        n = t.shape[1]
        action = np.empty(b.shape, dtype=bool)
        swapped = np.zeros(b.shape[:2], dtype=bool)
        keyed = [whittle_key(t, b[:n_whittle], j, tau, table)] if n_whittle else []
        keyed += [rule(t, b[p : p + 1]) for p, rule in enumerate(plain, n_whittle)]
        if keyed:  # one selection for every ranking policy, on the (P * S, N) stack
            key, eligible = (np.concatenate(x).reshape(-1, n) for x in zip(*keyed))
            action[:ranked] = select_by_key(key, b[:ranked].reshape(-1, n), m, eligible).reshape(
                ranked, -1, n)
        if lllp is not None:
            refined = lllp_kernel(t, b[lllp], action[lllp])
            swapped[lllp] = np.any(refined != action[lllp], axis=1)
            action[lllp] = refined
        if ranked < len(runs):
            action[-1] = [
                valley_filling_policy(t[s], b[-1, s], int(j[s]), tau, instance, forecast)[0]
                for s in range(t.shape[0])
            ]
        return action, swapped

    return kern


def _run_batch(
    instance: Instance,
    policies: tuple,
    seeds,
    horizon: int,
    table=None,
) -> list[list[EpisodeMetrics]]:
    """Every policy's episodes against one world, one list per policy, from
    one time loop over a (P, S, N) demand array (see the module docstring)."""
    runs = sorted(policies, key=POLICY_NAMES.index)
    kern = stack_kernel(runs, instance, table)
    shape = (len(runs), len(seeds))
    n = instance.n_chargers
    m = instance.capacity
    beta = instance.discount
    nt = instance.n_periods
    cvals = instance.cost.values
    ftab = instance.penalty.table
    count = np.ones(n, dtype=np.int64)  # x @ count sums x over chargers, faster than x.sum(axis=2)

    b_arr = np.zeros(shape + (n,), dtype=np.int64)
    revenue = np.zeros(shape)
    energy_cost = np.zeros(shape)
    penalty = np.zeros(shape)
    delivered = np.zeros(shape, dtype=np.int64)
    unserved = np.zeros(shape, dtype=np.int64)
    activations = np.zeros(shape, dtype=np.int64)
    interchanges = np.zeros(shape, dtype=np.int64)
    arrived = np.zeros((len(seeds), n), dtype=np.int64)
    disc = 1.0

    for t, (t_arr, j, new) in enumerate(world_slots(instance, seeds, horizon)):
        c = cvals[j]

        action, swapped = kern(t_arr, b_arr, j, t % nt)
        interchanges += swapped
        active = action @ count
        if active.max() > m:
            first = min((p for p, a in zip(runs, active.max(axis=1)) if a > m), key=policies.index)
            raise RuntimeError(f"policy {first!r} violated the capacity limit")

        eff, b_after, _, b_next = serve(t_arr, b_arr, action)
        served = eff @ count
        paid = disc * served
        revenue += paid
        energy_cost += paid * c
        due = b_after * (t_arr == 1)  # demand still owed in the final slot; F(0) = 0
        penalty += disc * ftab[due].sum(axis=2)
        delivered += served
        unserved += due @ count
        activations += active

        b_arr = b_next + new  # an EV takes only a charger whose b_next is 0 (t <= 1)
        arrived += new
        disc *= beta

    arrived = arrived.sum(axis=1)
    out = []
    for p, policy in enumerate(runs):
        episodes = []
        for i, sd in enumerate(seeds):
            comp = 1.0 if arrived[i] == 0 else 1.0 - unserved[p, i] / arrived[i]
            episodes.append(
                EpisodeMetrics(
                    policy=policy,
                    seed=int(sd),
                    horizon=horizon,
                    discounted_reward=float(revenue[p, i] - energy_cost[p, i] - penalty[p, i]),
                    revenue=float(revenue[p, i]),
                    energy_cost=float(energy_cost[p, i]),
                    penalty=float(penalty[p, i]),
                    delivered_units=int(delivered[p, i]),
                    arrived_units=int(arrived[i]),
                    unserved_units=int(unserved[p, i]),
                    completion_fraction=float(comp),
                    activations_per_slot=float(activations[p, i] / horizon),
                    interchanges=int(interchanges[p, i]),
                )
            )
        out.append(episodes)
    return [out[runs.index(p)] for p in policies]


def _mean_ci(x: np.ndarray) -> tuple[float, float]:
    """Mean and the half-width of its two-sided 95 % Student-t interval."""
    from scipy.special import stdtrit  # the Student-t quantile that t.ppf evaluates

    half = 0.0
    if x.size > 1:
        half = float(stdtrit(x.size - 1, 0.975) * x.std(ddof=1) / np.sqrt(x.size))
    return float(x.mean()), half


@dataclass
class ComparisonReport:
    """Per-policy episode metrics over a common seed set, plus paired stats."""

    policies: list[str]
    seeds: list[int]
    horizon: int
    episodes: dict[str, list[EpisodeMetrics]]
    baseline: str | None = None

    def rewards(self, policy: str) -> np.ndarray:
        return np.array([e.discounted_reward for e in self.episodes[policy]])

    def mean_ci(self, policy: str) -> tuple[float, float]:
        """(mean, 95% half-width) of the discounted reward."""
        return _mean_ci(self.rewards(policy))

    def paired(self, policy: str, baseline: str | None = None) -> tuple[float, float]:
        """(mean, 95% half-width) of per-seed reward differences vs baseline."""
        base = baseline or self.baseline
        if base is None:
            raise ValueError("no baseline configured")
        return _mean_ci(self.rewards(policy) - self.rewards(base))

    def summary(self) -> dict:
        out = {
            "horizon": self.horizon,
            "n_seeds": len(self.seeds),
            "policies": {},
        }
        for p in self.policies:
            mean, half = self.mean_ci(p)
            row = {"mean_reward": mean, "ci95_half_width": half}
            if self.baseline is not None and p != self.baseline:
                dm, dh = self.paired(p)
                row["paired_diff_vs_" + self.baseline] = dm
                row["paired_ci95_half_width"] = dh
            out["policies"][p] = row
        return out

    def to_csv(self, path) -> None:
        cols = [f.name for f in fields(EpisodeMetrics)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for p in self.policies:
                for e in self.episodes[p]:
                    vals = []
                    for cname in cols:
                        v = getattr(e, cname)
                        vals.append(repr(v) if isinstance(v, float) else str(v))
                    fh.write(",".join(vals) + "\n")

    def to_json(self, path) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=1)


def monte_carlo(
    instance: Instance,
    policies,
    seeds,
    horizon: int | None = None,
    baseline: str | None = None,
    truncation_tol: float = 1e-3,
) -> ComparisonReport:
    """Run every policy over the same seeds against one world."""
    if isinstance(seeds, (int, np.integer)):
        seeds = list(range(int(seeds)))
    else:
        seeds = [int(x) for x in seeds]
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for a comparison")
    policies = list(policies)
    for p in policies:
        if p not in POLICY_NAMES:
            raise ValueError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
    if baseline is not None and baseline not in policies:
        raise ValueError("baseline must be one of the policies")
    if horizon is None:
        horizon = default_horizon(instance, truncation_tol)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    needs_table = any(p.startswith("whittle") for p in policies)
    table = compute_index_table(instance) if needs_table else None
    runs = tuple(dict.fromkeys(policies))
    episodes = dict(zip(runs, _run_batch(instance, runs, seeds, horizon, table)))
    return ComparisonReport(policies, seeds, horizon, episodes, baseline)
