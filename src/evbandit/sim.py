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
decides for all policies at once (every ranking policy selects by one gather
from a table of packed keys and one partition), then the service and the
accounting run once for all.  An arrival's type is
looked up only where an EV arrives.  The per-episode sums stay the
(n_policies, n_seeds) arrays the loop adds into, from ``_run_batch`` through
``ComparisonReport.metrics`` to ``episodes.csv`` and ``summary.json``.

``monte_carlo`` runs one time loop per shard of contiguous seeds, one shard per
usable core, each but the first in a forked child.  Common random numbers hold
and the split changes no result: a seed's world comes from its own three
streams, and every step of the loop acts on each seed's row alone.
The exact joint-MDP oracles that check this simulator on toy instances live
with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cache

import numpy as np

from .model import Instance, serve
from .policies import (  # the *_kernel names are not called here; perfbench/spans.py traces them
    edf_kernel,
    edf_key,
    expected_costs,
    llf_kernel,
    llf_key,
    lllp_kernel,
    valley_filling_policy,
    whittle_kernel,
    whittle_key,
)
from .whittle import IndexTable, compute_index_table

__all__ = [
    "ComparisonReport",
    "default_horizon",
    "stack_kernel",
    "monte_carlo",
]

POLICY_NAMES = ("whittle", "whittle+lllp", "edf", "llf", "valley")

_BLOCK = 64  # slots of uniforms held per seed and stream
# charger-slots (summed over policies) a process runs at least: on a 2-core host
# a second process then saves about the 25 ms it costs to import and start
SHARD_MIN_WORK = 600_000


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
        cum[-1] = np.inf  # a uniform never passes the last type
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
    cum0 = np.cumsum(instance.cost.stationary())
    cums = [np.cumsum(instance.cost.matrix_for(tau), axis=1) for tau in range(nt)]
    for cdf in (cum0, *cums):  # the CDFs are nondecreasing: inf in place of a clamp
        cdf[..., -1] = np.inf
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
                j = np.searchsorted(cum0, cost_u[:, r], side="right")
            else:
                j = (cost_u[:, r, None] > cums[(slot - 1) % nt][j]).sum(axis=1)
            cum, tt, bb = types[slot % nt]
            at = np.flatnonzero(coin[r] & (t_arr <= 1))  # where an EV arrives
            kind = np.searchsorted(cum, u[r].take(at), side="right")
            arrival = np.zeros((s, n), dtype=np.int64)
            arrival.flat[at] = bb[kind]
            yield t_arr, j, arrival
            t_arr = np.maximum(t_arr - 1, 0)
            t_arr.flat[at] = tt[kind]


def stack_kernel(runs, instance: Instance, table=None):
    """The policies ``runs``, in POLICY_NAMES order, as one batch kernel.

    ``kern(t, b, j, tau)`` takes (S, N) lead times, (P, S, N) demands (one
    slice per policy), (S,) cost levels and the period, and returns the
    (P, S, N) activation and the (P, S) rows the LLLP interchange changed.
    The ranking policies select from one table of packed keys, built once by
    their key rules on every (period, cost level, state id T * (b_max + 1) + B):
    ``select_by_key``'s (key, -B) packing times N, ineligible states above every
    eligible key.  A slot gathers the keys, adds the charger ids and takes one
    partition for all of them; "whittle+lllp" is the Whittle choice refined by
    ``lllp_kernel`` (the one place the two are composed), and valley plans
    row by row.  Whittle policies need the index table.
    """
    if list(runs) != sorted(runs, key=POLICY_NAMES.index):  # .index refuses unknown names
        raise ValueError(f"policies {runs!r} are not in POLICY_NAMES order")
    if table is None and any(p.startswith("whittle") for p in runs):
        raise ValueError("whittle policies need an index table")
    ranked = len(runs) - ("valley" in runs)
    lllp = runs.index("whittle+lllp") if "whittle+lllp" in runs else None
    exp_cost = expected_costs(instance) if ranked < len(runs) else None
    n, m, k, nt = instance.n_chargers, instance.capacity, instance.cost.n_levels, instance.n_periods
    bw = instance.b_max + 1
    t_grid, b_grid = np.divmod(np.arange((instance.t_max + 1) * bw), bw)  # (T, B) by state id
    key, eligible = np.zeros((2, ranked, nt, k, t_grid.size), dtype=np.int64)  # eligible: 0 or 1
    for p, name in enumerate(runs[:ranked]):  # whittle_key takes every period and level at once
        key[p], eligible[p] = (
            whittle_key(t_grid, b_grid, np.arange(k), np.arange(nt)[:, None, None], table)
            if name.startswith("whittle")
            else (edf_key if name == "edf" else llf_key)(t_grid, b_grid))
    lo = int(key.min(initial=0))
    limit = (int(key.max(initial=0)) - lo + 1) * bw * n  # every eligible packed key is below
    if limit + n - 1 > np.iinfo(np.int64).max:
        raise ValueError("the packed selection key does not fit in int64")
    packed = np.where(eligible, ((key - lo) * bw + (bw - 1 - b_grid)) * n, limit).ravel()
    base = np.arange(ranked)[:, None] * (nt * k)
    ids = np.arange(n)
    cap = limit - 1 if m else -1  # the threshold when m = 0 or m >= n

    def kern(t, b, j, tau):
        action = np.empty(b.shape, dtype=bool)
        swapped = np.zeros(b.shape[:2], dtype=bool)
        if ranked:  # one gather, the charger ids and one partition for every ranking policy
            at = (base + (tau % nt * k + j)) * t_grid.size  # (ranked, S) row starts
            key = packed.take(at[..., None] + t * bw + b[:ranked])
            key += ids
            threshold = cap
            if 0 < m < n:  # capped for rows with fewer than m eligible chargers
                threshold = np.minimum(np.partition(key, m - 1, axis=2)[..., m - 1 : m], cap)
            np.less_equal(key, threshold, out=action[:ranked])
        if lllp is not None:
            refined = lllp_kernel(t, b[lllp], action[lllp])
            swapped[lllp] = np.any(refined != action[lllp], axis=1)
            action[lllp] = refined
        if ranked < len(runs):
            action[-1] = [
                valley_filling_policy(t[s], b[-1, s], int(j[s]), tau, instance, exp_cost)[0]
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
) -> dict[str, np.ndarray]:
    """Every policy's episodes against one world, from one time loop over a
    (P, S, N) demand array (see the module docstring): ``{metric: (P, S)
    array}``, a row per entry of ``policies`` (a policy listed twice runs once)."""
    runs = sorted(set(policies), key=POLICY_NAMES.index)
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
        action, swapped = kern(t_arr, b_arr, j, t % nt)
        active = action @ count
        if active.max() > m:
            first = min((p for p, a in zip(runs, active.max(axis=1)) if a > m), key=policies.index)
            raise RuntimeError(f"policy {first!r} violated the capacity limit")

        eff, due, b_arr = serve(t_arr, b_arr, action)
        served = eff @ count
        paid = disc * served
        revenue += paid
        energy_cost += paid * cvals[j]
        penalty += disc * ftab[due].sum(axis=2)
        delivered += served
        unserved += due @ count
        activations += active
        interchanges += swapped

        b_arr += new  # an EV takes only a charger whose next demand is 0 (t <= 1)
        arrived += new
        disc *= beta

    arrived = np.broadcast_to(arrived.sum(axis=1), shape)
    metrics = {
        "discounted_reward": revenue - energy_cost - penalty,
        "revenue": revenue,
        "energy_cost": energy_cost,
        "penalty": penalty,
        "delivered_units": delivered,
        "arrived_units": arrived,
        "unserved_units": unserved,
        "completion_fraction": 1.0 - unserved / np.maximum(arrived, 1),  # unserved <= arrived
        "activations_per_slot": activations / horizon,
        "interchanges": interchanges,
    }
    rows = [runs.index(p) for p in policies]
    return {k: v[rows] for k, v in metrics.items()}


def _shard_count(n_seeds: int, work: int) -> int:
    """One process per core this one may use (``taskset`` limits them), each
    with a seed and SHARD_MIN_WORK of the ``work`` charger-slots or more; one
    without ``fork``, and beside other threads, which a forked child lacks."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not forks or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_seeds, work // SHARD_MIN_WORK))


def _run_shards(instance: Instance, policies: tuple, seeds, horizon: int, table, cuts) -> dict:
    """``_run_batch`` on the ranges that ``cuts`` splits ``seeds`` into, the first
    here and each other in a forked worker, joined in seed order.  After a shard
    fails, a serial run raises the error that comes first in slot order; a worker
    that dies is a BrokenProcessPool (a RuntimeError)."""
    if not cuts:
        return _run_batch(instance, policies, seeds, horizon, table)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    shards = [seeds[a:b] for a, b in zip([0, *cuts], [*cuts, len(seeds)])]
    try:
        with ProcessPoolExecutor(len(cuts), mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_run_batch, instance, policies, part, horizon, table)
                       for part in shards[1:]]
            parts = [_run_batch(instance, policies, shards[0], horizon, table)]
            parts += [f.result() for f in futures]
    except BrokenProcessPool:
        raise
    except Exception:  # a later shard may fail at an earlier slot than the first failing shard
        _run_batch(instance, policies, seeds, horizon, table)
        raise
    return {k: np.concatenate([part[k] for part in parts], axis=1) for k in parts[0]}


_PI = Decimal("3.14159265358979323846264338327950288419716939937510")
_Z975 = Decimal("1.95996398454005423552459443052055152795555")  # the normal 0.975 quantile
_TOL = Decimal("1e-36")  # series and Newton steps below this are dropped, at 40 digits


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x for 0 <= x < 2, from the Taylor series of exp(ix)."""
    sums, term, n = [Decimal(0)] * 4, Decimal(1), 0
    while term > _TOL:
        sums[n % 4] += term
        n += 1
        term = term * x / n
    return sums[0] - sums[2], sums[1] - sums[3]


@cache
def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` degrees of freedom,
    rounded to the nearest double (A&S: Abramowitz & Stegun, Handbook 26.7).

    With theta = atan(t / sqrt(df)), P(|T| <= t) is a finite sum in the sine
    and cosine of theta (A&S 26.7.3 for odd df, 26.7.4 for even df), and its
    derivative in theta is c cos(theta)^(df - 1).  Newton's method solves
    P(|T| <= t) = 0.95 for theta in ``decimal`` at 40 digits, from the normal
    quantile, which lies below the root; P is concave in theta, so the
    iterates rise to the root.  Above df = 10^4 the A&S 26.7.5 expansion in
    1/df to 1/df^4 is used; its truncation error there is below 1e-19.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        if df > 10_000:
            z = _Z975
            g = [z, (z**3 + z) / 4, (5 * z**5 + 16 * z**3 + 3 * z) / 96,
                 (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
                 (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160]
            return float(sum(gk / Decimal(df) ** k for k, gk in enumerate(g)))
        odd = df % 2
        c = 2 / _PI if odd else Decimal(1)
        for j in range(3 - odd, df, 2):
            c = c * j / (j - 1)
        theta, step = Decimal(math.atan(float(_Z975) / math.sqrt(df))), Decimal(1)
        while step > _TOL:
            cos, sin = _cos_sin(theta)
            term = cos if odd else Decimal(1)
            total = term if df > 1 else Decimal(0)
            for j in range(2 + odd, df - 1, 2):
                term = term * cos * cos * (j - 1) / j
                total += term
            p = 2 / _PI * (theta + sin * total) if odd else sin * total
            step = (Decimal("0.95") - p) / (c * cos ** (df - 1))
            theta += step
        cos, sin = _cos_sin(theta)
        return float(Decimal(df).sqrt() * sin / cos)


def _mean_ci(x: np.ndarray) -> tuple[float, float]:
    """Mean and the half-width of its two-sided 95 % Student-t interval: the
    quantile ``t_quantile_975(n - 1)``, the nearest double to the exact one
    (checked to 1 ulp against 40-digit roots), times the sample standard
    deviation over sqrt(n), in float64."""
    half = 0.0
    if x.size > 1:
        half = float(t_quantile_975(x.size - 1) * x.std(ddof=1) / np.sqrt(x.size))
    return float(x.mean()), half


@dataclass(eq=False)  # == on a dict of arrays would raise; reports compare by identity
class ComparisonReport:
    """Per-episode metrics over a common seed set, plus paired stats:
    ``metrics[name][r, i]`` is ``policies[r]`` on ``seeds[i]``."""

    policies: list[str]
    seeds: list[int]
    horizon: int
    metrics: dict[str, np.ndarray]
    baseline: str | None = None

    def rewards(self, policy: str) -> np.ndarray:
        return self.metrics["discounted_reward"][self.policies.index(policy)]

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
        cols = [v.tolist() for v in self.metrics.values()]  # str() of a float is its repr
        lines = [",".join(["policy", "seed", "horizon", *self.metrics])]
        lines += [",".join(map(str, [p, sd, self.horizon, *(c[r][i] for c in cols)]))
                  for r, p in enumerate(self.policies) for i, sd in enumerate(self.seeds)]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path) -> None:
        import json

        with open(path, "w") as fh:
            fh.write(json.dumps(self.summary(), indent=1))


def monte_carlo(
    instance: Instance,
    policies,
    seeds,
    horizon: int | None = None,
    baseline: str | None = None,
    truncation_tol: float = 1e-3,
    table: IndexTable | None = None,
) -> ComparisonReport:
    """Run every policy over the same seeds against one world; ``table``, the
    instance's index table, is built when None and a Whittle policy runs."""
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
    if table is None and any(p.startswith("whittle") for p in policies):
        table = compute_index_table(instance)
    work = len(seeds) * horizon * instance.n_chargers * len(set(policies))  # charger-slots
    shards = _shard_count(len(seeds), work)
    cuts = [len(seeds) * i // shards for i in range(1, shards)]
    metrics = _run_shards(instance, tuple(policies), seeds, horizon, table, cuts)
    return ComparisonReport(policies, seeds, horizon, metrics, baseline)
