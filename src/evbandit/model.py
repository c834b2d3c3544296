"""Core model for deadline-constrained EV charging under a shared capacity limit.

A station has N chargers and can energize at most M of them per slot.  Each
occupied charger holds one EV described by a lead time T (slots until
departure, counting the current one) and a remaining demand B (slots of
charging still owed).  Electricity cost follows a finite Markov chain, and a
global period index cycles through N_tau slots to capture time-of-day effects.
Unmet demand at departure is charged through an increasing convex penalty.

The per-charger law (``serve`` and its table ``charger_law``) is written once,
here; value iteration, the occupancy LP, the joint DP and the simulator all
read it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
import numpy as np

__all__ = [
    "PenaltyFunction",
    "CostChain",
    "ArrivalModel",
    "Instance",
    "instance_sha256",
    "ChargerLaw",
    "serve",
    "charger_law",
    "extended_moves",
]


@dataclass(frozen=True)
class PenaltyFunction:
    """Terminal penalty F on unmet demand, given as a table F(0..B_max).

    Must satisfy F(0) = 0, be nondecreasing and convex (nondecreasing
    increments).  Stored as a plain table so both closed-form expressions and
    tabulated penalties share one code path.
    """

    table: np.ndarray

    def __post_init__(self):
        tab = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", tab)
        if tab.ndim != 1 or tab.size < 1:
            raise ValueError("penalty table must be a non-empty 1-D array")
        if tab[0] != 0.0:
            raise ValueError("penalty must satisfy F(0) = 0")
        inc = np.diff(tab)
        if tab.size > 1 and (np.any(inc < -1e-12) or np.any(np.diff(inc) < -1e-12)):
            raise ValueError("penalty must be nondecreasing and convex")

    @classmethod
    def quadratic(cls, kappa: float, b_max: int) -> "PenaltyFunction":
        b = np.arange(b_max + 1)
        return cls(kappa * b.astype(float) ** 2)

    def __call__(self, b) -> np.ndarray | float:
        return self.table[b]

    def delta(self, b) -> np.ndarray | float:
        """Marginal penalty F(b) - F(b-1) for b >= 1."""
        return self.table[b] - self.table[np.asarray(b) - 1]

    @property
    def max_increment(self) -> float:
        if self.table.size < 2:
            return 0.0
        return float(np.max(np.diff(self.table)))


@dataclass(frozen=True)
class CostChain:
    """Finite Markov chain of normalized electricity cost levels.

    ``values`` holds the K cost levels (fractions of the retail price, so a
    level of 1 means charging at that level breaks even).  Transitions ``P``
    are a stack of row-stochastic matrices of shape (n, K, K): one matrix
    applied every slot (n = 1; a (K, K) argument is taken as that stack), or
    one per period of the cycle (n = N_tau), where the matrix of the
    *current* period governs the step out of it.
    """

    values: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("cost values must be a non-empty 1-D array")
        P = np.asarray(self.P, dtype=float)
        if P.ndim == 2:
            P = P[None]
        object.__setattr__(self, "P", P)
        if P.ndim != 3 or P.shape[0] < 1:
            raise ValueError("P must be one (K, K) matrix or a stack of shape (n, K, K)")
        for m in P:
            _check_stochastic(m, (vals.size, vals.size))

    @property
    def n_levels(self) -> int:
        return self.values.size

    def matrix_for(self, tau) -> np.ndarray:
        return self.P[tau % self.P.shape[0]]

    def stationary(self) -> np.ndarray:
        """Stationary distribution of the per-slot chain.

        This is the stationary law of the product chain over one full cycle
        of the matrices, averaged over the cycle offset.
        """
        prod = np.eye(self.n_levels)
        for m in self.P:
            prod = prod @ m
        pi0 = _stationary_of(prod)
        dists = [pi0]
        for m in self.P[:-1]:
            dists.append(dists[-1] @ m)
        return np.mean(dists, axis=0)

    @classmethod
    def constant(cls, value: float) -> "CostChain":
        return cls(values=np.array([value]), P=np.eye(1))


def _check_stochastic(P: np.ndarray, shape) -> None:
    if P.shape != shape:
        raise ValueError(f"transition matrix must have shape {shape}")
    if np.any(P < -1e-12):
        raise ValueError("transition matrix has negative entries")
    if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must sum to 1")


def _stationary_of(P: np.ndarray) -> np.ndarray:
    k = P.shape[0]
    A = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


@dataclass(frozen=True)
class ArrivalModel:
    """Arrival process at a vacated charger, possibly periodic.

    When a charger frees up in a slot of period tau, a new EV arrives with
    probability rho[tau]; its (T, B) type is drawn from pmf[tau], an array of
    shape (T_max + 1, B_max + 1) supported on 1 <= T <= T_max,
    0 <= B <= min(T, B_max).  Otherwise the charger stays empty for the slot.
    """

    n_periods: int
    rho: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim == 2:
            pmf = np.broadcast_to(pmf, (self.n_periods,) + pmf.shape).copy()
        if rho.size == 1:
            rho = np.full(self.n_periods, rho[0])
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "pmf", pmf)
        if self.n_periods < 1:
            raise ValueError("n_periods must be >= 1")
        if rho.shape != (self.n_periods,) or np.any(rho < 0) or np.any(rho > 1):
            raise ValueError("rho must be probabilities, one per period")
        if pmf.shape[0] != self.n_periods or pmf.ndim != 3:
            raise ValueError("pmf must have shape (n_periods, T_max+1, B_max+1)")
        if np.any(pmf < 0) or not np.allclose(pmf.sum(axis=(1, 2)), 1.0, atol=1e-9):
            raise ValueError("each per-period pmf must sum to 1")
        t_max = pmf.shape[1] - 1
        for p in pmf:
            if p[0, :].sum() > 1e-12:
                raise ValueError("arrivals must have T >= 1")
            for t in range(1, t_max + 1):
                if p[t, t + 1 :].sum() > 1e-12:
                    raise ValueError("arrivals must satisfy B <= T")

    @classmethod
    def uniform_feasible(
        cls, t_max: int, b_max: int, rho, n_periods: int = 1
    ) -> "ArrivalModel":
        """Uniform over {(T, B): 1 <= T <= t_max, 1 <= B <= min(T, b_max)}."""
        pmf = np.zeros((t_max + 1, b_max + 1))
        for t in range(1, t_max + 1):
            pmf[t, 1 : min(t, b_max) + 1] = 1.0
        pmf /= pmf.sum()
        return cls(n_periods=n_periods, rho=rho, pmf=pmf)

    def rho_for(self, tau: int) -> float:
        return float(self.rho[tau % self.n_periods])

    def pmf_for(self, tau: int) -> np.ndarray:
        return self.pmf[tau % self.n_periods]


@dataclass(frozen=True)
class Instance:
    """A complete problem instance.

    Attributes:
        n_chargers: number of chargers N >= 1.
        capacity: per-slot activation budget M (0 <= M <= N).
        discount: per-slot discount factor beta in (0, 1).
        t_max: largest lead time an arriving EV can have.
        b_max: largest demand an arriving EV can have.
        penalty: terminal penalty on unmet demand.
        arrivals: arrival process at vacated chargers.
        cost: electricity cost chain.
    """

    n_chargers: int
    capacity: int
    discount: float
    t_max: int
    b_max: int
    penalty: PenaltyFunction
    arrivals: ArrivalModel
    cost: CostChain

    def __post_init__(self):
        if self.n_chargers < 1:
            raise ValueError("need n_chargers >= 1")
        if not (0 <= self.capacity <= self.n_chargers):
            raise ValueError("need 0 <= capacity <= n_chargers")
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        if self.t_max < 1 or self.b_max < 1:
            raise ValueError("t_max and b_max must be >= 1")
        if self.b_max > self.t_max:
            raise ValueError("b_max cannot exceed t_max (arrivals need B <= T)")
        if self.penalty.table.size < self.b_max + 1:
            raise ValueError("penalty table must cover 0..b_max")
        if self.arrivals.pmf.shape[1:] != (self.t_max + 1, self.b_max + 1):
            raise ValueError("arrival pmf shape must match (t_max+1, b_max+1)")
        if self.cost.P.shape[0] not in (1, self.n_periods):
            raise ValueError("per-period cost matrices must match n_periods")

    @property
    def n_periods(self) -> int:
        return self.arrivals.n_periods

    @property
    def scale(self) -> float:
        """(1 + max |c| + F(b_max)) / (1 - beta), a bound on one charger's
        discounted reward or penalty."""
        top = 1.0 + float(np.abs(self.cost.values).max()) + float(self.penalty(self.b_max))
        return top / (1.0 - self.discount)


def instance_sha256(instance: Instance, h=None) -> str:
    """sha256 of each field's name and value's dtype, shape and bytes, nested ones too."""
    h = hashlib.sha256() if h is None else h
    for f in fields(instance):
        value = getattr(instance, f.name)
        h.update(f.name.encode())
        if is_dataclass(value):
            instance_sha256(value, h)
        else:
            a = np.asarray(value)
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the per-charger law, shared by value iteration, the occupancy LP, the joint
# DP and the simulator


def serve(t, b, a):
    """One slot of a charger in state (t, b) under action a, on arrays of any shape.

    Returns (eff, due, b_next): the service that takes effect (only an
    occupied charger with demand left draws power), the demand still owed
    after it in the final slot (t == 1), which pays F(due), and the next B of
    a charger that stays (t > 1; its T falls by one, whatever the action).  A
    charger in its final slot, or an empty one, maps to (0, 0); an arrival may
    replace it.  Serving earns 1 - c.
    """
    eff = a & (b > 0) & (t >= 1)
    b_after = b - eff
    return eff, b_after * (t == 1), b_after * (t > 1)


@dataclass(frozen=True)
class ChargerLaw:
    """``serve`` tabulated over the (T, B) grid of ``IndexTable.values``:
    state i is (T, B) = divmod(i, b_max + 1), the empty charger 0.

    ``T[i]``, ``B[i]``: the state at grid index i.  ``next[a, i]``: the next
    slot's state of a charger in state i that stays (T >= 2) under action a;
    0 where it departs or stays empty (T <= 1), and then, whatever its state
    and action, ``arrival[tau]`` refills it: empty with probability
    1 - rho(tau), state i2 with rho(tau) pmf(tau)(T[i2], B[i2]).  No charger
    enters a cell T = 0, B >= 1, which ``serve`` treats as empty.
    ``reward[a, i, j]``: one-slot reward at cost level j.
    """

    T: np.ndarray
    B: np.ndarray
    next: np.ndarray
    arrival: np.ndarray
    reward: np.ndarray


def charger_law(instance: Instance) -> ChargerLaw:
    """Tabulate ``serve`` and the arrival law over the charger-state grid."""
    inst, width = instance, instance.b_max + 1
    rho = inst.arrivals.rho[:, None]
    t, b = np.divmod(np.arange((inst.t_max + 1) * width), width)
    eff, due, b_next = serve(t, b, np.array([[False], [True]]))
    nxt = np.maximum(t - 1, 0) * width + b_next  # 0 where the charger departs
    arrival = rho * inst.arrivals.pmf.reshape(rho.size, -1)  # exact: pmf(tau)(0, 0) = 0
    arrival[:, 0] += 1.0 - rho[:, 0]
    reward = np.where(eff[..., None], 1.0 - inst.cost.values, 0.0) - inst.penalty.table[due, None]
    return ChargerLaw(t, b, nxt, arrival, reward)


def extended_moves(instance: Instance, law: ChargerLaw):
    """``law`` lifted onto the extended states s = (cs K + j) N_tau + tau, the
    ravel index of (T, B, j, tau), as the entries of one slot's step: ``stay``
    = (a, s, s2, P_tau(j, j2)) for a charger with T >= 2 and each action a, and
    ``refill`` = (v, s2, arrival_tau(cs2) P_tau(j, j2)) for the ``vacant``
    states (T <= 1) of the price state v = j N_tau + tau = s mod K N_tau,
    whatever their action.  Value iteration sweeps them; ``bound``'s
    certificate reads its LP's A_eq off them, -beta times each entry in row
    s2 of the column x(s, a) or z(v), and never builds that matrix."""
    m, nt = instance.cost.n_levels * instance.n_periods, instance.n_periods
    P = instance.cost.matrix_for(np.arange(nt))
    tau, j, j2 = np.nonzero(P)
    p = P[tau, j, j2]
    now, then = j * nt + tau, j2 * nt + (tau + 1) % nt  # the price-state parts of s and s2
    a, cs = np.nonzero(law.next)
    stay = (np.repeat(a, p.size), np.add.outer(cs * m, now).ravel(),
            np.add.outer(law.next[a, cs] * m, then).ravel(), np.tile(p, a.size))
    refill = law.arrival[tau] * p[:, None]  # each cost move times its period's arrival row
    e, cs2 = np.nonzero(refill)
    vacant = np.flatnonzero(np.repeat(law.T <= 1, m))
    return stay, (now[e], cs2 * m + then[e], refill[e, cs2]), vacant
