"""Single-charger MDP on the extended state space (T, B, cost level, period).

Lifts the shared per-charger law onto the extended states: two sparse
transition matrices from ``model.extended_moves``, and reward vectors.  Only
the tests build it, for ``whittle.subsidy_value_iteration`` and for the
Kronecker-form occupancy LP that checks ``bound.build_occupancy_lp``; the
index, the dual bound and the simulator work on lead-time grids, and the
bound's LP on ``extended_moves`` itself, instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import Instance, charger_law, extended_moves

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class ArmMDP:
    """Extended-state MDP of one charger.

    State id layout: ``(cs * K + j) * N_tau + tau`` where ``cs`` is
    ``Instance.charger_index`` (the empty charger first, then (T, B)
    row-major), ``j`` the cost level and ``tau`` the period.
    """

    instance: Instance
    R0: np.ndarray
    R1: np.ndarray
    P0: sp.csr_matrix
    P1: sp.csr_matrix

    @property
    def n_states(self) -> int:
        return self.R0.size

    def initial_distribution(self) -> np.ndarray:
        """Empty charger, period 0, cost level at its stationary law."""
        mu = np.zeros(self.n_states)
        nt = self.instance.n_periods
        mu[: self.instance.cost.n_levels * nt : nt] = self.instance.cost.stationary()
        return mu

    def reward_sup(self) -> float:
        return float(max(np.abs(self.R0).max(), np.abs(self.R1).max()))


def value_iteration_sweeps(r_sup: float, beta: float, tol: float) -> int:
    """Sweeps that bring value iteration from a cold start within ``tol``
    (sup norm) of the fixed point, for rewards bounded by ``r_sup``."""
    if r_sup == 0:
        return 1
    return max(1, int(np.ceil(np.log(tol * (1.0 - beta) / r_sup) / np.log(beta))))


def build_arm_mdp(instance: Instance) -> ArmMDP:
    import scipy.sparse as sp

    inst = instance
    law = charger_law(inst)
    m = inst.cost.n_levels * inst.n_periods
    n = law.T.size * m
    (a, s, s2, p), (v, r2, q), vacant = extended_moves(inst, law)
    # every vacant state takes the refill row of its price state
    refill = (sp.csr_matrix((np.ones(vacant.size), (vacant, vacant % m)), shape=(n, m))
              @ sp.csr_matrix((q, (v, r2)), shape=(m, n)))
    P0, P1 = (sp.csr_matrix((p[a == act], (s[a == act], s2[a == act])), shape=(n, n)) + refill
              for act in (0, 1))
    R0, R1 = (np.repeat(law.reward[act].ravel(), inst.n_periods) for act in (0, 1))
    return ArmMDP(inst, R0, R1, P0, P1)
