"""JSON run configuration with strict schema checking.

Unknown keys are rejected everywhere so a typo fails loudly instead of
silently falling back to a default.  Defaults mirror the constant-cost
benchmark setup: N=10, M=5, beta=0.999, T_max=12, B_max=9, quadratic
penalty 0.2 B^2, uniform feasible arrivals at rho=0.7, constant cost 0.5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ArrivalModel, CostChain, Instance, PenaltyFunction, charger_law
from .sim import _BLOCK, POLICY_NAMES, default_horizon

__all__ = [
    "ConfigError", "RunConfig", "load_run_config", "load_instance", "instance_from_dict",
    "check_seeds", "check_size", "arm_entries", "MEMORY_BUDGET", "WORK_BUDGET",
]

# bytes the largest arrays of one command may take; check_size refuses more
MEMORY_BUDGET = 1 << 30
# charger-slots (seeds x horizon x chargers) one policy may simulate, about
# 140 times full-size fig3; check_size refuses more
WORK_BUDGET = 1 << 32


class ConfigError(ValueError):
    """A malformed or contradictory configuration document."""


@dataclass
class RunConfig:
    instance: Instance
    policies: list
    seeds: list
    horizon: int | None
    baseline: str | None
    truncation_tol: float
    verify_oracle: bool


_INSTANCE_KEYS = {
    "n_chargers",
    "capacity",
    "discount",
    "t_max",
    "b_max",
    "penalty",
    "arrivals",
    "cost",
}
_RUN_KEYS = {
    "instance",
    "policies",
    "seeds",
    "horizon",
    "baseline",
    "truncation_tol",
    "verify_oracle",
}


def _check_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


def _number(value, what: str, kind=float):
    """A finite JSON number as ``kind`` (an int must be integral); a bool,
    string, null, list or object is a ConfigError.  NaN, the infinities and
    ints too large for a float all fail the ``abs(value) <= 1e300`` test."""
    if type(value) not in (int, float) or not abs(value) <= 1e300 or (
        kind is int and value != int(value)
    ):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, not {json.dumps(value)}")
    return kind(value)


def _array(value, what: str) -> np.ndarray:
    """A (nested) list of finite numbers as a float array, or a ConfigError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{what} must hold numbers: {e}") from e
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must hold finite numbers")
    return arr


def _penalty_from(block, b_max: int) -> PenaltyFunction:
    _check_keys(block, {"quadratic", "table"}, "penalty")
    if ("quadratic" in block) == ("table" in block):
        raise ConfigError("penalty needs exactly one of 'quadratic' or 'table'")
    try:
        if "quadratic" in block:
            return PenaltyFunction.quadratic(_number(block["quadratic"], "quadratic"), b_max)
        return PenaltyFunction(_array(block["table"], "table"))
    except ValueError as e:
        raise ConfigError(f"bad penalty: {e}") from e


def _arrivals_from(block: dict, t_max: int, b_max: int, n_periods: int) -> ArrivalModel:
    rho = block.get("rho", 0.7)
    rho = _array(rho, "arrivals.rho") if isinstance(rho, list) else _number(rho, "arrivals.rho")
    # "explicit" takes a pmf, "uniform_feasible" none; without a kind the pmf decides
    kind = block.get("kind", "explicit" if "pmf" in block else "uniform_feasible")
    try:
        if kind == "explicit":
            if "pmf" not in block:
                raise ConfigError("arrivals kind 'explicit' needs a pmf")
            pmf = _array(block["pmf"], "arrivals.pmf")
            return ArrivalModel(n_periods=n_periods, rho=rho, pmf=pmf)
        if kind != "uniform_feasible":
            raise ConfigError(f"unknown arrivals kind {kind!r}")
        if "pmf" in block:
            raise ConfigError("arrivals kind 'uniform_feasible' takes no pmf")
        return ArrivalModel.uniform_feasible(t_max, b_max, rho, n_periods)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"bad arrivals: {e}") from e


def _cost_from(block, base_dir: Path, n_periods: int) -> CostChain:
    _check_keys(
        block,
        {"constant", "levels", "matrix", "matrices", "file", "k", "slot_minutes", "alpha",
         "retail_price", "n_periods"},
        "cost",
    )
    modes = [name for name in ("constant", "levels", "file") if name in block]
    if len(modes) != 1:
        raise ConfigError("cost needs exactly one of 'constant', 'levels', or 'file'")
    try:
        if "constant" in block:
            return CostChain.constant(_number(block["constant"], "cost.constant"))
        if "levels" in block:
            levels = _array(block["levels"], "cost.levels")
            if ("matrix" in block) == ("matrices" in block):
                raise ConfigError("cost with levels needs 'matrix' or per-period 'matrices'")
            if "matrix" in block:
                P = _array(block["matrix"], "cost.matrix")
                if P.ndim != 2:
                    raise ConfigError("cost.matrix must be one K x K matrix")
            else:
                P = _array(block["matrices"], "cost.matrices")
                if P.ndim != 3 or len(P) != n_periods:
                    raise ConfigError("cost.matrices must be a list of K x K matrices, one "
                                      f"per period ({n_periods}, arrivals.n_periods)")
            return CostChain(values=levels, P=P)
        from .costfit import PriceTrace, fit_cost_chain

        if not isinstance(block["file"], str):
            raise ConfigError("cost.file must be a path")
        path = Path(block["file"])
        if not path.is_absolute():
            path = base_dir / path
        retail, fit_periods = block.get("retail_price"), block.get("n_periods")
        if fit_periods is not None and _number(fit_periods, "cost.n_periods", int) != n_periods:
            raise ConfigError("cost.n_periods must equal arrivals.n_periods")
        fit = fit_cost_chain(
            PriceTrace.from_csv(path),
            k=_number(block.get("k", 5), "cost.k", int),
            slot_minutes=_number(block.get("slot_minutes", 60.0), "cost.slot_minutes"),
            alpha=_number(block.get("alpha", 0.5), "cost.alpha"),
            retail_price=None if retail is None else _number(retail, "cost.retail_price"),
            n_periods=None if fit_periods is None else n_periods,
        )
        return fit.chain
    except ConfigError:
        raise
    except (ValueError, OSError) as e:
        raise ConfigError(f"bad cost: {e}") from e


def instance_from_dict(block: dict, base_dir: Path | None = None) -> Instance:
    _check_keys(block, _INSTANCE_KEYS, "instance")
    base_dir = Path(".") if base_dir is None else base_dir
    t_max = _number(block.get("t_max", 12), "t_max", int)
    b_max = _number(block.get("b_max", 9), "b_max", int)
    if t_max < 1 or b_max < 1:
        raise ConfigError("t_max and b_max must be >= 1")
    arrivals = block.get("arrivals", {})
    _check_keys(arrivals, {"rho", "n_periods", "kind", "pmf"}, "arrivals")
    n_periods = _number(arrivals.get("n_periods", 1), "arrivals.n_periods", int)
    check_size(t_max, b_max, n_periods)
    penalty = _penalty_from(block.get("penalty", {"quadratic": 0.2}), b_max)
    arrivals = _arrivals_from(arrivals, t_max, b_max, n_periods)
    cost = _cost_from(block.get("cost", {"constant": 0.5}), base_dir, n_periods)
    try:
        inst = Instance(
            n_chargers=_number(block.get("n_chargers", 10), "n_chargers", int),
            capacity=_number(block.get("capacity", 5), "capacity", int),
            discount=_number(block.get("discount", 0.999), "discount"),
            t_max=t_max,
            b_max=b_max,
            penalty=penalty,
            arrivals=arrivals,
            cost=cost,
        )
    except ValueError as e:
        raise ConfigError(f"bad instance: {e}") from e
    check_size(t_max, b_max, n_periods, arm=arm_entries(inst))
    return inst


def check_size(t_max: int, b_max: int, n_periods: int, n_chargers: int = 0,
               n_seeds: int = 0, horizon: int = 0, arm: int = 0) -> None:
    """Refuse, before they are built, arrays of more than MEMORY_BUDGET bytes,
    and simulations of more than WORK_BUDGET charger-slots per policy.

    The estimate counts the bytes of the largest arrays a command builds.  As
    float64 entries: the dense move table of ``charger_law``, 2 n_periods
    n_cs^2 with n_cs = 1 + t_max (b_max + 1); the arrival pmf, n_periods
    (t_max + 1) (b_max + 1); the ``arm`` nonzeros of the arm MDP's transition
    matrices (``arm_entries``); and per simulated seed the block of uniforms
    ``sim.world_slots`` holds, a cost uniform and two per charger for each of
    its _BLOCK slots.  No array grows with the horizon; the work does.
    """
    n_cs = 1 + t_max * (b_max + 1)
    floats = n_periods * (2 * n_cs**2 + (t_max + 1) * (b_max + 1)) + arm
    size = 8 * (floats + n_seeds * _BLOCK * (1 + 2 * n_chargers))
    work = n_seeds * horizon * n_chargers
    if size > MEMORY_BUDGET or work > WORK_BUDGET:
        sizes = f"t_max={t_max}, b_max={b_max}, n_periods={n_periods}"
        if arm:
            sizes += f", arm MDP nonzeros={arm:,}"
        if n_seeds:
            sizes += f", n_chargers={n_chargers}, seeds={n_seeds}, horizon={horizon}"
        if size > MEMORY_BUDGET:
            why = f"its arrays would need about {size >> 20:,} MiB"
            budget = f"{MEMORY_BUDGET >> 20:,} MiB"
        else:
            why = f"it would simulate {work:,} charger-slots per policy"
            budget = f"{WORK_BUDGET:,} charger-slot"
        raise ConfigError(f"run too large: {why}, over the {budget} budget ({sizes})")


def arm_entries(instance: Instance) -> int:
    """Nonzeros of the two transition matrices of ``arm.build_arm_mdp``: per
    action and period, the kron of the ``charger_law`` move table with that
    period's cost matrix."""
    move = np.count_nonzero(charger_law(instance).move, axis=(0, 2, 3))  # per period
    cost = [np.count_nonzero(instance.cost.matrix_for(tau)) for tau in range(instance.n_periods)]
    return int(move @ cost)


def check_seeds(seeds, instance: Instance, horizon: int | None, truncation_tol: float) -> list:
    """Seed list from a count n (seeds 0..n-1) or an explicit list.

    A paired comparison needs at least two distinct seeds, each a
    non-negative int (bools are not ints here).  Simulating that many seeds
    over ``horizon`` slots (None: the discount-tail cutoff at
    ``truncation_tol``) must pass ``check_size``.
    """
    n_seeds = seeds if type(seeds) is int else len(seeds) if isinstance(seeds, list) else 0
    check_size(instance.t_max, instance.b_max, instance.n_periods, instance.n_chargers,
               n_seeds, horizon or default_horizon(instance, truncation_tol))
    if type(seeds) is int:
        seeds = list(range(seeds))
    if not isinstance(seeds, list) or not all(type(s) is int and s >= 0 for s in seeds):
        raise ConfigError("seeds must be a count or a list of non-negative ints")
    if len(seeds) < 2:
        raise ConfigError("seeds: need at least 2 for a paired comparison")
    if len(set(seeds)) < len(seeds):
        raise ConfigError("seeds must be distinct")
    return list(seeds)


def load_instance(path) -> Instance:
    return load_run_config(path).instance


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    _check_keys(doc, _RUN_KEYS, "config")
    inst = instance_from_dict(doc.get("instance", {}), path.parent)

    policies = doc.get("policies", ["whittle+lllp", "edf", "llf"])
    if not isinstance(policies, list) or not policies or not all(isinstance(p, str) for p in policies):
        raise ConfigError("policies must be a non-empty list of names")
    if len(set(policies)) < len(policies):
        raise ConfigError("policies must be distinct")
    unknown = [p for p in policies if p not in POLICY_NAMES]
    if unknown:
        raise ConfigError(f"unknown policies {unknown}; choose from {list(POLICY_NAMES)}")
    horizon = doc.get("horizon")
    if horizon is not None:
        horizon = _number(horizon, "horizon", int)
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
    baseline = doc.get("baseline")
    if baseline is not None and baseline not in policies:
        raise ConfigError("baseline must be one of the configured policies")
    tol = _number(doc.get("truncation_tol", 1e-3), "truncation_tol")
    if tol <= 0:
        raise ConfigError("truncation_tol must be positive")
    seeds = check_seeds(doc.get("seeds", 20), inst, horizon, tol)
    verify_oracle = doc.get("verify_oracle", False)
    if not isinstance(verify_oracle, bool):
        raise ConfigError("verify_oracle must be true or false")
    return RunConfig(
        instance=inst,
        policies=policies,
        seeds=seeds,
        horizon=horizon,
        baseline=baseline,
        truncation_tol=tol,
        verify_oracle=verify_oracle,
    )
