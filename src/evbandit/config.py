"""JSON run configuration with strict schema checking, the one reader of a
run's settings (``load_run_config`` takes the command line's flags as keys).

Unknown keys are rejected everywhere, and a cost block takes only its mode's,
so a typo fails loudly instead of silently falling back to a default.
Defaults mirror the constant-cost benchmark setup: N=10, M=5, beta=0.999,
T_max=12, B_max=9, quadratic penalty 0.2 B^2, uniform feasible arrivals at
rho=0.7, constant cost 0.5; a fitted chain's are ``fit_cost_chain``'s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bound, costfit
from .model import ArrivalModel, CostChain, Instance, PenaltyFunction
from .sim import _BLOCK, POLICY_NAMES, default_horizon

__all__ = [
    "ConfigError", "RunConfig", "load_run_config", "instance_from_dict", "check_size",
    "MEMORY_BUDGET", "LP_ENTRY_BYTES", "WORK_BUDGET", "INDEX_BUDGET", "MAGNITUDE_BUDGET",
]

# bytes the largest arrays of one command may take; check_size refuses more
MEMORY_BUDGET = 1 << 30
# bytes bound --verify-oracle's certificate holds at its peak per nonzero of A_eq, read off the
# law: 46 and 59 by tracemalloc on the long-stay and 24-period configs
LP_ENTRY_BYTES = 96
# charger-slots (seeds x horizon x chargers) one policy may simulate, about
# 140 times full-size fig3; check_size refuses more
WORK_BUDGET = 1 << 32
# index work, states x (1 + states) over the (T, B, cost level, period) grid:
# the states times the breakpoint bound of a g_1.  The bound is loose: on a
# 2-core host a table of 12,960 states (1.7e8 units) took 0.55 s, and the
# budget is 12.8 times those units; check_size refuses more
INDEX_BUDGET = 1 << 31
# largest (1 + max |c| + F(b_max)) / (1 - beta), a bound on one charger's
# discounted reward and penalty; with N and the seeds each at most WORK_BUDGET,
# the squared deviations that the confidence intervals sum stay below 1e230
MAGNITUDE_BUDGET = 1e100


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
# the keys each cost mode takes; levels also take the retail price fitcost writes, unused
_COST_KEYS = {
    "constant": {"constant"},
    "levels": {"levels", "matrix", "matrices", "retail_price"},
    "file": {"file", *costfit.FIT_OPTIONS},
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
    modes = [mode for mode in _COST_KEYS if mode in block] if isinstance(block, dict) else []
    if len(modes) != 1:
        raise ConfigError("cost needs exactly one of 'constant', 'levels', or 'file'")
    _check_keys(block, _COST_KEYS[modes[0]], f"cost ('{modes[0]}' mode)")
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
        if not isinstance(block["file"], str):
            raise ConfigError("cost.file must be a path")
        path = Path(block["file"])
        if not path.is_absolute():
            path = base_dir / path
        # a fit option left out or null takes fit_cost_chain's default
        options = {name: _number(block[name], f"cost.{name}", kind)
                   for name, kind in costfit.FIT_OPTIONS.items() if block.get(name) is not None}
        if options.get("n_periods", n_periods) != n_periods:
            raise ConfigError("cost.n_periods must equal arrivals.n_periods")
        return costfit.fit_cost_chain(costfit.PriceTrace.from_csv(path), **options).chain
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
    cost = _cost_from(block.get("cost", {"constant": 0.5}), base_dir, n_periods)
    check_size(t_max, b_max, n_periods, n_levels=cost.n_levels)
    penalty = _penalty_from(block.get("penalty", {"quadratic": 0.2}), b_max)
    arrivals = _arrivals_from(arrivals, t_max, b_max, n_periods)
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
    check_size(t_max, b_max, n_periods, lp=bound.lp_entries(inst), n_levels=inst.cost.n_levels)
    if not inst.scale <= MAGNITUDE_BUDGET:
        raise ConfigError(f"magnitudes too large: (1 + max |c| + F(b_max)) / (1 - beta) = "
                          f"{inst.scale:.3g}, over {MAGNITUDE_BUDGET:.0e}")
    return inst


def check_size(t_max: int, b_max: int, n_periods: int, n_chargers: int = 0,
               n_seeds: int = 0, horizon: int = 0, lp: int = 0, n_levels: int = 0) -> None:
    """Refuse, before they are built, arrays of more than MEMORY_BUDGET bytes,
    simulations of more than WORK_BUDGET charger-slots per policy, and index
    tables of more than INDEX_BUDGET work.

    The estimate counts the bytes of the largest arrays a command builds:
    LP_ENTRY_BYTES for each of the ``lp`` nonzeros of the occupancy LP that
    ``bound --verify-oracle`` certifies (``bound.lp_entries``), and as float64 entries
    the arrival pmf, n_periods (t_max + 1) (b_max + 1), the bound's
    3 (t_max + 1) + 2 dense (n_levels n_periods)^2 price-state arrays at the
    certificate's peak (by tracemalloc), and per simulated seed the block of
    uniforms ``sim.world_slots`` holds, a cost uniform and two per charger
    for each of its _BLOCK slots.  No array grows with the horizon; the work
    does.  The index work is the number of index states, t_max b_max
    n_levels n_periods, times the bound 1 + t_max b_max n_levels n_periods on
    a g_1's breakpoints.
    """
    floats = n_periods * (t_max + 1) * (b_max + 1) + n_seeds * _BLOCK * (1 + 2 * n_chargers)
    floats += (3 * (t_max + 1) + 2) * (n_levels * n_periods) ** 2
    size = 8 * floats + LP_ENTRY_BYTES * lp
    work = n_seeds * horizon * n_chargers
    states = t_max * b_max * n_levels * n_periods
    index = states * (1 + states)
    if size > MEMORY_BUDGET or work > WORK_BUDGET or index > INDEX_BUDGET:
        sizes = f"t_max={t_max}, b_max={b_max}, n_periods={n_periods}"
        if lp:
            sizes += f", occupancy LP nonzeros={lp:,}"
        if n_levels:
            sizes += f", cost levels={n_levels}"
        if n_seeds:
            sizes += f", n_chargers={n_chargers}, seeds={n_seeds}, horizon={horizon}"
        if size > MEMORY_BUDGET:
            why = f"its arrays would need about {size >> 20:,} MiB"
            budget = f"{MEMORY_BUDGET >> 20:,} MiB"
        elif work > WORK_BUDGET:
            why = f"it would simulate {work:,} charger-slots per policy"
            budget = f"{WORK_BUDGET:,} charger-slot"
        else:
            why = f"its index table would take up to {index:,} units (states x breakpoint bound)"
            budget = f"{INDEX_BUDGET:,}-unit index"
        raise ConfigError(f"run too large: {why}, over the {budget} budget ({sizes})")


def load_run_config(path, **overrides) -> RunConfig:
    """Read and check the run config at ``path``.  Each of ``overrides`` (the
    command line's ``seeds``, ``baseline`` and ``verify_oracle``) that is not
    None replaces the file's key before the one validation pass."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    _check_keys(doc, _RUN_KEYS, "config")
    doc.update({key: value for key, value in overrides.items() if value is not None})
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
    seeds = doc.get("seeds", 20)
    n_seeds = seeds if type(seeds) is int else len(seeds) if isinstance(seeds, list) else 0
    check_size(inst.t_max, inst.b_max, inst.n_periods, inst.n_chargers,
               n_seeds, horizon or default_horizon(inst, tol))
    if type(seeds) is int:
        seeds = list(range(seeds))
    # bools are not ints here
    if not isinstance(seeds, list) or not all(type(s) is int and s >= 0 for s in seeds):
        raise ConfigError("seeds must be a count or a list of non-negative ints")
    if len(seeds) < 2:
        raise ConfigError("seeds: need at least 2 for a paired comparison")
    if len(set(seeds)) < len(seeds):
        raise ConfigError("seeds must be distinct")
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
