"""Command-line interface: index tables, simulations, bounds, cost fitting.

Exit codes: 0 success, 2 configuration error, 3 verification failure (an
oracle disagreement, a failed check of the index recursion or of the bound's
LP certificate, or a valley planner's LP solver that gave up).

``index --verify-oracle`` checks every table entry with T >= 1 against the
oracle ``index_by_bisection``; ``bound --verify-oracle`` certifies the dual on the LP.
A flag given replaces its config key (``load_run_config``'s overrides), and a
config's ``"verify_oracle": true`` turns the check on for both commands.
``index`` always builds the index table; ``bound``, and ``simulate`` with a
Whittle policy, reuse the one ``index`` wrote to ``--out`` when it is keyed to
this version and instance (``IndexTable.from_json``), else build it, and say which.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bound import solve_bound
from .config import ConfigError, load_run_config
from .costfit import FIT_OPTIONS, PriceTrace, fit_cost_chain
from .sim import monte_carlo
from .whittle import IndexCheckError, IndexTable, compute_index_table, index_by_bisection

# index --verify-oracle's tolerance is ORACLE_TOL, or ORACLE_REL times the
# instance's scale where that is larger.  The oracle's backward pass sums
# values up to the scale, whose floats lie eps * scale apart, so a bisection
# to adjacent floats pins an index only to within some of those spacings
# (up to 12 eps * scale seen, on quadratic penalties from 1e6 to 1e96);
# 4096 eps keeps every shipped config's tolerance at ORACLE_TOL
ORACLE_TOL = 1e-6
ORACLE_REL = 4096 * np.finfo(float).eps


def oracle_tolerance(instance) -> float:
    return max(ORACLE_TOL, ORACLE_REL * instance.scale)


class VerificationError(RuntimeError):
    pass


def _say(line: str) -> None:
    """Print a line, or after the reader has gone (``| head``) to os.devnull."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _out_dir(arg) -> Path:
    out = Path(arg) if arg else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot write to --out {out}: {e}") from e
    return out


def _saved_table(out: Path, instance) -> IndexTable | None:
    path = out / "index_table.json"
    table = IndexTable.from_json(path, instance)
    _say(f"reused {path}" if table is not None
         else f"building the index table: no {path} for this instance")
    return table


def cmd_index(args) -> int:
    cfg = load_run_config(args.config, verify_oracle=args.verify_oracle)
    inst = cfg.instance
    t0 = time.perf_counter()
    table = compute_index_table(inst)
    dt = time.perf_counter() - t0
    _say(f"index table: {table.values.size} states "
         f"(T<={inst.t_max}, B<={inst.b_max}, K={inst.cost.n_levels}, "
         f"periods={inst.n_periods}) in {dt:.2f}s")
    out = _out_dir(args.out)
    table.to_csv(out / "index_table.csv")
    table.to_json(out / "index_table.json", inst)
    _say(f"wrote {out / 'index_table.csv'}")

    if cfg.verify_oracle:
        try:
            ref = index_by_bisection(inst)
        except ValueError as e:
            raise VerificationError(f"bisection oracle: {e}") from e
        worst, tol = float(np.abs(table.values - ref).max()), oracle_tolerance(inst)
        _say(f"oracle check on {table.values[1:].size} states: max |err| = {worst:.2e}")
        if worst > tol:
            raise VerificationError(
                f"index table disagrees with the bisection oracle ({worst:.2e} > {tol:.3g})"
            )
    return 0


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config, seeds=args.seeds, baseline=args.paired_baseline)
    out = _out_dir(args.out)
    t0 = time.perf_counter()
    needs_table = any(p.startswith("whittle") for p in cfg.policies)
    table = _saved_table(out, cfg.instance) if needs_table else None
    try:
        report = monte_carlo(
            cfg.instance,
            cfg.policies,
            cfg.seeds,
            horizon=cfg.horizon,
            baseline=cfg.baseline,
            truncation_tol=cfg.truncation_tol,
            table=table,
        )
    except RuntimeError as e:  # the valley planner's LP failed
        raise VerificationError(str(e)) from e
    _say(f"simulated {len(cfg.policies)} policies x {len(cfg.seeds)} seeds "
         f"x {report.horizon} slots in {time.perf_counter() - t0:.1f}s")
    report.to_csv(out / "episodes.csv")
    report.to_json(out / "summary.json")
    rows = report.summary()["policies"]
    for p in report.policies:
        row = rows[p]
        line = f"  {p:14s} {row['mean_reward']:12.3f} +- {row['ci95_half_width']:.3f}"
        diff = row.get(f"paired_diff_vs_{cfg.baseline}")
        if diff is not None:
            line += f"   vs {cfg.baseline}: {diff:+.3f} +- {row['paired_ci95_half_width']:.3f}"
        _say(line)
    _say(f"wrote {out / 'episodes.csv'} and {out / 'summary.json'}")
    return 0


def cmd_bound(args) -> int:
    cfg = load_run_config(args.config, verify_oracle=args.verify_oracle)
    out = _out_dir(args.out)
    t0 = time.perf_counter()
    table = _saved_table(out, cfg.instance)
    try:
        res = solve_bound(cfg.instance, cfg.verify_oracle, table)
    except RuntimeError as e:
        raise VerificationError(str(e)) from e
    doc = {
        "bound": res.value,
        "per_charger": res.value / cfg.instance.n_chargers,
        "lambda": res.lam,
        "activation_frequency": res.activation_frequency,
        "method": res.method,
    }
    if res.lp_value is not None:
        doc["lp_value"] = res.lp_value
    doc["dual_value"] = res.dual_value
    (out / "bound.json").write_text(json.dumps(doc, indent=1) + "\n")
    _say(f"bound {res.value:.6f} (lambda={res.lam:.6f}) in {time.perf_counter() - t0:.2f}s")
    _say(f"wrote {out / 'bound.json'}")
    return 0


def cmd_fitcost(args) -> int:
    # a flag left out takes fit_cost_chain's default
    options = {name: getattr(args, name) for name in FIT_OPTIONS if getattr(args, name) is not None}
    try:
        fit = fit_cost_chain(PriceTrace.from_csv(args.trace), **options)
    except (ValueError, OSError) as e:
        raise ConfigError(str(e)) from e
    chain = fit.chain
    doc = {"levels": chain.values.tolist(), "retail_price": fit.retail_price}
    if args.n_periods is None:
        doc["matrix"] = chain.P[0].tolist()
    else:
        doc["matrices"] = chain.P.tolist()
    out = _out_dir(args.out)
    (out / "cost_chain.json").write_text(json.dumps(doc, indent=1) + "\n")
    _say(f"fitted {chain.n_levels}-state chain from {len(fit.states)} slots "
         f"(retail price {fit.retail_price:.4f})")
    _say(f"wrote {out / 'cost_chain.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evbandit",
        description="EV-charging scheduling: index tables, simulations, bounds, cost fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="precompute the activation index table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default .)")
    p.add_argument("--verify-oracle", action="store_true", default=None,
                   help="cross-check every state against the bisection oracle")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("simulate", help="run the policy bake-off")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seeds", type=int, help="override the seed count")
    p.add_argument("--paired-baseline")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bound", help="compute the relaxation upper bound")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--verify-oracle", action="store_true", default=None,
                   help="also certify the dual on the occupancy LP")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("fitcost", help="fit a cost chain from a price trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None)
    for name, kind in FIT_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    p.set_defaults(fn=cmd_fitcost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (VerificationError, IndexCheckError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
