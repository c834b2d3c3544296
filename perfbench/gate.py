"""Correctness gate for the benchmark's command outputs.

Each command sequence writes ``index_table.json``, ``episodes.csv``,
``summary.json`` and ``bound.json`` into one directory.  The gate compares
them with the reference recorded for the workload's default seeds and checks
the yardstick invariant that holds on every seed:

    mean - ci95  <=  bound + N * beta^H * (1 + max dF) / (1 - beta)

The right-hand tail is the most reward a run shortened to H slots can lose,
so the bound still caps the Monte Carlo estimate on a short horizon.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
INDEX_ABS_TOL = 1e-12
REWARD_REL_TOL = 1e-9
BOUND_REL_TOL = 1e-9


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text())


def read_outputs(out_dir: Path) -> dict:
    """The outputs the gate checks, as plain Python values."""
    index = json.loads((out_dir / "index_table.json").read_text())["index"]
    rewards: dict[str, dict[int, float]] = {}
    with open(out_dir / "episodes.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rewards.setdefault(row["policy"], {})[int(row["seed"])] = float(
                row["discounted_reward"]
            )
    summary = json.loads((out_dir / "summary.json").read_text())
    bound = json.loads((out_dir / "bound.json").read_text())["bound"]
    return {"index": index, "rewards": rewards, "summary": summary, "bound": bound}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1.0)


def check(outputs: dict, reference: dict, seeds: list[int], policies: list[str], instance) -> dict:
    """Run every check; returns {check name: failure message or None}."""
    out: dict[str, str | None] = {}

    got = np.asarray(outputs["index"], dtype=float)
    want = np.asarray(reference["index"], dtype=float)
    if got.shape != want.shape:
        out["index_table"] = f"shape {got.shape} != reference {want.shape}"
    else:
        err = float(np.max(np.abs(got - want)))
        out["index_table"] = None if err <= INDEX_ABS_TOL else f"max-abs error {err:.3e}"

    rewards = outputs["rewards"]
    missing = [p for p in policies if sorted(rewards.get(p, {})) != sorted(seeds)]
    if missing:
        out["episodes"] = f"episodes missing for {missing}"
    elif seeds == reference["seeds"]:
        bad = [
            (p, s)
            for p in policies
            for s, want_r in zip(reference["seeds"], reference["rewards"][p])
            if not _close(rewards[p][s], want_r, REWARD_REL_TOL)
        ]
        out["episodes"] = f"{len(bad)} rewards differ, first {bad[:3]}" if bad else None
    else:
        out["episodes"] = None  # no reference on these seeds: completeness only

    bound = outputs["bound"]
    out["bound"] = (
        None
        if _close(bound, reference["bound"], BOUND_REL_TOL)
        else f"bound {bound!r} != reference {reference['bound']!r}"
    )

    summary = outputs["summary"]
    beta = instance.discount
    tail = (
        instance.n_chargers
        * beta ** summary["horizon"]
        * (1.0 + instance.penalty.max_increment)
        / (1.0 - beta)
    )
    rows = summary["policies"]
    over = [
        p
        for p in policies
        if p not in rows or rows[p]["mean_reward"] - rows[p]["ci95_half_width"] > bound + tail
    ]
    out["yardstick"] = f"missing, or mean - ci95 above bound + tail, for {over}" if over else None
    return out
