#!/usr/bin/env python3
"""Record the gate's reference outputs for every workload at the default seeds.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload's command sequence once at ``--seed 0`` and writes the
index table, every episode's discounted reward and the bound value to
``perfbench/reference/<workload>.json``.  Re-record only when a change is
meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import evbandit.cli as cli  # noqa: E402
import gate  # noqa: E402


def record(workload: str) -> None:
    work = run.WORK_DIR / workload
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    config = run.write_config(workload, 0, work)
    log = io.StringIO()
    result = run.run_sequence(cli, run.WORKLOADS[workload], config, out, log, extras=False)
    if any(code for _, code in result["codes"]):
        raise SystemExit(f"{workload}: a command failed\n{log.getvalue()}")
    cfg = cli.load_run_config(config)
    outputs = gate.read_outputs(out)
    doc = {
        "workload": workload,
        "seeds": cfg.seeds,
        "horizon": outputs["summary"]["horizon"],
        "bound": outputs["bound"],
        "rewards": {p: [outputs["rewards"][p][s] for s in cfg.seeds] for p in cfg.policies},
        "index": outputs["index"],
    }
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    gate.reference_path(workload).write_text(json.dumps(doc) + "\n")
    print(f"{workload}: wrote {gate.reference_path(workload)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(run.WORKLOADS):
        record(name)
