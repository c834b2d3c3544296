#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload once at the shortest length (``--seconds 0``: the
   workload's minimum number of command sequences untraced, one traced) with
   tracing off and on, and asserts that each run is correct and emits
   exactly the metrics BENCHMARK.json names, with their units.
2. Shows that the gate trips: ``gate.check`` flags a tampered index table,
   reward and bound, and a full run against a tampered reference reports
   ``correct: false`` with failed operations.
3. Shows that the benchmark refuses to run, with a non-zero exit code and no
   result line, in a directory holding only BENCHMARK.json and perfbench/.

Takes a few minutes; tod_index builds its index table twice per sequence.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import evbandit.cli as cli  # noqa: E402
import gate  # noqa: E402

SCRATCH = run.WORK_DIR / "selftest"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int)
    return doc


def test_every_metric_emitted() -> None:
    for workload in sorted(run.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc = result_of(bench(run.ROOT, workload, trace))
            assert doc["correct"] and doc["failed"] == 0, (workload, trace, doc)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in doc["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, "
                  f"{doc['attempted']} operations")


def test_gate_flags_tampering() -> None:
    workload = "small_exact"
    work = SCRATCH / workload
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    config = run.write_config(workload, 0, work)
    cfg = cli.load_run_config(config)
    log = run.io.StringIO()
    result = run.run_sequence(cli, run.WORKLOADS[workload], config, out, log, extras=False)
    assert not any(code for _, code in result["codes"]), log.getvalue()
    outputs = gate.read_outputs(out)
    reference = gate.load_reference(workload)
    clean = gate.check(outputs, reference, cfg.seeds, cfg.policies, cfg.instance)
    assert all(v is None for v in clean.values()), clean

    def tampered(edit):
        ref = copy.deepcopy(reference)
        edit(ref)
        return gate.check(outputs, ref, cfg.seeds, cfg.policies, cfg.instance)

    def nudge_index(ref):
        ref["index"][1][1][0][0] += 1e-11

    def nudge_reward(ref):
        ref["rewards"]["edf"][3] *= 1 + 1e-8

    def nudge_bound(ref):
        ref["bound"] *= 1 + 1e-8

    for name, edit in (("index_table", nudge_index), ("episodes", nudge_reward),
                       ("bound", nudge_bound)):
        problems = tampered(edit)
        assert problems[name] is not None, (name, problems)
        print(f"ok   gate flags a tampered {name}: {problems[name]}")

    summary = copy.deepcopy(outputs["summary"])
    summary["policies"]["edf"]["mean_reward"] = outputs["bound"] * 10 + 1e6
    problems = gate.check(dict(outputs, summary=summary), reference, cfg.seeds, cfg.policies,
                          cfg.instance)
    assert problems["yardstick"] is not None, problems
    print(f"ok   gate flags a reward above the yardstick: {problems['yardstick']}")


def _copy_checkout(dest: Path, with_program: bool) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(run.HERE, dest / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(run.SRC, dest / "src", ignore=ignore)
        shutil.copytree(run.ROOT / "data", dest / "data")


def test_tampered_reference_fails_the_run() -> None:
    dest = SCRATCH / "tampered"
    _copy_checkout(dest, with_program=True)
    ref_file = dest / "perfbench" / "reference" / "fig3_sim.json"
    ref = json.loads(ref_file.read_text())
    ref["rewards"]["edf"][0] += 1.0
    ref_file.write_text(json.dumps(ref) + "\n")
    doc = result_of(bench(dest, "fig3_sim", 0))
    assert doc["correct"] is False and doc["failed"] >= 1, doc
    print(f"ok   a run against a tampered reference: correct=false, "
          f"{doc['failed']}/{doc['attempted']} operations failed")
    shutil.rmtree(dest)


def test_refuses_without_program() -> None:
    dest = SCRATCH / "bare"
    _copy_checkout(dest, with_program=False)
    proc = bench(dest, "fig3_sim", 0)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print(f"ok   without the program: exit code {proc.returncode}, no result")
    shutil.rmtree(dest)


if __name__ == "__main__":
    test_refuses_without_program()
    test_gate_flags_tampering()
    test_tampered_reference_fails_the_run()
    test_every_metric_emitted()
    print("selftest passed")
