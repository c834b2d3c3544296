#!/usr/bin/env python3
"""evbandit benchmark: the real CLI, in-process, on three workloads.

    python3 perfbench/run.py --workload fig3_sim --seed 0 --seconds 40 --trace 0

BENCHMARK.json lists fig3_sim and tod_index; small_exact runs by hand and in
the self-test (see README.md).

Run from a checkout of the repository (the package is imported from its
``src/``).  One run:

1. writes the workload config with its seed list offset by ``--seed``
   (seed n uses seeds n*S .. n*S+S-1, S the workload's seed count);
2. repeats the workload's command sequence through ``evbandit.cli.main``,
   with extra timed runs of its short commands between the commands, while
   the next sequence would still end within ``--seconds`` (at least once, and
   at least MIN_SEQUENCES[workload] times in an untraced run), checking every
   sequence's outputs with ``gate.py``;
3. times set-up -- importing numpy, scipy and ``evbandit.cli`` plus the first
   ``load_run_config`` -- in SETUP_REPEATS fresh interpreters, one at a
   time, before the first sequence and after the next ones;
4. prints one JSON object as the last line of standard output.

With ``--trace 0`` the metrics are the end-to-end wall times, each the
fastest of the run's samples (see ``fastest``; ``wall_s`` sums the fastest
sample of each command of the sequence), and set-up time, the median of its
samples.  With ``--trace 1`` untraced and traced sequences
alternate; the traced ones record spans around the functions each layer exposes
(``spans.py``) and the metrics are per-layer numbers.  Spans are written to
``perfbench/.work/<workload>/spans.csv`` when the run ends.

The run uses one process for the workload (set-up is timed in child
interpreters that run one at a time) and one BLAS thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_DIR = HERE / "workloads"
WORK_DIR = HERE / ".work"

# Each workload is a CLI config in workloads/ plus its command sequence.  The
# count beside a command is how many extra timed runs of it follow each
# command of the sequence, so that every command of about a second or less
# has ten or more samples, spread over the run, for a steady fastest sample.
# fig3_sim:    capacity binds over a long horizon; sim and the policy kernels
#              do the work, the index (K=1) and the bound are cheap.
# tod_index:   4-period time-of-day fit with K=5; the PWL recursion dominates
#              and runs twice (index, then simulate rebuilds the table).  The
#              deadline and energy ranges (T<=6, B<=5) keep one table build
#              near a second, so that a run holds many samples of it.
# small_exact: tiny periodic instance; the exact paths do the work -- the
#              valley planner's per-decision LP and the bisection oracle.
#              Its ~5 s oracle samples need ~50 s runs, so BENCHMARK.json
#              leaves it out.
WORKLOADS = {
    "fig3_sim": [(["index"], 2), (["simulate"], 1), (["bound"], 3)],
    "tod_index": [(["index"], 1), (["simulate"], 1), (["bound", "--verify-oracle"], 2)],
    "small_exact": [
        (["index", "--verify-oracle"], 0),
        (["simulate"], 0),
        (["bound", "--verify-oracle"], 5),
    ],
}

# Untraced sequences a run makes at least, so that every command has several
# samples to take the fastest of.  small_exact's index command runs the
# oracle for ~5 s and has no extra runs, so it needs five sequences.
MIN_SEQUENCES = {"fig3_sim": 2, "tod_index": 2, "small_exact": 5}

# Set-up samples a run takes; their median is setup_s.  A fresh
# interpreter's set-up time swings more than the commands' fastest samples
# (0.73-1.15 s across one set of ten runs), so the median needs several.
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import numpy, scipy
import evbandit.cli
evbandit.cli.load_run_config(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""

POLICY_METRIC = {
    "whittle": "whittle",
    "whittle+lllp": "whittle_lllp",
    "edf": "edf",
    "llf": "llf",
    "valley": "valley",
}


def fastest(samples) -> float:
    """The run's estimate of a wall time: the fastest of its samples.

    The benchmark runs on a few cores of a shared host, whose speed drops by
    20-50 % for stretches of seconds to minutes while neighbours are busy.
    A slow stretch lengthens some samples and never shortens one, so the
    fastest sample is the steadiest estimate of the program's own time; the
    median moves with the share of the run that fell in a slow stretch.
    """
    return min(samples)


def write_config(workload: str, seed: int, work: Path) -> Path:
    """The workload config with the seed list offset by ``seed``."""
    src = WORKLOAD_DIR / f"{workload}.json"
    doc = json.loads(src.read_text())
    count = doc["seeds"]
    doc["seeds"] = list(range(seed * count, (seed + 1) * count))
    cost = doc["instance"].get("cost", {})
    if "file" in cost:
        cost["file"] = str((src.parent / cost["file"]).resolve())
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def time_setup(config: Path) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_command(cli, argv, config: Path, out: Path, log: io.StringIO) -> tuple[float, int]:
    """Run one CLI command in-process; returns (wall seconds, exit code)."""
    full = [argv[0], "--config", str(config), "--out", str(out)] + argv[1:]
    gc.collect()  # start every sample from the same heap, outside the timing
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            code = cli.main(full)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc(file=log)
            code = 1
    return time.perf_counter() - t0, code


def run_sequence(cli, commands, config: Path, out: Path, log: io.StringIO, extras=True) -> dict:
    """Run the command sequence once, each command followed by the extra runs.

    Returns the sequence's wall time (extra runs excluded), every wall-time
    sample by command and every exit code.
    """
    samples = {argv[0]: [] for argv, _ in commands}
    codes = []

    def timed(argv):
        wall, code = run_command(cli, argv, config, out, log)
        samples[argv[0]].append(wall)
        codes.append((argv[0], code))
        return wall

    wall = 0.0
    for argv, _ in commands:
        wall += timed(argv)
        for extra_argv, extra in commands if extras else ():
            for _ in range(extra):
                timed(extra_argv)
    return {"samples": samples, "wall": wall, "codes": codes}


class Counter:
    """Operations attempted and failed: every command and every gate check."""

    def __init__(self, log: io.StringIO):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=self.log)


def check_sequence(result, out: Path, gate, reference, cfg, counter: Counter) -> None:
    for name, code in result["codes"]:
        counter.record(f"command {name}", None if code == 0 else f"exit code {code}")
    try:
        outputs = gate.read_outputs(out)
    except (OSError, ValueError, KeyError) as e:
        counter.record("reading outputs", repr(e))
        return
    checks = gate.check(outputs, reference, cfg.seeds, cfg.policies, cfg.instance)
    for name, problem in checks.items():
        counter.record(f"check {name}", problem)
    result["horizon"] = outputs["summary"]["horizon"]


def end_to_end_metrics(results, commands, setup_s: float, cfg) -> dict:
    def fastest_of(command):
        return fastest([t for r in results for t in r["samples"][command]])

    slots = len(cfg.policies) * len(cfg.seeds) * cfg.instance.n_chargers
    simulate_s = fastest_of("simulate")
    horizon = statistics.median(r.get("horizon", 0) for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "index_s": (fastest_of("index"), "s"),
        "simulate_s": (simulate_s, "s"),
        "bound_s": (fastest_of("bound"), "s"),
        "wall_s": (sum(fastest_of(argv[0]) for argv, _ in commands), "s"),
        "charger_slots_per_s": (slots * horizon / simulate_s, "slots/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _rep_layer_metrics(spans, self_time) -> dict:
    """Per-layer numbers of one traced command sequence."""
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by.get(name, []))

    def durs(name):
        return [spans[i].duration for i in by.get(name, [])]

    def selfs(name):
        return sum(self_time[i] for i in by.get(name, []))

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in by.get(name, []))

    builds = calls("whittle.table")
    per_build = max(builds, 1)
    table_s = sum(durs("whittle.table")) / per_build
    table_states = attr_sum("whittle.table", "states") / per_build
    lllp_rows = attr_sum("policies.lllp_kernel", "rows")
    valley_ms = sorted(d * 1e3 for d in durs("policies.valley"))
    m = {
        "config.load_s": (statistics.median(durs("config.load") or [0.0]), "s"),
        "costfit.fit_s": (statistics.median(durs("costfit.fit") or [0.0]), "s"),
        "whittle.table_builds": (builds, "count"),
        "whittle.table_s": (table_s, "s"),
        "whittle.table_states": (table_states, "count"),
        "whittle.states_per_s": (table_states / table_s if table_s else 0.0, "states/s"),
        "pwl.combine_calls": (calls("pwl.combine") / per_build, "count"),
        "pwl.stitch_calls": (calls("pwl.stitch") / per_build, "count"),
        "pwl.simplify_calls": (calls("pwl.simplify") / per_build, "count"),
        "pwl.least_root_calls": (calls("pwl.least_root") / per_build, "count"),
        "pwl.breakpoints_out": (attr_sum("pwl.combine", "breakpoints") / per_build, "count"),
        "pwl.stitch_breakpoints_out": (attr_sum("pwl.stitch", "breakpoints") / per_build, "count"),
        "pwl.combine_s": (selfs("pwl.combine") / per_build, "s"),
        "pwl.stitch_s": (selfs("pwl.stitch") / per_build, "s"),
        "pwl.simplify_s": (selfs("pwl.simplify") / per_build, "s"),
        "whittle.oracle_states": (calls("whittle.oracle"), "count"),
        "whittle.oracle_s": (sum(durs("whittle.oracle")), "s"),
        "whittle.subsidy_vi_calls": (calls("whittle.subsidy_vi"), "count"),
    }
    for k in ("whittle", "edf", "llf", "lllp"):
        m[f"policies.{k}_kernel_calls"] = (calls(f"policies.{k}_kernel"), "count")
        m[f"policies.{k}_kernel_s"] = (sum(durs(f"policies.{k}_kernel")), "s")
    m["policies.lllp_swap_share"] = (
        attr_sum("policies.lllp_kernel", "swapped_rows") / lllp_rows if lllp_rows else 0.0,
        "ratio",
    )
    m["policies.valley_decisions"] = (len(valley_ms), "count")
    m["policies.valley_s"] = (sum(valley_ms) / 1e3, "s")
    m["policies.valley_p50_ms"] = (_percentile(valley_ms, 50), "ms")
    m["policies.valley_p99_ms"] = (_percentile(valley_ms, 99), "ms")
    rates = {}
    for i in by.get("sim.run_batch", []):
        s = spans[i]
        rates[s.attrs["policy"]] = s.attrs["charger_slots"] / s.duration
    for policy, label in POLICY_METRIC.items():
        m[f"sim.{label}.charger_slots_per_s"] = (rates.get(policy, 0.0), "slots/s")
    m["sim.self_s"] = (selfs("sim.monte_carlo") + selfs("sim.run_batch"), "s")
    m["bound.dual_evals"] = (calls("bound.dual_eval"), "count")
    m["bound.dual_s"] = (sum(durs("bound.dual_eval")), "s")
    m["bound.lp_s"] = (sum(durs("bound.lp")), "s")
    lp_states = [spans[i].attrs["lp_states"] for i in by.get("bound.lp", [])]
    m["bound.lp_states"] = (max(lp_states, default=0), "count")
    m["io.bytes_written"] = (attr_sum("io.write", "bytes"), "bytes")
    m["io.write_s"] = (sum(durs("io.write")), "s")
    return m


def layer_metrics(recorder, untraced, traced) -> dict:
    self_time = recorder.self_times()
    per_rep: dict[int, list] = {}
    per_rep_self: dict[int, list] = {}
    for span, st in zip(recorder.spans, self_time):
        per_rep.setdefault(span.rep, []).append(span)
        per_rep_self.setdefault(span.rep, []).append(st)
    reps = [_rep_layer_metrics(per_rep[r], per_rep_self[r]) for r in sorted(per_rep)]
    out = {}
    for key, (_, unit) in reps[0].items():
        out[key] = (statistics.median(rep[key][0] for rep in reps), unit)
    out["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in untraced),
        "s",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "evbandit" / "cli.py").is_file():
        print(f"error: no evbandit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # set before numpy loads BLAS
    sys.path.insert(0, str(SRC))

    work = WORK_DIR / args.workload
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    config = write_config(args.workload, args.seed, work)
    # set-up is timed before the first sequence and after the next untraced
    # ones, so that its samples spread over the run like the commands' samples
    setup_times = [] if args.trace else [time_setup(config)]

    import evbandit.cli as cli
    import gate
    from spans import Recorder

    cfg = cli.load_run_config(config)
    reference = gate.load_reference(args.workload)
    commands = WORKLOADS[args.workload]
    log = io.StringIO()
    counter = Counter(log)
    recorder = Recorder() if args.trace else None
    untraced, traced = [], []

    start = time.perf_counter()
    min_sequences = 1 if recorder else MIN_SEQUENCES[args.workload]
    rep = 0
    while True:
        began = time.perf_counter()
        # in a traced run the untraced sequences only give trace.overhead_s
        result = run_sequence(cli, commands, config, out, log, extras=recorder is None)
        check_sequence(result, out, gate, reference, cfg, counter)
        untraced.append(result)
        if recorder is None and len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup(config))
        if recorder is not None:
            recorder.rep = rep
            with recorder:
                result = run_sequence(cli, commands, config, out, log, extras=False)
            check_sequence(result, out, gate, reference, cfg, counter)
            traced.append(result)
        rep += 1
        now = time.perf_counter()
        # stop unless one more sequence, as long as this one, ends in time
        if rep >= min_sequences and now + (now - began) - start > args.seconds:
            break

    if recorder is None:
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup(config))
        metrics = end_to_end_metrics(untraced, commands, statistics.median(setup_times), cfg)
    else:
        metrics = layer_metrics(recorder, untraced, traced)
        recorder.write_csv(work / "spans.csv")
    (work / "log.txt").write_text(log.getvalue())

    print(f"{args.workload}: seed {args.seed}, {rep} sequence(s), "
          f"{counter.failed}/{counter.attempted} operations failed")
    doc = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
