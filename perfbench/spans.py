"""In-memory span recorder that traces evbandit from the outside.

The recorder replaces module attributes (functions the program looks up at
call time) with thin wrappers that record one span per call: name, start,
end, parent span and a few attributes.  Nothing in ``src/`` is changed; the
original attributes are restored when the recorder is uninstalled.  Spans
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    rep: int  # spans of one command sequence share this identifier
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs_table(args, kwargs, result):
    return {"states": int(result.values.size)}


def _attrs_run_batch(args, kwargs, result):
    instance, policy, seeds, horizon = args[:4]
    return {"policy": policy, "charger_slots": len(seeds) * horizon * instance.n_chargers}


def _attrs_lllp(args, kwargs, result):
    active = args[2]
    return {
        "rows": int(active.shape[0]),
        "swapped_rows": int(np.any(result != active, axis=1).sum()),
    }


def _attrs_pwl_out(args, kwargs, result):
    return {"breakpoints": int(result.xs.size)}


def _attrs_linprog(args, kwargs, result):
    return {"lp_states": int(np.asarray(args[0]).size // 2)}


def _attrs_file_arg(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _attrs_write_text(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, attribute extractor).  A function that
# one module imported from another is looked up in the importing module, so
# it is wrapped there.
TARGETS = [
    ("evbandit.cli", "load_run_config", "config.load", None),
    ("evbandit.costfit", "fit_cost_chain", "costfit.fit", None),
    ("evbandit.cli", "compute_index_table", "whittle.table", _attrs_table),
    ("evbandit.sim", "compute_index_table", "whittle.table", _attrs_table),
    ("evbandit.whittle", "combine", "pwl.combine", _attrs_pwl_out),
    ("evbandit.whittle", "stitch", "pwl.stitch", _attrs_pwl_out),
    ("evbandit.pwl", "PiecewiseLinear.simplify", "pwl.simplify", None),
    ("evbandit.pwl", "PiecewiseLinear.least_root", "pwl.least_root", None),
    ("evbandit.cli", "index_by_bisection", "whittle.oracle", None),
    ("evbandit.whittle", "subsidy_value_iteration", "whittle.subsidy_vi", None),
    ("evbandit.cli", "monte_carlo", "sim.monte_carlo", None),
    ("evbandit.sim", "_run_batch", "sim.run_batch", _attrs_run_batch),
    ("evbandit.sim", "whittle_kernel", "policies.whittle_kernel", None),
    ("evbandit.sim", "edf_kernel", "policies.edf_kernel", None),
    ("evbandit.sim", "llf_kernel", "policies.llf_kernel", None),
    ("evbandit.sim", "lllp_kernel", "policies.lllp_kernel", _attrs_lllp),
    ("evbandit.sim", "valley_filling_policy", "policies.valley", None),
    ("evbandit.cli", "solve_bound", "bound.solve", None),
    ("evbandit.bound", "solve_subsidy", "bound.dual_eval", None),
    ("evbandit.bound", "linprog", "bound.lp", _attrs_linprog),
    ("evbandit.whittle", "IndexTable.to_csv", "io.write", _attrs_file_arg),
    ("evbandit.whittle", "IndexTable.to_json", "io.write", _attrs_file_arg),
    ("evbandit.sim", "ComparisonReport.to_csv", "io.write", _attrs_file_arg),
    ("evbandit.sim", "ComparisonReport.to_json", "io.write", _attrs_file_arg),
    ("pathlib", "Path.write_text", "io.write", _attrs_write_text),
]


class Recorder:
    """Collects spans while installed; ``rep`` tags the spans it records."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, extract):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, clock(), 0.0, parent, self.rep)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder is already installed")
        for module, attr, name, extract in TARGETS:
            owner = importlib.import_module(module)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, extract))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write_csv(self, path: pathlib.Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "rep", "name", "start", "end", "attrs"])
            for i, s in enumerate(self.spans):
                attrs = ";".join(f"{k}={v}" for k, v in s.attrs.items())
                w.writerow([i, s.parent, s.rep, s.name, repr(s.start), repr(s.end), attrs])
