"""The benchmark's span targets resolve against the package.

``perfbench/spans.py`` wraps module attributes by name, so a target that
moves or is renamed would otherwise show only when a traced benchmark run
installs its recorder.  This test loads ``spans.py`` by path and looks every
target up the way the recorder does, without installing anything.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, leaf = attr.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            if not callable(inspect.getattr_static(owner, leaf)):
                missing.append(f"{module}.{attr} (not callable)")
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing
