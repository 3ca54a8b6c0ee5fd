"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions by
name and reads ``ConicProblem.solve``'s ``max_iter``; a rename or deletion of
any of them breaks traced runs.  This test only reads ``perfbench/``."""

import importlib.util
import inspect
import sys
from pathlib import Path

from polyce.conic import ConicProblem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    wrapped = _load_spans(monkeypatch).WRAPPED
    missing = [(module.__name__, name) for targets in wrapped.values()
               for module, name in targets if not callable(getattr(module, name, None))]
    assert wrapped and missing == []
    assert "max_iter" in inspect.signature(ConicProblem.solve).parameters
