"""The benchmark tracer wraps hkit functions by name; every name it lists
must still exist, or a traced benchmark run breaks while the suite stays
green."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_hkit(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, func = name.split(".")
        assert callable(getattr(tracing.MODULES[module], func, None)), name
