"""The benchmark tracer wraps hkit functions by name; every name it lists
must still exist, and a traced run must record them, or a traced benchmark
run breaks or reads zero calls while the suite stays green."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

# every hkit module is imported before a tracer installs, so a name that a
# module binds at import still holds the untraced function
from hkit import artifacts, checks, cli  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_hkit(tracing):
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, func = name.split(".")
        assert callable(getattr(tracing.MODULES[module], func, None)), name


def test_a_traced_run_records_the_pipeline_under_cmd_run(tracing, tmp_path):
    """Fails when cmd_run reaches execute through a binding the tracer does
    not rewrite, e.g. one imported into a module outside tracing.MODULES."""
    config = tmp_path / "berry.json"
    config.write_text(json.dumps({
        "scenario": "berry_closed", "params": {"theta0": 2.0},
        "grid": {"t1": 6.283185307179586, "n_steps": 201},
    }))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    for name in (
        "cli.cmd_run", "cli.execute", "dynamics.propagate",
        "frames.eigenframes", "holonomy.geometric_phase",
    ):
        assert name in names, name
    execute = tracer.spans[names.index("cli.execute")]
    assert execute.parent == names.index("cli.cmd_run")
    # the counters read each call's grid: 200 steps per propagation, 201
    # samples diagonalised
    counted = {"dynamics.propagate", "frames.eigenframes"}
    counts = {(s.name, s.count) for s in tracer.spans if s.name in counted}
    assert counts == {("dynamics.propagate", 200), ("frames.eigenframes", 201)}
