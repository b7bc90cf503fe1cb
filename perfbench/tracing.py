"""Span recorder that times hkit's public functions from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every hkit
module namespace that binds it (``holonomy.connection`` is the same object as
``frames.connection``, ``frames.polar_unitary`` the same as
``matlib.polar_unitary``), so calls are recorded whichever module makes them.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from hkit import cli, dynamics, frames, holonomy, matlib, models

MODULES = {
    "matlib": matlib, "dynamics": dynamics, "frames": frames,
    "holonomy": holonomy, "models": models, "cli": cli,
}

TRACED = (
    "dynamics.propagate",
    "dynamics.propagate_coefficients",
    "dynamics.invariant_expectation",
    "frames.eigenframes",
    "frames.connection",
    "holonomy.geometric_phase",
    "holonomy.transporter",
    "holonomy.nonabelian_witness",
    "holonomy.parallel_residual",
    "models.analytic_frames",
    "models.adiabatic_invariant_trajectory",
    "models.wilczek_zee_demo",
    "models.rotating_frame_numeric",
    "matlib.polar_unitary",
    "cli.execute",
    "cli.cmd_run",
)


def _grid_arg(args, kwargs, pos):
    return kwargs["grid"] if "grid" in kwargs else args[pos]


# Work counted at the span that does it: RK4 steps of a propagation and
# samples diagonalised by eigenframes.
COUNTERS = {
    "dynamics.propagate": lambda args, kwargs: _grid_arg(args, kwargs, 2).n_steps - 1,
    "frames.eigenframes": lambda args, kwargs: args[0].grid.n_steps,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    count: int = 0


class Tracer:
    """Records spans of the current op; ``op < 0`` switches recording off."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` of the current op."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        count = COUNTERS[name](args, kwargs) if name in COUNTERS else 0
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op, count))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].start, self.spans[idx].end = start, end

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for name in TRACED:
            module, attr = name.split(".")
            orig = getattr(MODULES[module], attr)
            wrapper = self._wrap(name, orig)
            for mod in MODULES.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own
