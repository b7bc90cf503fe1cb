"""Scenario table, the pipeline that runs one scenario, and the command-line
front end.

Subcommands:

* ``run --config <file> --out <dir>``:   execute one scenario, write
  ``trajectory.csv`` (state and invariant data), ``holonomy.json`` (phase
  matrices and metadata) and ``report.txt`` (human summary); the writers
  are in ``hkit.artifacts``.
* ``verify --suite <oracles|gauge|convergence|all>``:  run the tagged
  acceptance checks of ``hkit.checks`` and print a pass/fail table.
* ``sweep --config <file> --axis <param> --values <csv> --out <dir>``:
  re-run a scenario along one parameter axis, one CSV row per value.

Every scenario is one row of SCENARIOS, and every run, sweep point and
check that runs a whole scenario goes through ``execute``.

Exit codes: run 0/2/3 (ok / config error / numerical failure),
verify 0/1/2, sweep 0/2; run and sweep also exit 2 on an unwritable output
path ("output error") and on a run too large to allocate ("config error":
a grid with more steps than memory holds).  Identical config + seed produce
byte-identical CSV/JSON output; the env var HKIT_SEED overrides the config
seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import artifacts, dynamics, frames, holonomy, models
from .dynamics import OperatorTrajectory, TimeGrid
from .frames import ConnectionSeries, FrameTrajectory
from .holonomy import HolonomyResult
from .matlib import NumericalError

FRAME_SOURCES = ("analytic", "continuity")
ARTIFACTS = ("trajectory", "holonomy", "report")


class ConfigError(ValueError):
    """Invalid scenario configuration (maps to exit code 2)."""


def _parse_int(name: str, value) -> int:
    """An integer from a number or a decimal string; bools and non-integral
    numbers are rejected rather than truncated."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {value!r} is not an integer") from exc


def _parse_float(name: str, value) -> float:
    """float(value), with bools refused rather than read as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass
class ScenarioConfig:
    scenario: str
    params: dict[str, float] = field(default_factory=dict)
    grid: TimeGrid | None = None
    case_tag: str | None = None
    frame_source: str = "continuity"
    outputs: list[str] = field(default_factory=lambda: list(ARTIFACTS))
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r} (choose from {tuple(SCENARIOS)})"
            )
        if self.frame_source not in FRAME_SOURCES:
            raise ConfigError(f"unknown frame_source {self.frame_source!r}")
        if self.case_tag is not None and self.case_tag not in holonomy.CASE_TAGS:
            raise ConfigError(f"unknown case_tag {self.case_tag!r}")
        if not isinstance(self.outputs, list) or not all(
            isinstance(name, str) for name in self.outputs
        ):
            raise ConfigError(
                f"invalid outputs: expected a list of artifact names from {ARTIFACTS}, "
                f"got {self.outputs!r}"
            )
        for name in self.outputs:
            if name not in ARTIFACTS:
                raise ConfigError(f"unknown output artifact {name!r}")
        for name, value in self.params.items():
            if not math.isfinite(value):
                raise ConfigError(f"invalid params: {name} must be finite, got {value!r}")
        # the connection differentiates the frames to second order
        if self.grid is not None and self.grid.n_steps < 3:
            raise ConfigError(f"invalid grid: n_steps must be at least 3, got {self.grid.n_steps}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict) or "scenario" not in raw:
            raise ConfigError("config must be an object with a 'scenario' key")
        known = {"scenario", "params", "grid", "case_tag", "frame_source", "outputs", "seed"}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        grid = None
        if raw.get("grid") is not None:
            g = raw["grid"]
            if not isinstance(g, dict):
                raise ConfigError("invalid grid: expected an object with 't1' and 'n_steps'")
            if set(g) - {"t0", "t1", "n_steps"}:
                raise ConfigError(f"unknown grid keys: {sorted(set(g) - {'t0', 't1', 'n_steps'})}")
            try:
                grid = TimeGrid(
                    _parse_float("t0", g.get("t0", 0.0)),
                    _parse_float("t1", g["t1"]),
                    _parse_int("n_steps", g["n_steps"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid grid: {exc}") from exc
        seed = _parse_int("seed", raw.get("seed", 0))
        if "HKIT_SEED" in os.environ:
            seed = _parse_int("HKIT_SEED", os.environ["HKIT_SEED"])
        params = {} if raw.get("params") is None else raw["params"]
        try:
            if not isinstance(params, dict):
                raise TypeError(f"expected an object, got {params!r}")
            params = {str(k): _parse_float(k, v) for k, v in params.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid params: {exc}") from exc
        return cls(
            scenario=raw["scenario"],
            params=params,
            grid=grid,
            case_tag=raw.get("case_tag"),
            frame_source=raw.get("frame_source", "continuity"),
            outputs=raw.get("outputs", list(ARTIFACTS)),
            seed=seed,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


@dataclass
class RunResult:
    """Everything one scenario execution produced."""

    config: ScenarioConfig
    grid: TimeGrid
    rho_traj: OperatorTrajectory
    I_traj: OperatorTrajectory
    frames: FrameTrajectory
    conn: ConnectionSeries
    holo: HolonomyResult
    witness: dict[str, float]
    residual: float
    expectation: np.ndarray
    expectation_drift: float  # max |Tr[I rho](t) - Tr[I rho](t0)|
    warnings: list[str]
    flags: list[str]


# --- scenario table --------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table.

    ``build(params, cfg)`` receives ``defaults`` overlaid with the config's
    params and returns ``(grid, I_traj, rho_traj, frames, warnings)``;
    it raises ValueError for parameters it cannot run with.  ``case`` picks
    the default case tag from the same params.
    """

    defaults: dict[str, float]
    analytic: bool  # closed-form frames exist (frame_source "analytic")
    case: Callable[[dict[str, float]], str]
    dim: int
    build: Callable[[dict[str, float], ScenarioConfig], tuple]


def _build_two_level(p: dict[str, float], cfg: ScenarioConfig) -> tuple:
    params = models.TwoLevelDecayParams(**p)
    grid = cfg.grid or TimeGrid(0.0, 2.0 * np.pi / params.omega0, 8001)
    model = models.two_level_model(params)
    chi0 = models.chi_closed_form(params, grid.t0)
    I_traj = dynamics.propagate(model, chi0, grid, kind="invariant")
    rho_traj = dynamics.propagate(model, 0.5 * (np.eye(2) + chi0), grid, kind="density")
    if cfg.frame_source == "analytic":
        frame_traj = models.analytic_frames(params, grid)
    else:
        frame_traj = frames.eigenframes(I_traj)
    return grid, I_traj, rho_traj, frame_traj, models.scenario_warnings(params)


def _build_berry(p: dict[str, float], cfg: ScenarioConfig) -> tuple:
    if p["gamma"] != 0.0:
        raise ValueError("berry_closed requires gamma = 0")
    return _build_two_level(p, cfg)


def _build_tripod(p: dict[str, float], cfg: ScenarioConfig) -> tuple:
    loop = {0.0: "a", 1.0: "b", 2.0: "a_palindrome"}.get(p["loop"])
    if loop is None:
        raise ValueError("wilczek_zee param 'loop' must be 0 (a), 1 (b) or 2 (a_palindrome)")
    model = models.wilczek_zee_demo(
        rabi=p["rabi"], loop=models.WZ_LOOPS[loop], duration=p["duration"]
    )
    grid = cfg.grid or TimeGrid(0.0, p["duration"], 2001)
    if abs(grid.t1 - p["duration"]) > 1e-12 or grid.t0 != 0.0:
        raise ValueError("wilczek_zee grid must span [0, duration]")
    I_traj = models.adiabatic_invariant_trajectory(model, grid)
    frame_traj = frames.eigenframes(I_traj)
    dark = frame_traj.vectors[0][:, 1]
    rho_traj = dynamics.propagate(model, np.outer(dark, dark.conj()), grid, kind="density")
    return grid, I_traj, rho_traj, frame_traj, []


_TWO_LEVEL_DEFAULTS = asdict(models.TwoLevelDecayParams())

SCENARIOS: dict[str, Scenario] = {
    "two_level_decay": Scenario(
        defaults=_TWO_LEVEL_DEFAULTS, analytic=True, dim=2, build=_build_two_level,
        case=lambda p: "t_nd" if p["gamma"] > 0.0 else "nt_nd",
    ),
    "berry_closed": Scenario(
        defaults=_TWO_LEVEL_DEFAULTS, analytic=True, dim=2, build=_build_berry,
        case=lambda p: "nt_nd",
    ),
    "wilczek_zee": Scenario(
        defaults={"rabi": 1.0, "duration": 1500.0, "loop": 0.0}, analytic=False, dim=4,
        build=_build_tripod, case=lambda p: "t_d",
    ),
}


def execute(cfg: ScenarioConfig) -> RunResult:
    """Run the full pipeline for one configuration."""
    scenario = SCENARIOS[cfg.scenario]
    unknown = set(cfg.params) - set(scenario.defaults)
    if unknown:
        raise ConfigError(f"unknown params for {cfg.scenario}: {sorted(unknown)}")
    if cfg.frame_source == "analytic" and not scenario.analytic:
        raise ConfigError(f"{cfg.scenario} has no analytic frame source")
    p = {**scenario.defaults, **cfg.params}
    try:
        grid, I_traj, rho_traj, frame_traj, warnings = scenario.build(p, cfg)
        case = cfg.case_tag or scenario.case(p)
        holonomy.check_case(frame_traj.blocks, case)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    conn = frames.connection(frame_traj)
    holo = holonomy.geometric_phase(frame_traj, grid.n_steps - 1, case)
    witness = holonomy.nonabelian_witness(holo, conn)
    residual = holonomy.parallel_residual(frame_traj, holo)
    expectation = dynamics.invariant_expectation(I_traj, rho_traj)
    flags = []
    if conn.herm_deviation > frames.CONNECTION_HERM_TOL:
        flags.append(f"connection hermiticity deviation {conn.herm_deviation:.3e}")
    return RunResult(
        config=cfg, grid=grid, rho_traj=rho_traj, I_traj=I_traj,
        frames=frame_traj, conn=conn, holo=holo, witness=witness, residual=residual,
        expectation=expectation,
        expectation_drift=float(np.max(np.abs(expectation - expectation[0]))),
        warnings=warnings, flags=flags,
    )


# --- subcommands -----------------------------------------------------------


def cmd_run(config_path: str, out_dir: str) -> int:
    try:
        cfg = ScenarioConfig.from_file(config_path)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        res = execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if "trajectory" in cfg.outputs:
        artifacts.write_trajectory(out / "trajectory.csv", res)
    if "holonomy" in cfg.outputs:
        artifacts.write_holonomy(out / "holonomy.json", res)
    if "report" in cfg.outputs:
        artifacts.write_report(out / "report.txt", res)
    return 0


def cmd_sweep(config_path: str, axis: str, values: list[float], out_dir: str) -> int:
    try:
        if not values:
            raise ConfigError("empty sweep values")
        base = ScenarioConfig.from_file(config_path)
        known = sorted(SCENARIOS[base.scenario].defaults)
        if axis not in known:
            raise ConfigError(f"unknown sweep axis {axis!r}: {base.scenario} params are {known}")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    dim = SCENARIOS[base.scenario].dim
    fmt = artifacts.FLOAT_FMT
    cols = (
        [axis, "status"]
        + [f"eigenphase_{i}" for i in range(dim)]
        + ["abs_trace", "commutator_max", "reversal_gap", "message"]
    )
    lines = [",".join(cols)]
    for value in values:
        try:
            res = execute(replace(base, params={**base.params, axis: value}))
            row = (
                [fmt % value, "ok"]
                + [fmt % x for x in res.holo.eigenphases]
                + [
                    fmt % abs(res.holo.trace_O),
                    fmt % res.witness["commutator_max"],
                    fmt % res.witness["reversal_gap"],
                    "",
                ]
            )
        except (ValueError, NumericalError) as exc:
            row = [fmt % value, "error"] + [""] * (dim + 3) + [str(exc).replace(",", ";")]
        lines.append(",".join(row))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_verify(suite: str) -> int:
    from .checks import SUITES  # hkit.checks imports this module

    if suite not in SUITES:
        print(f"config error: unknown suite {suite!r}", file=sys.stderr)
        return 2
    try:
        results = [check() for check in SUITES[suite]]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results)
    for r in results:
        print(r.line(width))
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hkit",
        description="Geometric phases of open and closed quantum systems "
        "from dynamical invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run acceptance check suites")
    p_verify.add_argument("--suite", required=True)

    p_sweep = sub.add_parser("sweep", help="run a scenario along one parameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.suite)
    if args.command == "sweep":
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError as exc:
            print(f"config error: invalid sweep values: {exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        return cmd_sweep(args.config, args.axis, values, args.out)
    except OSError as exc:
        # reading the config turns its OSError into a ConfigError: this is --out
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: run too large to allocate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
