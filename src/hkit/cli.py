"""Scenario runner and verification front end.

Subcommands:

* ``run --config <file> --out <dir>``:   execute one scenario, write
  ``trajectory.csv`` (state and invariant data), ``holonomy.json`` (phase
  matrices and metadata) and ``report.txt`` (human summary).
* ``verify --suite <oracles|gauge|convergence|all>``:  run the tagged
  acceptance checks and print a pass/fail table.
* ``sweep --config <file> --axis <param> --values <csv> --out <dir>``:
  re-run a scenario along one parameter axis, one CSV row per value.

Exit codes: run 0/2/3 (ok / config error / numerical failure),
verify 0/1/2, sweep 0/2.  Identical config + seed produce byte-identical
CSV/JSON output; the env var HKIT_SEED overrides the config seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, frames, holonomy, matlib, models
from .dynamics import LindbladModel, OperatorTrajectory, TimeGrid
from .frames import ConnectionSeries, FrameTrajectory
from .holonomy import HolonomyResult
from .matlib import NumericalError

SCENARIOS = ("two_level_decay", "berry_closed", "wilczek_zee", "synthetic_rotation")
FRAME_SOURCES = ("analytic", "continuity")
ARTIFACTS = ("trajectory", "holonomy", "report")
VERIFY_MIN_STEPS = 100

FLOAT_FMT = "%.17e"
# values per formatted block of trajectory.csv: about 100 kB of text, so the
# block's transient floats and strings do not raise the peak memory of a run
_WRITE_CHUNK_VALUES = 4096


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
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r} (choose from {SCENARIOS})")
        if self.frame_source not in FRAME_SOURCES:
            raise ConfigError(f"unknown frame_source {self.frame_source!r}")
        if self.case_tag is not None and self.case_tag not in holonomy.CASE_TAGS:
            raise ConfigError(f"unknown case_tag {self.case_tag!r}")
        for name in self.outputs:
            if name not in ARTIFACTS:
                raise ConfigError(f"unknown output artifact {name!r}")

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
            try:
                grid = TimeGrid(
                    float(g.get("t0", 0.0)), float(g["t1"]), _parse_int("n_steps", g["n_steps"])
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid grid: {exc}") from exc
        seed = _parse_int("seed", raw.get("seed", 0))
        if "HKIT_SEED" in os.environ:
            seed = _parse_int("HKIT_SEED", os.environ["HKIT_SEED"])
        try:
            params = {str(k): float(v) for k, v in (raw.get("params") or {}).items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid params: {exc}") from exc
        return cls(
            scenario=raw["scenario"],
            params=params,
            grid=grid,
            case_tag=raw.get("case_tag"),
            frame_source=raw.get("frame_source", "continuity"),
            outputs=list(raw.get("outputs", ARTIFACTS)),
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
    model: LindbladModel
    rho_traj: OperatorTrajectory
    I_traj: OperatorTrajectory
    frames: FrameTrajectory
    conn: ConnectionSeries
    holo: HolonomyResult
    witness: dict[str, float]
    residual: float
    expectation: np.ndarray
    warnings: list[str]
    flags: list[str]


WZ_LOOPS: dict[str, object] = {}


def _register_loops() -> None:
    # both loops share the base point (pi/3, 0, 0); loop b carries a
    # relative coupling phase so its dark holonomy leaves the plane-rotation
    # subgroup traced out by the phase-free loop a
    a = lambda s: (np.pi / 3.0 + 0.4 * np.sin(2.0 * np.pi * s), 2.0 * np.pi * s)
    b = lambda s: (
        np.pi / 3.0 + 0.3 * np.sin(2.0 * np.pi * s),
        -2.0 * np.pi * s,
        0.9 * np.sin(2.0 * np.pi * s),
    )
    WZ_LOOPS.update({"a": a, "b": b, "a_palindrome": models.palindrome_loop(a)})


_register_loops()


def _decay_params(cfg: ScenarioConfig) -> models.TwoLevelDecayParams:
    defaults = {"omega0": 1.0, "gamma": 0.0, "r0": 1.0, "theta0": np.pi / 2, "phi0": 0.0}
    unknown = set(cfg.params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown params for {cfg.scenario}: {sorted(unknown)}")
    merged = {**defaults, **cfg.params}
    if cfg.scenario == "berry_closed" and merged["gamma"] != 0.0:
        raise ConfigError("berry_closed requires gamma = 0")
    try:
        return models.TwoLevelDecayParams(**merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_decay(cfg: ScenarioConfig):
    p = _decay_params(cfg)
    grid = cfg.grid or TimeGrid(0.0, 2.0 * np.pi / p.omega0, 8001)
    model = models.two_level_model(p)
    chi0 = models.chi_closed_form(p, grid.t0)
    I_traj = dynamics.propagate(model, chi0, grid, kind="invariant")
    rho0 = 0.5 * (np.eye(2) + chi0)
    rho_traj = dynamics.propagate(model, rho0, grid, kind="density")
    if cfg.frame_source == "analytic":
        try:
            frame_traj = models.analytic_frames(p, grid)
        except ValueError as exc:
            raise ConfigError(f"analytic frames undefined: {exc}") from exc
    else:
        frame_traj = frames.eigenframes(I_traj)
    case = cfg.case_tag or ("t_nd" if p.gamma > 0.0 else "nt_nd")
    return model, grid, I_traj, rho_traj, frame_traj, case, models.scenario_warnings(p)


def _build_wilczek_zee(cfg: ScenarioConfig):
    defaults = {"rabi": 1.0, "duration": 1500.0}
    unknown = set(cfg.params) - set(defaults) - {"loop"}
    if unknown:
        raise ConfigError(f"unknown params for wilczek_zee: {sorted(unknown)}")
    if cfg.frame_source == "analytic":
        raise ConfigError("wilczek_zee has no analytic frame source")
    rabi = float(cfg.params.get("rabi", defaults["rabi"]))
    duration = float(cfg.params.get("duration", defaults["duration"]))
    loop_id = cfg.params.get("loop", 0.0)
    loop_name = {0.0: "a", 1.0: "b", 2.0: "a_palindrome"}.get(float(loop_id))
    if loop_name is None:
        raise ConfigError("wilczek_zee param 'loop' must be 0 (a), 1 (b) or 2 (a_palindrome)")
    try:
        model = models.wilczek_zee_demo(rabi=rabi, loop=WZ_LOOPS[loop_name], duration=duration)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = cfg.grid or TimeGrid(0.0, duration, 2001)
    if abs(grid.t1 - duration) > 1e-12 or grid.t0 != 0.0:
        raise ConfigError("wilczek_zee grid must span [0, duration]")
    I_traj = models.adiabatic_invariant_trajectory(model, grid)
    frame_traj = frames.eigenframes(I_traj)
    dark = frame_traj.vectors[0][:, 1]
    rho0 = np.outer(dark, dark.conj())
    rho_traj = dynamics.propagate(model, rho0, grid, kind="density")
    case = cfg.case_tag or "t_d"
    return model, grid, I_traj, rho_traj, frame_traj, case, []


def _build_synthetic(cfg: ScenarioConfig):
    defaults = {"omega": 1.0, "lam1": 1.0, "lam2": 2.0}
    unknown = set(cfg.params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown params for synthetic_rotation: {sorted(unknown)}")
    if cfg.frame_source == "analytic":
        raise ConfigError("synthetic_rotation has no analytic frame source")
    merged = {**defaults, **cfg.params}
    try:
        model = models.synthetic_rotation_model(merged["omega"], merged["lam1"], merged["lam2"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = cfg.grid or TimeGrid(0.0, 2.0 * np.pi / merged["omega"], 2001)
    I0 = np.diag([merged["lam1"], merged["lam2"]]).astype(complex)
    I_traj = dynamics.propagate(model, I0, grid, kind="invariant")
    rho_traj = dynamics.propagate(model, np.diag([1.0, 0.0]).astype(complex), grid, kind="density")
    frame_traj = frames.eigenframes(I_traj)
    case = cfg.case_tag or "general"
    return model, grid, I_traj, rho_traj, frame_traj, case, []


def execute(cfg: ScenarioConfig) -> RunResult:
    """Run the full pipeline for one configuration."""
    builders = {
        "two_level_decay": _build_decay,
        "berry_closed": _build_decay,
        "wilczek_zee": _build_wilczek_zee,
        "synthetic_rotation": _build_synthetic,
    }
    model, grid, I_traj, rho_traj, frame_traj, case, warnings = builders[cfg.scenario](cfg)

    conn = frames.connection(frame_traj)
    holo = holonomy.geometric_phase(frame_traj, grid.n_steps - 1, case, conn)
    witness = holonomy.nonabelian_witness(holo)
    # a full-connection case has already formed the transporter of conn
    if case in holonomy.FULL_CONNECTION_CASES:
        transport = holo.transport
    else:
        transport = holonomy.transporter(conn)
    residual = holonomy.parallel_residual(frame_traj, transport)
    expectation = dynamics.invariant_expectation(I_traj, rho_traj)
    # holo.flags already carries the connection's flags
    flags = list(I_traj.flags) + list(rho_traj.flags) + list(holo.flags)
    return RunResult(
        config=cfg, grid=grid, model=model, rho_traj=rho_traj, I_traj=I_traj,
        frames=frame_traj, conn=conn, holo=holo, witness=witness, residual=residual,
        expectation=expectation, warnings=warnings, flags=flags,
    )


# --- artifact writers -----------------------------------------------------


def _write_trajectory(path: Path, res: RunResult) -> None:
    dim = res.rho_traj.dim
    cols = ["t"]
    for i in range(dim):
        for j in range(dim):
            cols += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    cols += [f"lam_{i}" for i in range(dim)] + ["expect_I"]
    n = res.grid.n_steps
    rho = res.rho_traj.samples.reshape(n, -1)
    table = np.column_stack([
        res.grid.times,
        np.stack([rho.real, rho.imag], axis=-1).reshape(n, -1),
        res.frames.eigenvalues,
        res.expectation,
    ])
    # whole rows, one chunk at a time, so the text of the whole file is never
    # held at once
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    rows = max(1, _WRITE_CHUNK_VALUES // table.shape[1])
    with path.open("w") as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, n, rows):
            chunk = table[lo : lo + rows]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _matrix_payload(M: np.ndarray) -> dict:
    return {
        "re": [[float(x) for x in row] for row in M.real],
        "im": [[float(x) for x in row] for row in M.imag],
    }


def _holonomy_payload(res: RunResult) -> dict:
    return {
        "case_tag": res.holo.case_tag,
        "eigenphases": [float(x) for x in res.holo.eigenphases],
        "trace_O": {"re": res.holo.trace_O.real, "im": res.holo.trace_O.imag},
        "matrices": {
            "O": _matrix_payload(res.holo.O),
            "U": _matrix_payload(res.holo.U),
            "Vpar": _matrix_payload(res.holo.Vpar),
            "R": _matrix_payload(res.holo.R),
        },
        "metadata": {
            "scenario": res.config.scenario,
            "frame_source": res.config.frame_source,
            "seed": res.config.seed,
            "n_steps": res.grid.n_steps,
            "dt": res.grid.dt,
            "connection_herm_deviation": float(res.conn.herm_deviation),
            "parallel_residual": res.residual,
            "witness_commutator_max": res.witness["commutator_max"],
            "witness_reversal_gap": res.witness["reversal_gap"],
            "invariant_expectation_drift": float(
                np.max(np.abs(res.expectation - res.expectation[0]))
            ),
            "flags": res.flags,
            "warnings": res.warnings,
        },
    }


def _write_holonomy(path: Path, res: RunResult) -> None:
    path.write_text(json.dumps(_holonomy_payload(res), indent=2, sort_keys=True) + "\n")


def _write_report(path: Path, res: RunResult) -> None:
    cfg = res.config
    lines = [
        f"scenario: {cfg.scenario}",
        "params: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(cfg.params.items())),
        f"grid: t0={res.grid.t0:.6g} t1={res.grid.t1:.6g} n_steps={res.grid.n_steps} "
        f"dt={res.grid.dt:.6e}",
        f"case: {res.holo.case_tag}   frame source: {cfg.frame_source}",
        "eigenphases (rad): " + " ".join(f"{x:+.9f}" for x in res.holo.eigenphases),
        f"trace O: {res.holo.trace_O.real:+.9f} {res.holo.trace_O.imag:+.9f}j "
        f"(|trace| {abs(res.holo.trace_O):.9f})",
        f"non-Abelian witness: commutator_max={res.witness['commutator_max']:.3e} "
        f"reversal_gap={res.witness['reversal_gap']:.3e}",
        f"parallel transport residual: {res.residual:.3e}",
        f"invariant expectation drift: "
        f"{np.max(np.abs(res.expectation - res.expectation[0])):.3e}",
    ]
    gamma = cfg.params.get("gamma", 0.0)
    if cfg.scenario in ("two_level_decay", "berry_closed") and gamma == 0.0:
        lines.append(
            "note: gamma = 0 closed dynamics -- transport is Abelian "
            "(diagonal connection, path ordering immaterial)"
        )
    lines.append("warnings: " + ("; ".join(res.warnings) if res.warnings else "(none)"))
    lines.append("flags: " + ("; ".join(res.flags) if res.flags else "(none)"))
    path.write_text("\n".join(lines) + "\n")


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
        _write_trajectory(out / "trajectory.csv", res)
    if "holonomy" in cfg.outputs:
        _write_holonomy(out / "holonomy.json", res)
    if "report" in cfg.outputs:
        _write_report(out / "report.txt", res)
    return 0


def cmd_sweep(config_path: str, axis: str, values: list[float], out_dir: str) -> int:
    try:
        if not values:
            raise ConfigError("empty sweep values")
        base = ScenarioConfig.from_file(config_path)
        dim = 4 if base.scenario == "wilczek_zee" else 2
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    cols = (
        [axis, "status"]
        + [f"eigenphase_{i}" for i in range(dim)]
        + ["abs_trace", "commutator_max", "reversal_gap", "message"]
    )
    lines = [",".join(cols)]
    for value in values:
        raw = {
            "scenario": base.scenario,
            "params": {**base.params, axis: value},
            "case_tag": base.case_tag,
            "frame_source": base.frame_source,
            "seed": base.seed,
        }
        if base.grid is not None:
            raw["grid"] = {
                "t0": base.grid.t0, "t1": base.grid.t1, "n_steps": base.grid.n_steps
            }
        try:
            res = execute(ScenarioConfig.from_dict(raw))
            row = (
                [FLOAT_FMT % value, "ok"]
                + [FLOAT_FMT % x for x in res.holo.eigenphases]
                + [
                    FLOAT_FMT % abs(res.holo.trace_O),
                    FLOAT_FMT % res.witness["commutator_max"],
                    FLOAT_FMT % res.witness["reversal_gap"],
                    "",
                ]
            )
        except (ConfigError, NumericalError, ValueError) as exc:
            row = (
                [FLOAT_FMT % value, "error"]
                + [""] * (dim + 3)
                + [str(exc).replace(",", ";")]
            )
        lines.append(",".join(row))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


# --- acceptance checks ----------------------------------------------------
#
# Each check returns a CheckResult; `verify` groups them into suites and the
# test suite calls the same functions, so there is a single implementation of
# every threshold.


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    threshold: str
    detail: str = ""


def check_berry_limit() -> CheckResult:
    """1: cyclic closed-system eigenphases equal +/- pi (1 - cos theta0)."""
    worst = 0.0
    slowest = 0.0
    details = []
    for theta0 in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        tic = time.perf_counter()
        cfg = ScenarioConfig(
            scenario="berry_closed",
            params={"theta0": theta0, "phi0": 0.3},
            grid=TimeGrid(0.0, 2.0 * np.pi, 20000),
            case_tag="nt_nd",
        )
        res = execute(cfg)
        elapsed = time.perf_counter() - tic
        ref = models.berry_reference(models.TwoLevelDecayParams(theta0=theta0))
        err = matlib.match_phase_sets(res.holo.eigenphases, ref)
        details.append(f"theta0={theta0:.4f}: {err:.3e} in {elapsed:.1f}s")
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    return CheckResult(
        "berry_limit_eigenphases", worst <= 1e-5 and slowest <= 10.0,
        f"{worst:.3e}, slowest point {slowest:.1f}s", "<= 1e-5 and <= 10s per point",
        "; ".join(details),
    )


def check_invariant_oracle() -> CheckResult:
    """2: closed-form invariant solves the invariant equation on a grid."""
    worst = 0.0
    h = 1e-3
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    offsets = (-2.0 * h, -h, h, 2.0 * h)
    for theta0 in np.linspace(0.0, np.pi, 20):
        for gt in np.linspace(0.0, 1.0, 20):
            for wt in np.linspace(0.3, 6.3, 20):
                t = wt  # omega0 = 1
                gamma = gt / t
                p = models.TwoLevelDecayParams(
                    omega0=1.0, gamma=gamma, r0=1.0, theta0=theta0, phi0=0.4
                )
                model = models.two_level_model(p)
                chi = models.chi_closed_form(p, t)
                dchi = sum(
                    w * models.chi_closed_form(p, t + o)
                    for w, o in zip(stencil, offsets)
                )
                L = dynamics.liouvillian(*model.operators(t))[0]
                rhs = (-L.conj().T @ chi.reshape(-1)).reshape(chi.shape)
                scale = max(1e-30, float(np.max(np.abs(chi))))
                worst = max(worst, float(np.max(np.abs(dchi - rhs))) / scale)
    return CheckResult(
        "invariant_solution_oracle", worst <= 1e-8, f"{worst:.3e}", "<= 1e-8 (relative)"
    )


def check_spectral_oracle() -> CheckResult:
    """3: propagated invariant eigenvalues match the closed-form branches."""
    p = models.TwoLevelDecayParams(omega0=1.0, gamma=1e-3, theta0=2 * np.pi / 3, phi0=0.3)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    model = models.two_level_model(p)
    traj = dynamics.propagate(model, models.chi_closed_form(p, 0.0), grid, kind="invariant")
    lam_ref = np.sort(models.eigen_closed_form(p, grid).eigenvalues, axis=1)
    worst = float(np.max(np.abs(np.linalg.eigvalsh(traj.samples) - lam_ref)))
    return CheckResult("spectral_oracle", worst <= 1e-7, f"{worst:.3e}", "<= 1e-7")


def check_overlap_closed_form() -> CheckResult:
    """4: polar factor of the frame overlap matches the closed form."""
    worst_match = 0.0
    worst_unit = 0.0
    for theta0 in (np.pi / 3, np.pi / 2, 2 * np.pi / 3, 2.2):
        for gamma in (0.0, 1e-3, 0.05):
            p = models.TwoLevelDecayParams(
                omega0=1.0, gamma=gamma, theta0=theta0, phi0=0.4
            )
            grid = TimeGrid(0.0, 2.0 * np.pi, 801)
            ks = np.arange(0, grid.n_steps, 50)
            U, _ = matlib.polar_unitary(frames.overlap(models.analytic_frames(p, grid), ks))
            W_cf = models.overlap_closed_form(p, grid.times[ks])
            worst_match = max(worst_match, float(np.max(np.abs(U - W_cf))))
            unit = np.abs(W_cf[:, 0, 0]) ** 2 + np.abs(W_cf[:, 1, 0]) ** 2 - 1.0
            worst_unit = max(worst_unit, float(np.max(np.abs(unit))))
    passed = worst_match <= 1e-7 and worst_unit <= 1e-10
    return CheckResult(
        "overlap_closed_form", passed,
        f"match {worst_match:.3e}, unitarity {worst_unit:.3e}",
        "match <= 1e-7, unitarity <= 1e-10",
    )


def check_gauge_invariance(seed: int | None = None) -> CheckResult:
    """5: seeded smooth gauge leaves eigenphases, |trace| and O itself covariant.

    Uses the nt_nd case of the open two-level model, whose holonomy is far
    from the identity, so covariance is tested on a nontrivial matrix.
    """
    if seed is None:
        seed = _parse_int("HKIT_SEED", os.environ.get("HKIT_SEED", "2024"))
    p = models.TwoLevelDecayParams(omega0=1.0, gamma=1e-3, theta0=2 * np.pi / 3, phi0=0.3)
    grid = TimeGrid(0.0, 2.0 * np.pi, 20001)
    model = models.two_level_model(p)
    I_traj = dynamics.propagate(model, models.chi_closed_form(p, 0.0), grid, kind="invariant")
    fr = frames.eigenframes(I_traj)
    base = holonomy.geometric_phase(fr, grid.n_steps - 1, "nt_nd")
    M = frames.smooth_random_gauge(fr, amplitude=0.05, seed=seed)
    fr2 = frames.gauge_transform(fr, M)
    alt = holonomy.geometric_phase(fr2, grid.n_steps - 1, "nt_nd")
    d_phase = matlib.match_phase_sets(base.eigenphases, alt.eigenphases)
    d_trace = abs(abs(base.trace_O) - abs(alt.trace_O))
    M0 = M[0]
    d_cov = float(np.max(np.abs(alt.O - M0.conj().T @ base.O @ M0)))
    worst = max(d_phase, d_trace, d_cov)
    return CheckResult(
        "gauge_invariance", worst <= 1e-7,
        f"phases {d_phase:.3e}, |trace| {d_trace:.3e}, covariance {d_cov:.3e}",
        "<= 1e-7", f"seed={seed}",
    )


def _residual_at(n_steps: int) -> float:
    assert n_steps >= VERIFY_MIN_STEPS, "verify grids must resolve the dynamics"
    p = models.TwoLevelDecayParams(omega0=1.0, gamma=0.0, theta0=2 * np.pi / 3, phi0=0.3)
    grid = TimeGrid(0.0, 2.0 * np.pi, n_steps)
    model = models.two_level_model(p)
    I_traj = dynamics.propagate(model, models.chi_closed_form(p, 0.0), grid, kind="invariant")
    fr = frames.eigenframes(I_traj)
    Vpar = holonomy.transporter(frames.connection(fr))
    return holonomy.parallel_residual(fr, Vpar)


def check_parallel_residual() -> CheckResult:
    """6: transport residual small at dt*omega0 = 0.005 and second order in dt."""
    n1 = 1258  # dt ~ 0.005 over one period
    r1 = _residual_at(n1)
    r2 = _residual_at(2 * n1 - 1)
    ratio = r1 / r2
    passed = r1 <= 1e-4 and 3.0 <= ratio <= 5.0
    return CheckResult(
        "parallel_transport_residual", passed,
        f"residual {r1:.3e}, halving ratio {ratio:.2f}",
        "<= 1e-4 and ratio in [3, 5]",
    )


def check_witness_transition() -> CheckResult:
    """7: Abelian witness at gamma = 0, non-Abelian at gamma/omega0 = 1e-3.

    Both legs are evaluated in the closed-form frame gauge: the witness is a
    connection diagnostic and therefore gauge dependent, and the re-phased
    continuity gauge happens to make the theta0 = pi/2 connection constant.
    """
    details = []
    cfg0 = ScenarioConfig(
        scenario="berry_closed", params={"theta0": np.pi / 2, "phi0": 0.3},
        grid=TimeGrid(0.0, 2.0 * np.pi, 4001), case_tag="nt_nd",
        frame_source="analytic",
    )
    res0 = execute(cfg0)
    w0 = max(res0.witness["commutator_max"], res0.witness["reversal_gap"])
    details.append(f"gamma=0: {w0:.3e}")
    cfg1 = ScenarioConfig(
        scenario="two_level_decay",
        params={"gamma": 1e-3, "theta0": np.pi / 2, "phi0": 0.3},
        grid=TimeGrid(0.0, 2.0 * np.pi, 4001), case_tag="t_nd",
        frame_source="analytic",
    )
    res1 = execute(cfg1)
    w1 = min(res1.witness["commutator_max"], res1.witness["reversal_gap"])
    details.append(f"gamma/omega0=1e-3: {w1:.3e}")
    passed = w0 <= 1e-9 and w1 >= 1e-6
    return CheckResult(
        "abelian_nonabelian_witness", passed,
        f"closed {w0:.3e}, open {w1:.3e}", "closed <= 1e-9, open >= 1e-6",
        "; ".join(details),
    )


OMEGA_EXACT_FLOOR = 1e-9


def check_omega_perturbative() -> CheckResult:
    """8: remainder of Omega ~ omega0 t + (gamma / omega0) kappa (1 - cos
    omega0 t) (models.omega_approx) should be second order in gamma
    (remainder ratio in [3, 5] when gamma is halved).

    The ratio is measured per theta0; legs whose remainders sit below
    OMEGA_EXACT_FLOOR at both rates agree exactly (kappa = 0 there) and pass
    by that stronger token.
    """
    T = 2.0 * np.pi
    grid = TimeGrid(0.0, T, 4001)
    legs = []
    all_pass = True
    for theta0 in (np.pi / 2, 2 * np.pi / 3):
        rem = {}
        for gamma in (1e-3, 5e-4):
            p = models.TwoLevelDecayParams(omega0=1.0, gamma=gamma, theta0=theta0, phi0=0.3)
            _, _, om = models.rotating_frame_numeric(p, grid)
            om_ref, _ = models.omega_approx(p, T)
            rem[gamma] = abs(om[-1] - float(om_ref))
        if rem[1e-3] < OMEGA_EXACT_FLOOR and rem[5e-4] < OMEGA_EXACT_FLOOR:
            legs.append(f"theta0={theta0:.4f}: exact ({rem[1e-3]:.1e}, {rem[5e-4]:.1e})")
            continue
        ratio = rem[1e-3] / rem[5e-4]
        ok = 3.0 <= ratio <= 5.0
        all_pass = all_pass and ok
        legs.append(
            f"theta0={theta0:.4f}: remainders ({rem[1e-3]:.4e}, {rem[5e-4]:.4e}) "
            f"ratio {ratio:.4f}"
        )
    return CheckResult(
        "omega_perturbative_order", all_pass, "; ".join(legs),
        "ratio in [3, 5] per theta0 (or both remainders < 1e-9)",
    )


def check_two_route() -> CheckResult:
    """9: moving-basis coefficient propagation reconstructs the density
    matrix; the dissipative-free block solution does the same at gamma=0."""
    p = models.TwoLevelDecayParams(
        omega0=1.0, gamma=1e-3, r0=0.9, theta0=2 * np.pi / 3, phi0=0.3
    )
    grid = TimeGrid(0.0, 2.0 * np.pi, 8001)
    model = models.two_level_model(p)
    fine = grid.refined()
    I_fine = dynamics.propagate(model, models.chi_closed_form(p, 0.0), fine, kind="invariant")
    fr = frames.eigenframes(I_fine)
    chi0 = models.chi_closed_form(p, 0.0)
    rho0 = 0.5 * (np.eye(2) + chi0)
    V0 = fr.vectors[0]
    c_traj = dynamics.propagate_coefficients(model, fr, V0.conj().T @ rho0 @ V0, grid)
    rho_direct = dynamics.propagate(model, rho0, grid, kind="density")
    V_coarse = fr.vectors[::2]
    rho_recon = np.einsum(
        "kij,kjl,kml->kim", V_coarse, c_traj.samples, V_coarse.conj()
    )
    err_coeff = float(np.max(np.abs(rho_recon - rho_direct.samples)))

    p0 = models.TwoLevelDecayParams(omega0=1.0, r0=0.9, theta0=2 * np.pi / 3, phi0=0.3)
    grid0 = TimeGrid(0.0, 2.0 * np.pi, 4001)
    model0 = models.two_level_model(p0)
    fr0 = models.analytic_frames(p0, grid0)
    chi00 = models.chi_closed_form(p0, 0.0)
    rho00 = 0.5 * (np.eye(2) + chi00)
    c0 = fr0.vectors[0].conj().T @ rho00 @ fr0.vectors[0]
    c_blocks = np.zeros((grid0.n_steps, 2, 2), dtype=complex)
    for mu in range(2):
        for nu in range(2):
            block = holonomy.dissipative_free_block_solution(
                model0, fr0, mu, nu, c0[mu : mu + 1, nu : nu + 1]
            )
            c_blocks[:, mu, nu] = block[:, 0, 0]
    rho_block = np.einsum("kij,kjl,kml->kim", fr0.vectors, c_blocks, fr0.vectors.conj())
    rho_direct0 = dynamics.propagate(model0, rho00, grid0, kind="density")
    err_block = float(np.max(np.abs(rho_block - rho_direct0.samples)))

    passed = err_coeff <= 1e-6 and err_block <= 1e-6
    return CheckResult(
        "two_route_equivalence", passed,
        f"coefficient {err_coeff:.3e}, block {err_block:.3e}", "<= 1e-6",
    )


def _wz_dark_holonomy(loop_name: str, duration: float, n_steps: int = 2001) -> np.ndarray:
    model = models.wilczek_zee_demo(loop=WZ_LOOPS[loop_name], duration=duration)
    grid = TimeGrid(0.0, duration, n_steps)
    fr = frames.eigenframes(models.adiabatic_invariant_trajectory(model, grid))
    res = holonomy.geometric_phase(fr, grid.n_steps - 1, "t_d")
    return res.O[1:3, 1:3]


def check_wilczek_zee() -> CheckResult:
    """10: dark-pair holonomies of two loops fail to commute; palindrome
    traversal returns the identity; each holonomy is unitary."""
    Ha = _wz_dark_holonomy("a", 1500.0)
    Hb = _wz_dark_holonomy("b", 1500.0)
    Hpal = _wz_dark_holonomy("a_palindrome", 3000.0, n_steps=4001)
    comm = float(np.max(np.abs(Ha @ Hb - Hb @ Ha)))
    ident = float(np.max(np.abs(Hpal - np.eye(2))))
    unit = max(matlib.unitary_defect(Ha), matlib.unitary_defect(Hb))
    passed = comm > 1e-3 and ident <= 1e-5 and unit <= 1e-8
    return CheckResult(
        "wilczek_zee_holonomy", passed,
        f"commutator {comm:.3e}, reverse-identity {ident:.3e}, unitarity {unit:.3e}",
        "> 1e-3, <= 1e-5, <= 1e-8",
    )


def check_noncyclic_consistency() -> CheckResult:
    """11: per-level noncyclic phases equal the nt_nd eigenphases at t = pi/omega0."""
    p = models.TwoLevelDecayParams(omega0=1.0, gamma=1e-3, theta0=np.pi / 3, phi0=0.3)
    grid = TimeGrid(0.0, np.pi, 4001)
    model = models.two_level_model(p)
    I_traj = dynamics.propagate(model, models.chi_closed_form(p, 0.0), grid, kind="invariant")
    fr = frames.eigenframes(I_traj)
    conn = frames.connection(fr)
    res = holonomy.geometric_phase(fr, grid.n_steps - 1, "nt_nd", conn)
    phis = np.array(
        [holonomy.noncyclic_abelian_gp(fr, lvl, grid.n_steps - 1, conn) for lvl in range(2)]
    )
    err = matlib.match_phase_sets(np.sort(phis), res.eigenphases)
    return CheckResult(
        "noncyclic_abelian_consistency", err <= 1e-6, f"{err:.3e}", "<= 1e-6"
    )


def check_rk4_order() -> CheckResult:
    """Convergence order of the open-model (RK4) propagator against the
    closed-form invariant of the decaying qubit (gamma > 0, so the run never
    takes the closed-model Magnus flow)."""
    p = models.TwoLevelDecayParams(omega0=1.0, gamma=0.3, theta0=2 * np.pi / 3, phi0=0.3)
    model = models.two_level_model(p)
    T = 2.0 * np.pi
    errs = []
    for n in (501, 1001):
        traj = dynamics.propagate(
            model, models.chi_closed_form(p, 0.0), TimeGrid(0.0, T, n), kind="invariant"
        )
        errs.append(float(np.max(np.abs(traj.samples[-1] - models.chi_closed_form(p, T)))))
    ratio = errs[0] / errs[1]
    return CheckResult(
        "rk4_order", 12.0 <= ratio <= 20.0,
        f"errors ({errs[0]:.3e}, {errs[1]:.3e}) ratio {ratio:.2f}", "ratio in [12, 20]",
    )


SUITES: dict[str, list] = {
    "oracles": [
        check_berry_limit,
        check_invariant_oracle,
        check_spectral_oracle,
        check_overlap_closed_form,
        check_noncyclic_consistency,
    ],
    "gauge": [check_gauge_invariance],
    "convergence": [check_parallel_residual, check_omega_perturbative, check_rk4_order],
}
SUITES["all"] = (
    SUITES["oracles"]
    + SUITES["gauge"]
    + SUITES["convergence"]
    + [check_witness_transition, check_two_route, check_wilczek_zee]
)


def cmd_verify(suite: str) -> int:
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
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:<{width}}  measured: {r.measured}  threshold: {r.threshold}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
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
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "verify":
        return cmd_verify(args.suite)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        print(f"config error: invalid sweep values: {exc}", file=sys.stderr)
        return 2
    return cmd_sweep(args.config, args.axis, values, args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
