"""The four benchmark workloads: seeded inputs, the timed operation, and the
correctness gate of each operation.

A workload turns a numpy Generator into operations ("ops"): one parameter
draw, one unit of user work, timed as a whole.  Gates reuse the thresholds
of the acceptance checks in ``hkit.cli`` and the references in
``hkit.models``.

Parameters are drawn inside each scenario's validity window
(theta0 in [pi/7, 6pi/7], gamma/omega0 <= 1e-2, rabi >= 1 with the default
adiabatic durations).  No workload passes ``case_tag``: every scenario runs
its documented default.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hkit import cli, dynamics, frames, matlib, models
from hkit.dynamics import TimeGrid
from hkit.models import TwoLevelDecayParams

THETA0_RANGE = (np.pi / 7.0, 6.0 * np.pi / 7.0)
PERIOD = 2.0 * np.pi  # omega0 = 1 throughout

BERRY_PHASE_TOL = 1e-5  # check_berry_limit
DRIFT_TOL = 1e-8  # invariant-expectation drift of the analytic-frame decay run
WZ_COMMUTATOR_MIN = 1e-3  # check_wilczek_zee
WZ_IDENTITY_TOL = 1e-5  # check_wilczek_zee
WZ_UNITARY_TOL = 1e-8  # check_wilczek_zee
TWO_ROUTE_TOL = 1e-6  # check_two_route
ETA_ZETA_TOL = 1e-4  # test_weak_coupling_solution_tracks_the_integrated_flow


@dataclass
class Op:
    """One timed unit of work in hkit and the gate that judges its output.

    ``check`` receives what ``run`` returned and returns the gate failures
    (empty when the output is correct) and ungated diagnostics.  ``runs``
    counts the ``hkit run`` calls the op makes, whose artifacts land in
    ``out_dirs``.
    """

    label: str
    n_steps: int
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict[str, float]]]
    runs: int = 0
    out_dirs: list[Path] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    why: str
    make_op: Callable[[np.random.Generator, Path, bool], Op]
    grids: dict[str, int] = field(default_factory=dict)


def _theta0(rng: np.random.Generator) -> float:
    return float(rng.uniform(*THETA0_RANGE))


def _phi0(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * np.pi))


def _grid(t1: float, n_steps: int) -> dict:
    return {"t0": 0.0, "t1": t1, "n_steps": n_steps}


def _cli_op(label: str, configs: dict[str, dict], work: Path, check) -> Op:
    """``hkit run`` on each config, written to ``work`` before timing starts.

    ``check`` receives the ``holonomy.json`` payloads by config name.
    """
    work.mkdir(parents=True, exist_ok=True)
    argvs, outs = {}, {}
    for name, raw in configs.items():
        config = work / f"{name}.json"
        config.write_text(json.dumps(raw))
        outs[name] = work / name
        argvs[name] = ["run", "--config", str(config), "--out", str(outs[name])]

    def run():
        return {name: cli.main(argv) for name, argv in argvs.items()}

    def gated(codes):
        fails = [f"hkit run {name} exited {code}" for name, code in codes.items() if code]
        if fails:
            return fails, {}
        return check({n: json.loads((o / "holonomy.json").read_text()) for n, o in outs.items()})

    steps = sum(raw["grid"]["n_steps"] for raw in configs.values())
    return Op(label, steps, run, gated, len(configs), list(outs.values()))


def _matrix(payload: dict) -> np.ndarray:
    return np.array(payload["re"]) + 1j * np.array(payload["im"])


# --- berry_closed_20k ------------------------------------------------------

BERRY_STEPS = {"full": 20000, "smoke": 2000}


def _berry_op(rng, work, smoke):
    theta0, phi0 = _theta0(rng), _phi0(rng)
    n = BERRY_STEPS["smoke" if smoke else "full"]
    raw = {
        "scenario": "berry_closed",
        "params": {"theta0": theta0, "phi0": phi0},
        "grid": _grid(PERIOD, n),
        "frame_source": "continuity",
    }
    ref = models.berry_reference(TwoLevelDecayParams(theta0=theta0))

    def check(payloads):
        err = matlib.match_phase_sets(payloads["berry"]["eigenphases"], ref)
        fails = [] if err <= BERRY_PHASE_TOL else [f"eigenphase error {err:.3e}"]
        return fails, {"theta0": theta0, "eigenphase_error": err}

    return _cli_op("berry", {"berry": raw}, work, check)


# --- decay_open_analytic ---------------------------------------------------

DECAY_STEPS = {"full": 8001, "smoke": 801}


def _decay_op(rng, work, smoke):
    theta0, phi0 = _theta0(rng), _phi0(rng)
    gamma = float(1e-2 * (1.0 - rng.random()))  # (0, 1e-2]
    n = DECAY_STEPS["smoke" if smoke else "full"]
    raw = {
        "scenario": "two_level_decay",
        "params": {"theta0": theta0, "phi0": phi0, "gamma": gamma},
        "grid": _grid(PERIOD, n),
        "frame_source": "analytic",
    }

    def check(payloads):
        drift = payloads["decay"]["metadata"]["invariant_expectation_drift"]
        unit = matlib.unitary_defect(_matrix(payloads["decay"]["matrices"]["O"]))
        fails = []
        if drift > DRIFT_TOL:
            fails.append(f"invariant-expectation drift {drift:.3e}")
        if unit > matlib.UNITARY_TOL:
            fails.append(f"O unitary defect {unit:.3e}")
        return fails, {"theta0": theta0, "gamma": gamma, "drift": drift, "unitary_defect": unit}

    return _cli_op("decay", {"decay": raw}, work, check)


# --- tripod_loops ----------------------------------------------------------

# One op runs the three loops with one rabi: timing single loops would mix
# 2001- and 4001-step runs in one median.
# loop id -> (name, duration, steps); the palindrome runs loop a forth and
# back, so it takes twice the duration at the same rate.  The smoke size
# halves duration and steps together: the RK4 density step dt = 0.75 is
# already near its stability limit 2 sqrt(2) / (2 rabi) at rabi = 1.5.
TRIPOD_LOOPS = (
    (0.0, "a", 1500.0, 2001),
    (1.0, "b", 1500.0, 2001),
    (2.0, "a_palindrome", 3000.0, 4001),
)
TRIPOD_RABI = (1.0, 1.5)


def _dark_block(payload: dict) -> np.ndarray:
    return _matrix(payload["matrices"]["O"])[1:3, 1:3]


def _tripod_op(rng, work, smoke):
    rabi = float(rng.uniform(*TRIPOD_RABI))
    configs = {}
    for loop_id, name, duration, n_steps in TRIPOD_LOOPS:
        if smoke:
            duration, n_steps = duration / 2.0, (n_steps - 1) // 2 + 1
        configs[f"loop_{name}"] = {
            "scenario": "wilczek_zee",
            "params": {"rabi": rabi, "loop": loop_id, "duration": duration},
            "grid": _grid(duration, n_steps),
        }

    def check(payloads):
        H = {name: _dark_block(p) for name, p in payloads.items()}
        unit = max(matlib.unitary_defect(h) for h in H.values())
        Ha, Hb = H["loop_a"], H["loop_b"]
        comm = float(np.max(np.abs(Ha @ Hb - Hb @ Ha)))
        ident = float(np.max(np.abs(H["loop_a_palindrome"] - np.eye(2))))
        fails = []
        if not comm > WZ_COMMUTATOR_MIN:
            fails.append(f"a/b dark-pair commutator {comm:.3e}")
        if ident > WZ_IDENTITY_TOL:
            fails.append(f"palindrome identity defect {ident:.3e}")
        if unit > WZ_UNITARY_TOL:
            fails.append(f"dark holonomy unitary defect {unit:.3e}")
        return fails, {
            "rabi": rabi, "commutator": comm, "identity_defect": ident, "unitary_defect": unit,
        }

    return _cli_op("loops", configs, work, check)


# --- moving_basis ----------------------------------------------------------

MOVING_STEPS = {"full": (8001, 4001), "smoke": (1601, 801)}
# eta_zeta_approx is first order in gamma: its remainder at t = 2 pi grows as
# gamma^2 and reaches ETA_ZETA_TOL near gamma = 6.8e-3 (2.1e-4 at 1e-2), so
# this workload draws gamma from (0, 5e-3].
MOVING_GAMMA_MAX = 5e-3


def _moving_op(rng, work, smoke):
    p = TwoLevelDecayParams(
        omega0=1.0,
        gamma=float(MOVING_GAMMA_MAX * (1.0 - rng.random())),
        r0=float(rng.uniform(0.5, 1.0)),
        theta0=_theta0(rng),
        phi0=_phi0(rng),
    )
    n_coeff, n_rot = MOVING_STEPS["smoke" if smoke else "full"]
    grid = TimeGrid(0.0, PERIOD, n_coeff)
    rot_grid = TimeGrid(0.0, PERIOD, n_rot)

    def run():
        model = models.two_level_model(p)
        chi0 = models.chi_closed_form(p, 0.0)
        fr = frames.eigenframes(
            dynamics.propagate(model, chi0, grid.refined(), kind="invariant")
        )
        rho0 = 0.5 * (np.eye(2) + chi0)
        V0 = fr.vectors[0]
        c_traj = dynamics.propagate_coefficients(model, fr, V0.conj().T @ rho0 @ V0, grid)
        rho_direct = dynamics.propagate(model, rho0, grid, kind="density")
        eta, zeta, omega = models.rotating_frame_numeric(p, rot_grid)
        return fr, c_traj, rho_direct, eta[-1], zeta[-1], omega[-1]

    def check(result):
        fr, c_traj, rho_direct, eta, zeta, omega = result
        V = fr.vectors[::2]
        rho_recon = np.einsum("kij,kjl,kml->kim", V, c_traj.samples, V.conj())
        err = float(np.max(np.abs(rho_recon - rho_direct.samples)))
        eta_a, zeta_a = models.eta_zeta_approx(p, rot_grid.t1)
        d_eta, d_zeta = abs(eta - float(eta_a)), abs(zeta - float(zeta_a))
        omega_ref, _ = models.omega_approx(p, rot_grid.t1)
        fails = []
        if err > TWO_ROUTE_TOL:
            fails.append(f"two-route reconstruction error {err:.3e}")
        if d_eta >= ETA_ZETA_TOL or d_zeta >= ETA_ZETA_TOL:
            fails.append(f"eta/zeta off the weak-coupling solution ({d_eta:.3e}, {d_zeta:.3e})")
        # Ungated: the Omega expansion has a known first-order remainder.
        return fails, {
            "theta0": p.theta0, "gamma": p.gamma, "two_route_error": err,
            "eta_error": d_eta, "zeta_error": d_zeta,
            "omega_remainder": abs(omega - float(omega_ref)),
        }

    steps = grid.refined().n_steps + 2 * grid.n_steps + rot_grid.n_steps
    return Op("moving_basis", steps, run, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "berry_closed_20k",
            "Longest grids: constant-generator RK4 propagate and the nondegenerate "
            "continuity gauge chain in eigenframes; the ROADMAP baseline case.",
            _berry_op,
            {"n_steps": BERRY_STEPS["full"]},
        ),
        Workload(
            "decay_open_analytic",
            "Lindblad right-hand side with a jump operator dominates; closed-form "
            "frames bypass eigenframes, so eigenframe work must not move it.",
            _decay_op,
            {"n_steps": DECAY_STEPS["full"]},
        ),
        Workload(
            "tripod_loops",
            "Only 4-level, time-dependent model: H(t) per RK4 stage, degenerate "
            "polar alignment in eigenframes, dim-4 transporter and witness.",
            _tripod_op,
            {f"loop_{name}": n for _, name, _, n in TRIPOD_LOOPS},
        ),
        Workload(
            "moving_basis",
            "Only caller of the coefficient equation and the rotating-frame flow, "
            "both stepper targets that no run workload measures.",
            _moving_op,
            {
                "invariant_refined": TimeGrid(0.0, 1.0, MOVING_STEPS["full"][0]).refined().n_steps,
                "coefficients": MOVING_STEPS["full"][0],
                "density": MOVING_STEPS["full"][0],
                "rotating_frame": MOVING_STEPS["full"][1],
            },
        ),
    )
}
