"""Acceptance checks: the oracles, convergence orders and scenario
properties that ``hkit verify`` runs and the acceptance tests assert.

Each check returns a CheckResult; ``verify`` groups them into SUITES and the
test suite calls the same functions, so there is a single implementation of
every threshold.  Checks that run a scenario go through ``cli.execute``.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import dynamics, frames, holonomy, matlib, models
from .cli import ScenarioConfig, _parse_int, execute
from .dynamics import TimeGrid


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    threshold: str
    detail: str = ""

    def line(self, width: int = 0) -> str:
        """The PASS/FAIL line of ``hkit verify``, the name padded to width."""
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{status}  {self.name:<{width}}  measured: {self.measured}  "
            f"threshold: {self.threshold}"
        )
        if self.detail:
            text += f"  [{self.detail}]"
        return text


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
    # analytic frames carry the closed-form eigenvalues
    res = execute(ScenarioConfig(
        scenario="two_level_decay",
        params={"gamma": 1e-3, "theta0": 2 * np.pi / 3, "phi0": 0.3},
        grid=TimeGrid(0.0, 2.0 * np.pi, 2001), frame_source="analytic",
    ))
    lam_ref = np.sort(res.frames.eigenvalues, axis=1)
    worst = float(np.max(np.abs(matlib.eigh(res.I_traj.samples)[0] - lam_ref)))
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
    res = execute(ScenarioConfig(
        scenario="two_level_decay",
        params={"gamma": 1e-3, "theta0": 2 * np.pi / 3, "phi0": 0.3},
        grid=TimeGrid(0.0, 2.0 * np.pi, 20001), case_tag="nt_nd",
    ))
    base = res.holo
    M = frames.smooth_random_gauge(res.frames, amplitude=0.05, seed=seed)
    alt = holonomy.geometric_phase(frames.gauge_transform(res.frames, M), -1, "nt_nd")
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


def check_parallel_residual() -> CheckResult:
    """6: transport residual small at dt*omega0 = 0.005 and second order in dt."""
    n1 = 1258  # dt ~ 0.005 over one period
    r1, r2 = (
        execute(ScenarioConfig(
            scenario="berry_closed", params={"theta0": 2 * np.pi / 3, "phi0": 0.3},
            grid=TimeGrid(0.0, 2.0 * np.pi, n),
        )).residual
        for n in (n1, 2 * n1 - 1)
    )
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


def check_wilczek_zee() -> CheckResult:
    """10: dark-pair holonomies of two loops fail to commute; palindrome
    traversal returns the identity; each holonomy is unitary."""
    # dark pair of loops a (0), b (1) and a_palindrome (2)
    Ha, Hb, Hpal = (
        execute(ScenarioConfig(
            scenario="wilczek_zee", params={"loop": loop, "duration": duration},
            grid=TimeGrid(0.0, duration, n_steps),
        )).holo.O[1:3, 1:3]
        for loop, duration, n_steps in ((0, 1500.0, 2001), (1, 1500.0, 2001), (2, 3000.0, 4001))
    )
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
    res = execute(ScenarioConfig(
        scenario="two_level_decay",
        params={"gamma": 1e-3, "theta0": np.pi / 3, "phi0": 0.3},
        grid=TimeGrid(0.0, np.pi, 4001), case_tag="nt_nd",
    ))
    phis = np.array(
        [holonomy.noncyclic_abelian_gp(res.frames, lvl, -1, res.conn) for lvl in range(2)]
    )
    err = matlib.match_phase_sets(np.sort(phis), res.holo.eigenphases)
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
