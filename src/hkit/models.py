"""Concrete scenarios: decaying two-level system and driven tripod.

The two-level scenario is a qubit with Hamiltonian H0 = (omega0/2) sigma_z
(basis ordered (g, e), sigma_z = diag(-1, +1)), a single jump operator
sigma_minus = |g><e|, and constant rate matrix [[gamma/2]], so that the
excited population decays as exp(-gamma t).  Its dynamical invariant and
eigensystem are known in closed form:

    chi_gg  = -r0 cos(theta0)
    chi_ee  = (2 e^{gamma t} - 1) r0 cos(theta0)
    chi_eg  = r0 sin(theta0) e^{gamma t / 2 - i (omega0 t + phi0)}

    lam_pm  = -r0 [ (1 - e^{gamma t}) cos(theta0) -/+ e^{gamma t/2} sqrt(D) ]
    D       = 1 - (1 - e^{gamma t}) cos^2(theta0)
    f       = -r0 [ e^{gamma t/2} cos(theta0) - sqrt(D) ]
    N       = (f^2 + r0^2 sin^2(theta0))^{-1/2}

with eigenvectors (components ordered (g, e), w = omega0 t + phi0)

    |+> = N (f, r0 sin(theta0) e^{-i w}),
    |-> = N (r0 sin(theta0) e^{i w}, -f).

Everything else in this module is bookkeeping around these formulas.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import holonomy
from .dynamics import LindbladModel, OperatorTrajectory, TimeGrid
from .frames import ConnectionSeries, FrameTrajectory
from .matlib import CMatrix, principal_phase, stack_last

SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

NORM_DENOM_TOL = 1e-24
THETA0_WINDOW_MIN = np.pi / 7.0
WEAK_COUPLING_MAX = 1e-2
ADIABATIC_RATE_MAX = 1e-2


@dataclass
class TwoLevelDecayParams:
    """Parameters of the decaying two-level scenario.

    omega0: level splitting (> 0); gamma: decay rate (>= 0); (r0, theta0,
    phi0): Bloch radius and angles of the invariant at t = 0.
    """

    omega0: float = 1.0
    gamma: float = 0.0
    r0: float = 1.0
    theta0: float = np.pi / 2.0
    phi0: float = 0.0

    def __post_init__(self) -> None:
        if not self.omega0 > 0.0:
            raise ValueError("omega0 must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if not 0.0 < self.r0 <= 1.0:
            raise ValueError("r0 must lie in (0, 1]")
        if not 0.0 <= self.theta0 <= np.pi:
            raise ValueError("theta0 must lie in [0, pi]")


def two_level_model(params: TwoLevelDecayParams) -> LindbladModel:
    H0 = 0.5 * params.omega0 * SIGMA_Z
    if params.gamma == 0.0:
        return LindbladModel(dim=2, hamiltonian=lambda t: H0)
    rates = np.array([[0.5 * params.gamma]])
    return LindbladModel(
        dim=2,
        hamiltonian=lambda t: H0,
        jump_ops=[lambda t: SIGMA_MINUS],
        couplings=lambda t: rates,
    )


def chi_closed_form(params: TwoLevelDecayParams, t: float) -> CMatrix:
    """Dynamical invariant of the decay model at time t (basis (g, e))."""
    g, w0 = params.gamma, params.omega0
    c, s = np.cos(params.theta0), np.sin(params.theta0)
    chi_gg = -params.r0 * c
    chi_ee = (2.0 * np.exp(g * t) - 1.0) * params.r0 * c
    chi_eg = params.r0 * s * np.exp(0.5 * g * t - 1j * (w0 * t + params.phi0))
    return np.array([[chi_gg, np.conj(chi_eg)], [chi_eg, chi_ee]], dtype=complex)


def _f_and_friends(params: TwoLevelDecayParams, t: np.ndarray):
    """(D, sqrt(D), f, df/dt) of the closed-form eigenproblem."""
    g = params.gamma
    c = np.cos(params.theta0)
    e_gt = np.exp(g * t)
    e_half = np.exp(0.5 * g * t)
    D = 1.0 - (1.0 - e_gt) * c * c
    sqrtD = np.sqrt(D)
    f = -params.r0 * (e_half * c - sqrtD)
    fdot = -params.r0 * (0.5 * g * e_half * c - 0.5 * g * e_gt * c * c / sqrtD)
    return D, sqrtD, f, fdot


def analytic_frames(params: TwoLevelDecayParams, grid: TimeGrid) -> FrameTrajectory:
    """Closed-form eigenframes of the invariant, sampled on a grid (gauge
    'analytic').

    Columns of vectors[k] are (|+>, |->); eigenvalues are ordered the same
    way (eigenvalues[:, 0] is the + branch).  Raises ValueError where the
    normalization denominator vanishes, i.e. near theta0 = 0.
    """
    t = grid.times
    g, w0 = params.gamma, params.omega0
    c, s = np.cos(params.theta0), np.sin(params.theta0)
    e_gt = np.exp(g * t)
    e_half = np.exp(0.5 * g * t)
    D, sqrtD, f, _ = _f_and_friends(params, t)

    lam = np.empty((grid.n_steps, 2))
    lam[:, 0] = -params.r0 * ((1.0 - e_gt) * c - e_half * sqrtD)
    lam[:, 1] = -params.r0 * ((1.0 - e_gt) * c + e_half * sqrtD)

    denom = f * f + (params.r0 * s) ** 2
    if np.min(denom) < NORM_DENOM_TOL:
        raise ValueError(
            f"analytic frames undefined: normalization denominator {np.min(denom):.3e} "
            "(basis ill-defined near theta0 = 0)"
        )
    w = w0 * t + params.phi0
    off = params.r0 * s * np.exp(-1j * w)
    norm = 1.0 / np.sqrt(denom)
    vectors = stack_last((grid.n_steps, 2, 2))
    vectors[:, 0, 0] = norm * f
    vectors[:, 1, 0] = norm * off
    vectors[:, 0, 1] = norm * np.conj(off)
    vectors[:, 1, 1] = -norm * f
    return FrameTrajectory(
        grid=grid, eigenvalues=lam, blocks=[[0], [1]], vectors=vectors, gauge_tag="analytic"
    )


def analytic_connection(params: TwoLevelDecayParams, grid: TimeGrid) -> ConnectionSeries:
    """Exact connection in the (+, -) closed-form basis.

    A_++ = -A_-- = omega0 N^2 r0^2 sin^2(theta0),
    A_+- = -N^2 r0 sin(theta0) e^{i w} (omega0 f + i df/dt), w = omega0 t + phi0,
    A_-+ = conj(A_+-).
    """
    t = grid.times
    w0 = params.omega0
    s = np.sin(params.theta0)
    _, _, f, fdot = _f_and_friends(params, t)
    n2 = 1.0 / (f * f + (params.r0 * s) ** 2)
    alpha = w0 * n2 * (params.r0 * s) ** 2
    beta = -n2 * params.r0 * s * np.exp(1j * (w0 * t + params.phi0)) * (
        w0 * f + 1j * fdot
    )
    A = stack_last((grid.n_steps, 2, 2))
    A[:, 0, 0] = alpha
    A[:, 1, 1] = -alpha
    A[:, 0, 1] = beta
    A[:, 1, 0] = np.conj(beta)
    return ConnectionSeries(grid=grid, samples=A, herm_deviation=0.0)


def overlap_closed_form(params: TwoLevelDecayParams, t) -> np.ndarray:
    """Frame overlap W(t, 0) = V(0)^dag V(t) in closed form, basis (+, -);
    shape t.shape + (2, 2)."""
    t = np.asarray(t, dtype=float)
    _, _, f_t, _ = _f_and_friends(params, t)
    s2 = np.sin(0.5 * params.theta0)
    c2 = np.cos(0.5 * params.theta0)
    norm_t = 1.0 / np.sqrt(f_t**2 + (params.r0 * np.sin(params.theta0)) ** 2)
    rot = np.exp(-1j * params.omega0 * t)
    u_d = norm_t * s2 * (f_t + 2.0 * params.r0 * rot * c2 * c2)
    u_od = norm_t * np.exp(-1j * params.phi0) * c2 * (
        f_t - 2.0 * params.r0 * rot * s2 * s2
    )
    rows = [np.stack([u_d, -np.conj(u_od)], axis=-1), np.stack([u_od, np.conj(u_d)], axis=-1)]
    return np.stack(rows, axis=-2)


def eta_zeta_approx(params: TwoLevelDecayParams, t):
    """Weak-coupling stationary solution of the rotating-frame flow.

    eta(t)  = arccot[ cot(theta0) (1 + gamma t / 2) ]
    zeta(t) = omega0 t + phi0 - gamma cos(theta0) / (2 omega0)

    valid for theta0 well inside (pi/7, pi) and gamma/omega0 << 1; at
    theta0 = pi/2 both reduce to the gamma-independent exact solution.
    """
    t = np.asarray(t, dtype=float)
    c, s = np.cos(params.theta0), np.sin(params.theta0)
    eta = np.arctan2(s, c * (1.0 + 0.5 * params.gamma * t))
    zeta = params.omega0 * t + params.phi0 - params.gamma * c / (2.0 * params.omega0)
    return eta, zeta


def _rot_frame(eta: float, zeta: float) -> CMatrix:
    """The coset frame exp[eta (e^{-i zeta} sigma_- - e^{i zeta} sigma_+) / 2],
    basis (+, -)."""
    ch, sh = np.cos(0.5 * eta), np.sin(0.5 * eta)
    return np.array(
        [[ch, -sh * np.exp(1j * zeta)], [sh * np.exp(-1j * zeta), ch]], dtype=complex
    )


def rotating_frame_numeric(
    params: TwoLevelDecayParams, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eta, zeta, Omega) of the off-diagonal-free rotating frame along the grid.

    The frame R(t) = e^{i omega} R0 W(t, 0) is holonomy.diagonalizing_frame
    on the closed-form frames and connection sampled on grid.refined(),
    from the coset frame R0 at the weak-coupling solution
    eta_zeta_approx(t0), which centers the first-order approximation on
    the true trajectory.  det R = 1, since det R0 = 1, det W = 1 (the
    closed-form det V is -1 throughout) and the phases sum to tr A = 0 of
    the closed-form connection.  So R = [[a, -conj(b)], [b, conj(a)]] is
    the coset frame times diag(e^{i alpha}, e^{-i alpha}), alpha = arg a, and

        eta = 2 atan2(|b|, |a|),   zeta = -arg b - alpha,

    with zeta unwrapped and anchored at its start value.  Omega is the
    accumulated (+,+) entry of the coset frame's rotated connection
    R A R^dag + i R dR^dag/dt, i.e. the diagonal phase generated by the
    transport problem after the off-diagonal part has been rotated away;
    the diagonal gauge adds d(alpha)/dt to that entry, so Omega is the
    first column of omega minus alpha.  The coset coordinates are
    singular where sin(eta) vanishes, which is rejected.
    """
    eta0, zeta0 = (float(x) for x in eta_zeta_approx(params, grid.t0))
    # before the frames and connection, which divide by zero at theta0 = 0
    if abs(np.sin(eta0)) < 1e-10:
        raise ValueError(f"rotating-frame flow singular at eta={eta0:.3e}")
    fine = grid.refined()
    R, omega = holonomy.diagonalizing_frame(
        analytic_frames(params, fine), analytic_connection(params, fine), _rot_frame(eta0, zeta0)
    )
    a, b = R[:, 0, 0], R[:, 1, 0]
    eta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    bad = np.abs(np.sin(eta)) < 1e-10
    if bad.any():
        raise ValueError(f"rotating-frame flow singular at eta={eta[np.argmax(bad)]:.3e}")
    alpha = np.unwrap(np.angle(a))
    alpha -= alpha[0]
    zeta = np.unwrap(-np.angle(b) - alpha)
    zeta += zeta0 - zeta[0]
    return eta, zeta, omega[:, 0] - alpha


def omega_approx(params: TwoLevelDecayParams, t) -> tuple[np.ndarray, float]:
    """Weak-coupling diagonal phase of the rotating frame, with kappa(theta0).

    Omega(t) ~ omega0 t + (gamma / omega0) kappa (1 - cos(omega0 t)),
    kappa(theta0) = cos(theta0) (1 - cos(theta0)) / 4,

    the first-order expansion in gamma of the Omega that
    rotating_frame_numeric integrates (t0 = 0).  Derivation, with
    c = cos(theta0), s = sin(theta0), eta = theta0 + gamma e,
    zeta = omega0 t + phi0 + gamma z:

    - to O(gamma), f = r0 (1 - c)(1 - gamma c t / 2),
      df/dt = -gamma r0 c (1 - c) / 2 and
      N^2 = [1 + gamma c (1 - c) t / 2] / [2 r0^2 (1 - c)];
    - projected onto the coset frame R(eta, zeta), the flow
      dR/dt = -i offdiag(R A R^dag) R, which holonomy.diagonalizing_frame
      solves in closed form, moves the coset coordinates by
      (w = omega0 t + phi0)

          eta'  = 2 N^2 r0 s [omega0 f sin(w - zeta) + f' cos(w - zeta)],
          zeta' = 2 N^2 r0 s [omega0 r0 s
                  + cot(eta) (f' sin(w - zeta) - omega0 f cos(w - zeta))],

      which to O(gamma) reduce to e' = -s (omega0 z + c/2) and
      z' = omega0 (e/s + c t / 2); eta_zeta_approx fixes e(0) = 0 and
      z(0) = -c / (2 omega0), so e = s c [sin(omega0 t) / omega0 - t] / 2
      and z = -c cos(omega0 t) / (2 omega0);
    - the (+,+) entry of R A R^dag + i R dR^dag/dt is
      alpha cos(eta) + sin(eta) N^2 r0 s (omega0 f cos(w - zeta)
      - f' sin(w - zeta)) + zeta' (1 - cos(eta)) / 2; it is omega0 at
      gamma = 0 and its O(gamma) part is (1 - c) z' / 2: the secular
      terms in t and in e cancel, leaving kappa sin(omega0 t).

    The term vanishes at full periods omega0 t = 2 pi k, does not depend
    on r0 or phi0, and is zero on the equator.  A former expansion
    omega0 t [1 + gamma S t / 2] with S = -c (1/2 - c + 3 c^2 / 8) / (1 - c)
    disagrees with the integrated flow: at theta0 = 2 pi / 3 and
    t = 2 pi its gamma T^2 S / 2 first-order term is the entire remainder.
    Undefined at theta0 = 0, where the basis itself degenerates.
    """
    if params.theta0 == 0.0:
        raise ValueError("kappa(theta0) is undefined at theta0 = 0")
    c = np.cos(params.theta0)
    kappa = 0.25 * c * (1.0 - c)
    w0 = params.omega0
    t = np.asarray(t, dtype=float)
    return w0 * t + (params.gamma / w0) * kappa * (1.0 - np.cos(w0 * t)), float(kappa)


def berry_reference(params: TwoLevelDecayParams) -> np.ndarray:
    """Cyclic adiabatic phases +/- pi (1 - cos theta0), wrapped to (-pi, pi].

    At theta0 = pi/2 both land on the seam and are reported as (+pi, +pi).
    """
    base = np.pi * (1.0 - np.cos(params.theta0))
    phases = principal_phase(np.array([base, -base]))
    phases = np.where(np.isclose(phases, -np.pi, atol=1e-12), np.pi, phases)
    return np.sort(phases)


def scenario_warnings(params: TwoLevelDecayParams) -> list[str]:
    """Human-readable validity warnings for the weak-coupling closed forms."""
    out = []
    if params.theta0 < THETA0_WINDOW_MIN:
        out.append(
            f"theta0={params.theta0:.4f} below validity window "
            f"(>= {THETA0_WINDOW_MIN:.4f} required for the weak-coupling forms)"
        )
    if params.gamma / params.omega0 > WEAK_COUPLING_MAX:
        out.append(
            f"gamma/omega0={params.gamma / params.omega0:.3e} outside the "
            f"weak-coupling regime (<= {WEAK_COUPLING_MAX:.0e})"
        )
    return out


# --- driven tripod (degenerate dark pair) ---------------------------------


def tripod_hamiltonian(rabi: float, theta, phi, chi=0.0) -> np.ndarray:
    """Hub-and-legs coupling H = sum_j Omega_j |j><0| + h.c. (dim 4), of
    shape (..., 4, 4) for angles broadcasting to shape (...).

    The coupling vector (Omega_1, Omega_2, Omega_3) = rabi * (sin theta cos
    phi e^{i chi}, sin theta sin phi, cos theta) has constant norm, so the
    spectrum is {-rabi, 0, 0, +rabi} with a doubly degenerate dark pair.
    With chi = 0 the Hamiltonian is real and every dark-pair holonomy is a
    plane rotation; a time-dependent chi makes the dark transport genuinely
    non-Abelian.
    """
    theta, phi, chi = np.broadcast_arrays(theta, phi, chi)
    H = stack_last(theta.shape + (4, 4), np.zeros)
    H[..., 1, 0] = rabi * (np.sin(theta) * np.cos(phi) * np.exp(1j * chi))
    H[..., 2, 0] = rabi * (np.sin(theta) * np.sin(phi))
    H[..., 3, 0] = rabi * np.cos(theta)
    H[..., 0, 1:] = H[..., 1:, 0].conj()
    return H


def palindrome_loop(loop: Callable[[np.ndarray], tuple]) -> Callable[[np.ndarray], tuple]:
    """Traverse `loop` forward on s in [0, 1/2] and backward on [1/2, 1]."""
    return lambda s: loop(np.where(s <= 0.5, 2.0 * s, 2.0 - 2.0 * s))


def _loop_a(s: np.ndarray) -> tuple:
    return np.pi / 3.0 + 0.4 * np.sin(2.0 * np.pi * s), 2.0 * np.pi * s


def _loop_b(s: np.ndarray) -> tuple:
    return (
        np.pi / 3.0 + 0.3 * np.sin(2.0 * np.pi * s),
        -2.0 * np.pi * s,
        0.9 * np.sin(2.0 * np.pi * s),
    )


# Both loops share the base point (pi/3, 0, 0); loop b carries a relative
# coupling phase so its dark holonomy leaves the plane-rotation subgroup
# traced out by the phase-free loop a.
WZ_LOOPS = {"a": _loop_a, "b": _loop_b, "a_palindrome": palindrome_loop(_loop_a)}


def wilczek_zee_demo(
    rabi: float = 1.0,
    loop: Callable[[np.ndarray], tuple] = WZ_LOOPS["a"],
    duration: float = 1500.0,
) -> LindbladModel:
    """Closed tripod model driven around a loop in (theta, phi[, chi]).

    loop(s) for an array s of points in [0, 1] returns the coupling angles
    at each point (a third component, the relative phase chi, defaults to
    0); the default is WZ_LOOPS["a"], the tilted circle
    theta = pi/3 + 0.4 sin(2 pi s), phi = 2 pi s.  The dark-bright gap is
    rabi everywhere (see tripod_hamiltonian), and the sweep must be
    adiabatic: max |dH/dt| below ADIABATIC_RATE_MAX in units of rabi^2,
    probed at 257 points.  The rate is formed from the unit-rabi
    Hamiltonian in Python floats, max|dH_1| / ds / duration / rabi, which
    neither overflows nor warns for any finite positive rabi and duration.
    """
    if rabi <= 0.0:
        raise ValueError("rabi must be positive")
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    s = np.linspace(0.0, 1.0, 257)
    step = float(np.max(np.abs(np.diff(tripod_hamiltonian(1.0, *loop(s)), axis=0))))
    rate = step / float(s[1]) / duration / rabi
    if rate > ADIABATIC_RATE_MAX:
        raise ValueError(
            f"parameter sweep too fast for the adiabatic regime "
            f"(rate {rate:.3e} > {ADIABATIC_RATE_MAX:.0e}); increase duration"
        )
    return LindbladModel(
        dim=4, hamiltonian=lambda t: tripod_hamiltonian(rabi, *loop(t / duration))
    )


def adiabatic_invariant_trajectory(model: LindbladModel, grid: TimeGrid) -> OperatorTrajectory:
    """Hamiltonian samples packaged as an invariant trajectory.

    For an adiabatic closed system the invariant tracks the instantaneous
    Hamiltonian (dI/dt ~ 0 forces a common eigenbasis), so H(t) itself
    provides the basis trajectory for the transport pipeline.
    """
    return OperatorTrajectory(grid=grid, samples=model.operators(grid.times)[0], kind="invariant")
