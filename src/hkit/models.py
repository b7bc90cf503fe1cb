"""Concrete scenarios: decaying two-level system, driven tripod, and a
synthetically rotated invariant.

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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import holonomy
from .dynamics import LindbladModel, OperatorTrajectory, TimeGrid
from .frames import ConnectionSeries, FrameTrajectory
from .matlib import CMatrix, principal_phase

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


@dataclass
class TwoLevelEigenData:
    """Closed-form eigensystem of the invariant, sampled on a grid.

    Columns of vectors[k] are (|+>, |->); eigenvalues are ordered the same
    way (lam[:, 0] is the + branch).
    """

    grid: TimeGrid
    eigenvalues: np.ndarray  # (n, 2), columns (+, -)
    f: np.ndarray
    norm: np.ndarray
    vectors: np.ndarray  # (n, 2, 2)
    flags: list[str] = field(default_factory=list)


def eigen_closed_form(params: TwoLevelDecayParams, grid: TimeGrid) -> TwoLevelEigenData:
    """Sampled closed-form eigenvalues and eigenvectors of the invariant."""
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
    flags: list[str] = []
    if np.min(denom) < NORM_DENOM_TOL:
        flags.append(
            f"normalization denominator {np.min(denom):.3e} "
            "(basis ill-defined near theta0 = 0)"
        )
    w = w0 * t + params.phi0
    off = params.r0 * s * np.exp(-1j * w)
    vectors = np.empty((grid.n_steps, 2, 2), dtype=complex)
    # a vanishing denominator is reported through `flags`, not as warnings
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = 1.0 / np.sqrt(denom)
        vectors[:, 0, 0] = norm * f
        vectors[:, 1, 0] = norm * off
        vectors[:, 0, 1] = norm * np.conj(off)
        vectors[:, 1, 1] = -norm * f
    return TwoLevelEigenData(grid, lam, f, norm, vectors, flags)


def analytic_frames(params: TwoLevelDecayParams, grid: TimeGrid) -> FrameTrajectory:
    """Closed-form frames as a FrameTrajectory (gauge 'analytic', order (+, -))."""
    data = eigen_closed_form(params, grid)
    if data.flags:
        raise ValueError("; ".join(data.flags))
    return FrameTrajectory(
        grid=grid,
        eigenvalues=data.eigenvalues,
        blocks=[[0], [1]],
        vectors=data.vectors,
        gauge_tag="analytic",
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
    A = np.empty((grid.n_steps, 2, 2), dtype=complex)
    A[:, 0, 0] = alpha
    A[:, 1, 1] = -alpha
    A[:, 0, 1] = beta
    A[:, 1, 0] = np.conj(beta)
    return ConnectionSeries(grid=grid, samples=A, herm_deviation=0.0)


def overlap_closed_form(params: TwoLevelDecayParams, t: float) -> CMatrix:
    """Frame overlap W(t, 0) = V(0)^dag V(t) in closed form, basis (+, -)."""
    t_arr = np.asarray([float(t)])
    _, _, f, _ = _f_and_friends(params, t_arr)
    f_t = f[0]
    s2 = np.sin(0.5 * params.theta0)
    c2 = np.cos(0.5 * params.theta0)
    norm_t = 1.0 / np.sqrt(f_t**2 + (params.r0 * np.sin(params.theta0)) ** 2)
    rot = np.exp(-1j * params.omega0 * t)
    u_d = norm_t * s2 * (f_t + 2.0 * params.r0 * rot * c2 * c2)
    u_od = norm_t * np.exp(-1j * params.phi0) * c2 * (
        f_t - 2.0 * params.r0 * rot * s2 * s2
    )
    return np.array([[u_d, -np.conj(u_od)], [u_od, np.conj(u_d)]], dtype=complex)


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

    The frame R(t) is holonomy.diagonalizing_frame on the closed-form
    connection sampled on grid.refined(), started from the coset frame at
    the weak-coupling solution eta_zeta_approx(t0), which centers the
    first-order approximation on the true trajectory.  The flow keeps
    det R = 1, so R = [[a, -conj(b)], [b, conj(a)]] is the coset frame
    times diag(e^{i alpha}, e^{-i alpha}), alpha = arg a, and

        eta = 2 atan2(|b|, |a|),   zeta = -arg b - alpha,

    with zeta unwrapped and anchored at its start value.  Omega is the
    accumulated (+,+) entry of the coset frame's rotated connection
    R A R^dag + i R dR^dag/dt, i.e. the diagonal phase generated by the
    transport problem after the off-diagonal part has been rotated away;
    the diagonal gauge adds d(alpha)/dt to that entry, so Omega is the
    flow's first phase column minus alpha.  The coset coordinates are
    singular where sin(eta) vanishes, which is rejected.
    """
    eta0, zeta0 = (float(x) for x in eta_zeta_approx(params, grid.t0))
    # before the connection, which divides by zero at theta0 = 0
    if abs(np.sin(eta0)) < 1e-10:
        raise ValueError(f"rotating-frame flow singular at eta={eta0:.3e}")
    conn = analytic_connection(params, grid.refined())
    R, omega = holonomy.diagonalizing_frame(conn, _rot_frame(eta0, zeta0))
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
      dR/dt = -i offdiag(R A R^dag) R of holonomy.diagonalizing_frame
      moves the coset coordinates by (w = omega0 t + phi0)

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


def tripod_hamiltonian(
    rabi: float, theta: float, phi: float, chi: float = 0.0
) -> CMatrix:
    """Hub-and-legs coupling H = sum_j Omega_j |j><0| + h.c. (dim 4).

    The coupling vector (Omega_1, Omega_2, Omega_3) = rabi * (sin theta cos
    phi e^{i chi}, sin theta sin phi, cos theta) has constant norm, so the
    spectrum is {-rabi, 0, 0, +rabi} with a doubly degenerate dark pair.
    With chi = 0 the Hamiltonian is real and every dark-pair holonomy is a
    plane rotation; a time-dependent chi makes the dark transport genuinely
    non-Abelian.
    """
    om = rabi * np.array(
        [
            np.sin(theta) * np.cos(phi) * np.exp(1j * chi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ]
    )
    H = np.zeros((4, 4), dtype=complex)
    H[1:, 0] = om
    H[0, 1:] = om.conj()
    return H


def wilczek_zee_demo(
    rabi: float = 1.0,
    loop: Callable[[float], tuple] | None = None,
    duration: float = 1500.0,
) -> LindbladModel:
    """Closed tripod model driven around a loop in (theta, phi[, chi]).

    loop(s) for s in [0, 1] returns the coupling angles (a third component,
    the relative phase chi, defaults to 0); the default is a tilted circle
    theta = pi/3 + 0.4 sin(2 pi s), phi = 2 pi s.  The sweep must be
    adiabatic (rate below ADIABATIC_RATE_MAX in units of the gap) and the
    dark-bright gap must stay open along the loop.
    """
    if rabi <= 0.0:
        raise ValueError("rabi must be positive")
    if loop is None:
        loop = lambda s: (np.pi / 3.0 + 0.4 * np.sin(2.0 * np.pi * s), 2.0 * np.pi * s)

    def hamiltonian(t: float) -> CMatrix:
        angles = loop(t / duration)
        return tripod_hamiltonian(rabi, *angles)

    probe = np.linspace(0.0, duration, 257)
    dt = probe[1] - probe[0]
    hs = [hamiltonian(t) for t in probe]
    gaps = []
    for h in hs:
        ev = np.linalg.eigvalsh(h)
        gaps.append(min(ev[1] - ev[0], ev[3] - ev[2]))
    if min(gaps) < 1e-6 * rabi:
        raise ValueError(f"dark-bright gap closes along the loop (min {min(gaps):.3e})")
    rate = max(
        float(np.max(np.abs(hs[i + 1] - hs[i]))) / dt for i in range(len(hs) - 1)
    ) / min(gaps) ** 2
    if rate > ADIABATIC_RATE_MAX:
        raise ValueError(
            f"parameter sweep too fast for the adiabatic regime "
            f"(rate {rate:.3e} > {ADIABATIC_RATE_MAX:.0e}); increase duration"
        )
    return LindbladModel(dim=4, hamiltonian=hamiltonian)


def palindrome_loop(
    loop: Callable[[float], tuple],
) -> Callable[[float], tuple]:
    """Traverse `loop` forward on s in [0, 1/2] and backward on [1/2, 1]."""
    return lambda s: loop(2.0 * s) if s <= 0.5 else loop(2.0 - 2.0 * s)


def adiabatic_invariant_trajectory(model: LindbladModel, grid: TimeGrid) -> OperatorTrajectory:
    """Hamiltonian samples packaged as an invariant trajectory.

    For an adiabatic closed system the invariant tracks the instantaneous
    Hamiltonian (dI/dt ~ 0 forces a common eigenbasis), so H(t) itself
    provides the basis trajectory for the transport pipeline.
    """
    samples = np.array([model.hamiltonian(t) for t in grid.times], dtype=complex)
    return OperatorTrajectory(grid=grid, samples=samples, kind="invariant")


# --- synthetic rotation (frame pipeline fixture) --------------------------


def synthetic_rotation_model(omega: float, lam1: float, lam2: float) -> LindbladModel:
    """Closed qubit with constant H = omega sigma_y, whose exact invariant
    is a rigidly rotated diag(lam1, lam2)."""
    if not lam1 < lam2:
        raise ValueError("need lam1 < lam2 (distinct eigenvalues)")
    H = omega * np.array([[0.0, -1j], [1j, 0.0]])
    return LindbladModel(dim=2, hamiltonian=lambda t: H)


def synthetic_rotation_invariant(
    omega: float, lam1: float, lam2: float, t: float
) -> CMatrix:
    """Exact invariant R(omega t) diag(lam1, lam2) R(omega t)^T."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    R = np.array([[c, -s], [s, c]])
    return (R @ np.diag([lam1, lam2]) @ R.T).astype(complex)
