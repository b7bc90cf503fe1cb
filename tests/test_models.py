"""Unit tests for the concrete scenarios and their closed forms."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from hkit import dynamics, frames, holonomy, matlib, models
from hkit.dynamics import TimeGrid
from hkit.models import TwoLevelDecayParams


def _stencil_derivative(fn, t, h=1e-4):
    """Five-point fourth-order first derivative of a matrix-valued fn."""
    return (fn(t - 2 * h) - 8 * fn(t - h) + 8 * fn(t + h) - fn(t + 2 * h)) / (12 * h)


def test_parameter_validation_names_the_offending_field():
    with pytest.raises(ValueError, match="omega0"):
        TwoLevelDecayParams(omega0=0.0)
    with pytest.raises(ValueError, match="gamma"):
        TwoLevelDecayParams(gamma=-0.1)
    with pytest.raises(ValueError, match="r0"):
        TwoLevelDecayParams(r0=1.5)
    with pytest.raises(ValueError, match="theta0"):
        TwoLevelDecayParams(theta0=-0.2)


def test_invariant_initial_entries():
    p = TwoLevelDecayParams(gamma=0.3, r0=0.8, theta0=1.1, phi0=0.4)
    chi0 = models.chi_closed_form(p, 0.0)
    c, s = np.cos(p.theta0), np.sin(p.theta0)
    assert chi0[0, 0] == pytest.approx(-p.r0 * c)
    assert chi0[1, 1] == pytest.approx(p.r0 * c)
    assert chi0[1, 0] == pytest.approx(p.r0 * s * np.exp(-1j * p.phi0))
    assert matlib.herm_defect(chi0) == 0.0


def test_closed_form_invariant_satisfies_its_equation_of_motion():
    cases = [
        TwoLevelDecayParams(gamma=0.2, theta0=1.0),
        TwoLevelDecayParams(gamma=0.05, theta0=2.5, r0=0.7, phi0=1.0),
        TwoLevelDecayParams(gamma=0.0, theta0=np.pi / 2),
    ]
    for p in cases:
        model = models.two_level_model(p)
        for t in (0.4, 1.7, 3.0):
            lhs = _stencil_derivative(lambda s: models.chi_closed_form(p, s), t)
            chi = models.chi_closed_form(p, t)
            L = dynamics.liouvillian(*model.operators(t))[0]
            rhs = (-L.conj().T @ chi.reshape(-1)).reshape(2, 2)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_closed_form_eigensystem_matches_direct_diagonalization():
    p = TwoLevelDecayParams(gamma=0.15, theta0=2.0, r0=0.9, phi0=0.3)
    grid = TimeGrid(0.0, 3.0, 41)
    data = models.analytic_frames(p, grid)
    for k, t in enumerate(grid.times):
        chi = models.chi_closed_form(p, t)
        lam, vecs = np.linalg.eigh(chi)  # ascending: (-, +)
        assert abs(data.eigenvalues[k, 0] - lam[1]) < 1e-9
        assert abs(data.eigenvalues[k, 1] - lam[0]) < 1e-9
        for col, ref in ((0, vecs[:, 1]), (1, vecs[:, 0])):
            v = data.vectors[k][:, col]
            # equality up to a phase
            assert abs(abs(np.vdot(ref, v)) - 1.0) < 1e-9
    # eigenvalue sum equals the invariant trace
    tr = [np.trace(models.chi_closed_form(p, t)).real for t in grid.times]
    assert np.max(np.abs(data.eigenvalues.sum(axis=1) - tr)) < 1e-12


def test_degenerate_basis_at_the_pole_is_flagged():
    p = TwoLevelDecayParams(gamma=0.0, theta0=0.0)
    with pytest.raises(ValueError, match="ill-defined"):
        models.analytic_frames(p, TimeGrid(0.0, 1.0, 5))


def test_overlap_closed_form_identity_and_unitarity():
    p = TwoLevelDecayParams(gamma=0.04, theta0=2 * np.pi / 3, phi0=0.7)
    assert np.max(np.abs(models.overlap_closed_form(p, 0.0) - np.eye(2))) < 1e-12
    for t in np.linspace(0.0, 7.0, 29):
        W = models.overlap_closed_form(p, t)
        assert np.max(np.abs(W.conj().T @ W - np.eye(2))) < 1e-10


def test_overlap_closed_form_equals_the_frame_product():
    p = TwoLevelDecayParams(gamma=0.02, theta0=1.3, r0=0.85, phi0=0.2)
    grid = TimeGrid(0.0, 5.0, 201)
    fr = models.analytic_frames(p, grid)
    ks = np.array([40, 120, 200])
    for k in ks:
        W = models.overlap_closed_form(p, grid.times[k])
        assert np.max(np.abs(W - frames.overlap(fr, k))) < 1e-12
    stacked = models.overlap_closed_form(p, grid.times[ks])
    assert stacked.shape == (3, 2, 2)
    assert np.max(np.abs(stacked - frames.overlap(fr, ks))) < 1e-12


def _euler_angle_rotating_frame(p, grid):
    """The scalar RK4 over (eta, zeta, Omega) that rotating_frame_numeric
    replaced, kept as the reference: the flow equations of the coset frame
    R(eta, zeta) = exp[eta (e^{-i zeta} sigma_- - e^{i zeta} sigma_+) / 2]
    and the (+,+) entry of its rotated connection, from the closed-form
    connection at every stage time."""
    s = np.sin(p.theta0)

    def rhs(t, y):
        eta, zeta = y[0], y[1]
        _, _, f, fdot = models._f_and_friends(p, np.asarray([t]))
        f, fdot = f[0], fdot[0]
        n2 = 1.0 / (f * f + (p.r0 * s) ** 2)
        big = p.omega0 * t + p.phi0 - zeta
        pref = 2.0 * n2 * p.r0 * s
        deta = pref * (p.omega0 * f * np.sin(big) + fdot * np.cos(big))
        dzeta = pref * (
            p.omega0 * p.r0 * s
            + (np.cos(eta) / np.sin(eta)) * (-p.omega0 * f * np.cos(big) + fdot * np.sin(big))
        )
        alpha = p.omega0 * n2 * (p.r0 * s) ** 2
        beta = -n2 * p.r0 * s * np.exp(1j * (p.omega0 * t + p.phi0)) * (
            p.omega0 * f + 1j * fdot
        )
        A = np.array([[alpha, beta], [np.conj(beta), -alpha]])
        J = np.array([[0.0, -np.exp(1j * zeta)], [np.exp(-1j * zeta), 0.0]])
        dJ = np.array([[0.0, -1j * np.exp(1j * zeta)], [-1j * np.exp(-1j * zeta), 0.0]])
        ch, sh = np.cos(0.5 * eta), np.sin(0.5 * eta)
        R = ch * np.eye(2) + sh * J
        Rdot = 0.5 * (-sh * np.eye(2) + ch * J) * deta + sh * dJ * dzeta
        tilde = R @ A @ R.conj().T + 1j * R @ Rdot.conj().T
        return np.array([deta, dzeta, tilde[0, 0].real])

    y = np.array([*(float(x) for x in models.eta_zeta_approx(p, grid.t0)), 0.0])
    out = [y]
    dt = grid.dt
    for t in grid.times[:-1]:
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out).T


def test_rotating_frame_matches_the_euler_angle_reference():
    """The closed-form frame against a fourth-order discretization of its
    flow: on these draws they differ by at most about 2e-14 at 2001 steps
    and 1e-13 at 1001."""
    rng = np.random.default_rng(29)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    for _ in range(4):
        p = TwoLevelDecayParams(
            gamma=float(5e-3 * (1.0 - rng.random())),
            r0=float(rng.uniform(0.5, 1.0)),
            theta0=float(rng.uniform(np.pi / 7, 6 * np.pi / 7)),
            phi0=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        got = models.rotating_frame_numeric(p, grid)
        ref = _euler_angle_rotating_frame(p, grid)
        for name, x, y in zip(("eta", "zeta", "Omega"), got, ref):
            assert np.max(np.abs(x - y)) < 1e-11, (name, p)


def test_rotating_frame_flow_fixed_point_when_closed():
    """gamma = 0: eta stays at theta0, zeta advances at omega0 from phi0,
    and Omega = omega0 t."""
    p = TwoLevelDecayParams(gamma=0.0, theta0=1.2, omega0=1.7, phi0=0.5, r0=0.8)
    grid = TimeGrid(0.0, 5.0, 4001)
    eta, zeta, om = models.rotating_frame_numeric(p, grid)
    t = grid.times
    assert np.max(np.abs(eta - p.theta0)) < 1e-11
    assert np.max(np.abs(zeta - (p.omega0 * t + p.phi0))) < 1e-11
    assert np.max(np.abs(om - p.omega0 * t)) < 1e-11


def test_rotating_frame_flow_rejects_the_coordinate_singularity():
    """Both poles of the Bloch sphere, theta0 = 0 and pi, are refused."""
    for theta0 in (0.0, np.pi):
        p = TwoLevelDecayParams(gamma=0.01, theta0=theta0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular"):
                models.rotating_frame_numeric(p, TimeGrid(0.0, 1.0, 11))


def test_rotating_frame_diagonalizes_the_connection():
    """R stays unitary and R A R^dag + i R dR^dag/dt has no off-diagonal
    part (dR/dt from a fourth-order stencil of the samples)."""
    p = TwoLevelDecayParams(gamma=0.05, theta0=2.0, r0=0.9, phi0=0.4)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    fine = grid.refined()
    eta0, zeta0 = (float(x) for x in models.eta_zeta_approx(p, 0.0))
    R, _ = holonomy.diagonalizing_frame(
        models.analytic_frames(p, fine),
        models.analytic_connection(p, fine),
        models._rot_frame(eta0, zeta0),
    )
    assert matlib.unitary_defect(R) < 1e-12
    A = models.analytic_connection(p, grid).samples
    dR = (R[:-4] - 8.0 * R[1:-3] + 8.0 * R[3:-1] - R[4:]) / (12.0 * grid.dt)
    Rc = R[2:-2]
    Rh = Rc.conj().swapaxes(1, 2)
    rotated = Rc @ A[2:-2] @ Rh + 1j * Rc @ dR.conj().swapaxes(1, 2)
    assert np.max(np.abs(rotated[:, 0, 1])) < 1e-10
    assert np.max(np.abs(rotated[:, 1, 0])) < 1e-10


def test_weak_coupling_solution_tracks_the_integrated_flow():
    p = TwoLevelDecayParams(gamma=1e-3, theta0=2 * np.pi / 3)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    eta_n, zeta_n, _ = models.rotating_frame_numeric(p, grid)
    eta_a, zeta_a = models.eta_zeta_approx(p, grid.t1)
    assert abs(eta_n[-1] - eta_a) < 1e-4
    assert abs(zeta_n[-1] - zeta_a) < 1e-4


def test_diagonal_phase_coefficient_values():
    k_flat = models.omega_approx(TwoLevelDecayParams(theta0=np.pi / 2), 1.0)[1]
    assert k_flat == pytest.approx(0.0, abs=1e-15)
    k_pole = models.omega_approx(TwoLevelDecayParams(theta0=np.pi), 1.0)[1]
    assert k_pole == pytest.approx(-0.5)
    k_mid = models.omega_approx(TwoLevelDecayParams(theta0=2 * np.pi / 3), 1.0)[1]
    assert k_mid == pytest.approx(-3.0 / 16.0)
    with pytest.raises(ValueError, match="theta0 = 0"):
        models.omega_approx(TwoLevelDecayParams(theta0=0.0), 1.0)
    p = TwoLevelDecayParams(omega0=1.5, gamma=2e-3, theta0=2 * np.pi / 3)
    om, _ = models.omega_approx(p, 3.0)
    expected = 1.5 * 3.0 + (p.gamma / 1.5) * (-3.0 / 16.0) * (1.0 - np.cos(1.5 * 3.0))
    assert om == pytest.approx(expected, rel=1e-12)


def test_diagonal_phase_remainder_is_second_order_off_the_period():
    """At omega0 t = 2.3 pi the O(gamma) term kappa (1 - cos omega0 t) is
    nonzero, so a wrong kappa would leave a first-order remainder."""
    T = 2.3 * np.pi
    grid = TimeGrid(0.0, T, 1001)
    for theta0 in (np.pi / 3, 2 * np.pi / 3):
        rem = []
        for gamma in (1e-3, 5e-4):
            p = TwoLevelDecayParams(gamma=gamma, theta0=theta0, phi0=0.3)
            _, _, om = models.rotating_frame_numeric(p, grid)
            rem.append(abs(om[-1] - float(models.omega_approx(p, T)[0])))
        assert 3.0 <= rem[0] / rem[1] <= 5.0, (theta0, rem)


def test_adiabatic_reference_phases():
    got = models.berry_reference(TwoLevelDecayParams(theta0=np.pi / 3))
    assert np.allclose(got, [-np.pi / 2, np.pi / 2])
    seam = models.berry_reference(TwoLevelDecayParams(theta0=np.pi / 2))
    assert np.allclose(seam, [np.pi, np.pi])
    assert np.all(np.diff(models.berry_reference(TwoLevelDecayParams(theta0=2.9))) >= 0)


def test_validity_warnings():
    assert models.scenario_warnings(TwoLevelDecayParams(gamma=1e-3, theta0=1.0)) == []
    narrow = models.scenario_warnings(TwoLevelDecayParams(theta0=0.1))
    assert len(narrow) == 1 and "validity window" in narrow[0]
    strong = models.scenario_warnings(TwoLevelDecayParams(gamma=0.5))
    assert len(strong) == 1 and "weak-coupling" in strong[0]


def test_tripod_spectrum_is_pinned_by_the_coupling_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rabi = rng.uniform(0.5, 2.0)
        H = models.tripod_hamiltonian(rabi, *rng.uniform(-3.0, 3.0, size=3))
        assert matlib.herm_defect(H) == 0.0
        ev = np.linalg.eigvalsh(H)
        assert np.allclose(ev, [-rabi, 0.0, 0.0, rabi], atol=1e-12)
    # array angles give the stacked scalar matrices, bit for bit, and a
    # scalar angle broadcasts against the others
    theta, phi, chi = rng.uniform(-3.0, 3.0, size=(3, 7))
    stacked = [models.tripod_hamiltonian(1.3, *a) for a in zip(theta, phi, chi)]
    assert np.array_equal(models.tripod_hamiltonian(1.3, theta, phi, chi), stacked)
    scalar_chi = [models.tripod_hamiltonian(1.3, a, b, 0.4) for a, b in zip(theta, phi)]
    assert np.array_equal(models.tripod_hamiltonian(1.3, theta, phi, 0.4), scalar_chi)


def test_tripod_phase_component_defaults_to_zero():
    assert np.allclose(
        models.tripod_hamiltonian(1.0, 0.7, 0.3),
        models.tripod_hamiltonian(1.0, 0.7, 0.3, 0.0),
    )
    complex_H = models.tripod_hamiltonian(1.0, 0.7, 0.3, 0.9)
    assert np.max(np.abs(complex_H.imag)) > 0.1


def test_loop_driver_validation():
    with pytest.raises(ValueError, match="rabi"):
        models.wilczek_zee_demo(rabi=0.0)
    with pytest.raises(ValueError, match="increase duration"):
        models.wilczek_zee_demo(duration=1.0)


def test_palindrome_loop_retraces_itself():
    loop = lambda s: (0.3 + s, 2.0 * s)
    back = models.palindrome_loop(loop)
    assert back(0.25) == loop(0.5)
    assert back(0.75) == loop(0.5)
    assert back(1.0) == loop(0.0)
    s = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(np.array(back(s)).T, [back(x) for x in s])


def test_adiabatic_invariant_samples_the_hamiltonian():
    model = models.wilczek_zee_demo(duration=1500.0)
    grid = TimeGrid(0.0, 1500.0, 33)
    traj = models.adiabatic_invariant_trajectory(model, grid)
    assert traj.kind == "invariant"
    assert np.allclose(traj.samples[7], model.hamiltonian(grid.times[7]))
