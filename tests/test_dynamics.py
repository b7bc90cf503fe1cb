"""Unit tests for the Lindblad/invariant integrators and the coefficient
equation in a moving basis."""
from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from hkit import cli, dynamics, frames, matlib, models
from hkit.dynamics import LindbladModel, OperatorTrajectory, TimeGrid
from hkit.matlib import NumericalError, eigh, herm_defect
from hkit.models import WZ_LOOPS


def _decay(gamma=0.0, theta0=np.pi / 2, **kw):
    return models.TwoLevelDecayParams(gamma=gamma, theta0=theta0, **kw)


def test_time_grid_spacing_and_samples():
    grid = TimeGrid(0.0, 2.0, 5)
    assert grid.dt == pytest.approx(0.5)
    assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_time_grid_refinement_inserts_midpoints():
    grid = TimeGrid(0.3, 1.1, 9)
    fine = grid.refined()
    assert fine.n_steps == 17
    assert fine.t0 == grid.t0 and fine.t1 == grid.t1
    # every coarse sample survives refinement
    assert np.allclose(fine.times[::2], grid.times)


def test_time_grid_rejects_degenerate_input():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 1.0, 10)
    with pytest.raises(ValueError, match="t1 must be finite"):
        TimeGrid(0.0, np.inf, 10)
    with pytest.raises(ValueError, match="t0 must be finite"):
        TimeGrid(np.nan, 1.0, 10)
    for t0, t1 in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t1 - t0 must be finite, got inf"):
                TimeGrid(t0, t1, 10)


def test_model_validation():
    H = lambda t: np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        LindbladModel(dim=1, hamiltonian=H)
    with pytest.raises(ValueError):
        LindbladModel(dim=2, hamiltonian=H, jump_ops=[lambda t: np.eye(2)])
    bad = LindbladModel(
        dim=2,
        hamiltonian=H,
        jump_ops=[lambda t: np.eye(2)],
        couplings=lambda t: np.zeros((2, 2)),
    )
    with pytest.raises(ValueError, match="coupling matrix shape"):
        bad.operators([0.0, 0.5])


@pytest.mark.parametrize("which", ["decay", "tripod_b"])
def test_operators_on_a_time_array_stack_the_one_time_samples(which):
    """Constant callables broadcast, time-dependent ones sample every time:
    either way one call on the array equals the stacked one-time calls."""
    if which == "decay":
        model = models.two_level_model(_decay(gamma=0.3, theta0=1.1))
    else:
        model = models.wilczek_zee_demo(rabi=1.3, loop=WZ_LOOPS["b"], duration=1500.0)
    times = np.linspace(0.0, 1500.0, 11)
    singles = [model.operators(t) for t in times]
    batched = model.operators(times)
    for i, got in enumerate(batched):
        assert np.array_equal(got, np.concatenate([one[i] for one in singles]))
    assert np.array_equal(batched[0][1], batched[0][2]) == (which == "decay")


def test_operator_trajectory_validation():
    grid = TimeGrid(0.0, 1.0, 4)
    samples = np.zeros((4, 2, 2))
    with pytest.raises(ValueError):
        OperatorTrajectory(grid, samples, "wavefunction")
    with pytest.raises(ValueError):
        OperatorTrajectory(grid, samples[:3], "density")


def _apply(L, X):
    return (L @ X.reshape(-1)).reshape(X.shape)


def test_liouvillian_is_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(3)
    for gamma in (0.0, 0.4):  # without and with the jump operator
        model = models.two_level_model(_decay(gamma=gamma, theta0=1.0))
        for _ in range(20):
            G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = 0.5 * (G + G.conj().T)
            L = dynamics.liouvillian(*model.operators(rng.uniform(0.0, 3.0)))[0]
            out = _apply(L, rho)
            assert abs(np.trace(out)) < 1e-14
            assert herm_defect(out) < 1e-14


def test_liouvillian_matches_the_master_and_invariant_equations():
    """Batched L on row-major vec(rho) reproduces the commutator forms of
    both equations for several jump operators and off-diagonal rates, and
    d/dt Tr[I rho] vanishes."""
    rng = np.random.default_rng(11)
    d, m, n = 3, 2, 4

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    H = cplx(n, d, d)
    H = H + np.conj(np.swapaxes(H, -1, -2))
    G = cplx(n, m, d, d)
    g = rng.uniform(0.0, 1.0, size=(n, m, m))
    g = g + np.swapaxes(g, -1, -2)
    L = dynamics.liouvillian(H, G, g)
    assert L.shape == (n, d * d, d * d)
    rho, I = H[0] / 7.0, H[1] / 5.0
    for k in range(n):
        Gd = [Gi.conj().T for Gi in G[k]]
        drho = -1j * (H[k] @ rho - rho @ H[k])
        dI = -1j * (H[k] @ I - I @ H[k])
        for i in range(m):
            for j in range(m):
                drho += g[k, i, j] * (
                    2.0 * G[k, i] @ rho @ Gd[j] - Gd[j] @ G[k, i] @ rho - rho @ Gd[j] @ G[k, i]
                )
                dI += g[k, i, j] * (
                    Gd[j] @ (G[k, i] @ I - I @ G[k, i]) + (I @ Gd[j] - Gd[j] @ I) @ G[k, i]
                )
        assert np.max(np.abs(_apply(L[k], rho) - drho)) < 1e-12
        assert np.max(np.abs(_apply(-L[k].conj().T, I) - dI)) < 1e-12
        rate = np.trace(_apply(-L[k].conj().T, I) @ rho) + np.trace(I @ _apply(L[k], rho))
        assert abs(rate) < 1e-12


def _kron_liouvillian(H, G, g):
    """The module docstring's L, sample by sample, with np.kron."""
    one = np.eye(H.shape[-1])
    out = []
    for Hk, Gk, gk in zip(H, G, g):
        Lk = -1j * (np.kron(Hk, one) - np.kron(one, Hk.T))
        for i, Gi in enumerate(Gk):
            for j, Gj in enumerate(Gk):
                Dij = Gj.conj().T @ Gi
                Lk = Lk + gk[i, j] * (
                    2.0 * np.kron(Gi, Gj.conj()) - np.kron(Dij, one) - np.kron(one, Dij.T)
                )
        out.append(Lk)
    return np.array(out)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("varying", [False, True])
def test_liouvillian_matches_its_kronecker_formula(d, m, varying):
    """The directly assembled L equals the docstring formula built with
    np.kron, on the read-only broadcast views that LindbladModel.operators
    returns and on writable copies, with off-diagonal rates and with
    constant or time-varying H, G and g, and writes to none of its inputs.
    The first jump operator holds the shared constant models.SIGMA_MINUS
    (the constant qubit model returns that very array)."""
    rng = np.random.default_rng(10 * d + m + varying)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    M = cplx(2, d, d)
    H0, H1 = 0.25 * (M + np.conj(np.swapaxes(M, -1, -2)))
    J = [models.SIGMA_MINUS if d == 2 else np.pad(models.SIGMA_MINUS, (0, d - 2))]
    J += [0.5 * cplx(d, d) for _ in range(1, m)]
    K = 0.3 * cplx(m, d, d)
    R = rng.uniform(0.1, 0.5, size=(m, m))
    rates = R + R.T
    if varying:
        w = lambda t: np.cos(1.3 * t)[:, None, None]
        hamiltonian = lambda t: H0 + w(t) * H1
        jumps = [lambda t, i=i: J[i] + w(t) * K[i] for i in range(m)]
        couplings = lambda t: (1.0 + 0.5 * w(t)) * rates
    else:
        hamiltonian, couplings = (lambda t: H0), (lambda t: rates)
        jumps = [lambda t, i=i: J[i] for i in range(m)]
    model = LindbladModel(dim=d, hamiltonian=hamiltonian, jump_ops=jumps, couplings=couplings)
    sigma_minus = models.SIGMA_MINUS.copy()
    views = model.operators(np.linspace(0.0, 2.0, 7))
    ref = _kron_liouvillian(*views)
    for args in (views, tuple(np.array(a) for a in views)):
        before = [np.array(a) for a in args]
        L = dynamics.liouvillian(*args)
        assert L.shape == (7, d * d, d * d)
        assert np.max(np.abs(L - ref)) < 1e-13
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
    assert not views[1].flags.writeable and not views[2].flags.writeable
    assert np.array_equal(models.SIGMA_MINUS, sigma_minus)


def _hermitian_coordinates(X):
    """y[a d + b] = Re X_ab (a <= b) and y[b d + a] = Im X_ab (a < b), entry
    by entry."""
    d = X.shape[-1]
    y = np.empty(d * d)
    for a in range(d):
        for b in range(a, d):
            y[a * d + b] = X[a, b].real
            if a < b:
                y[b * d + a] = X[a, b].imag
    return y


@pytest.mark.parametrize("d", [2, 3, 4])
def test_real_generator_acts_on_hermitian_operators_as_the_liouvillian(d):
    """With two jump operators and off-diagonal rates, the real generator of
    L, and of -L^dag, maps the real coordinates of random Hermitian X to
    those of L(X), and of -L^dag(X), and has the spectrum of L, and of
    -L^dag."""
    rng = np.random.default_rng(40 + d)
    n, m = 3, 2

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    H = cplx(n, d, d)
    H = H + np.conj(np.swapaxes(H, -1, -2))
    g = rng.uniform(0.1, 0.5, size=(n, m, m))
    L = dynamics.liouvillian(H, cplx(n, m, d, d), g + np.swapaxes(g, -1, -2))
    for adjoint in (False, True):
        M = -np.conj(np.swapaxes(L, -1, -2)) if adjoint else L
        Lr = dynamics._real_generator(L, adjoint)
        assert Lr.dtype == np.float64 and Lr.shape == L.shape
        for k in range(n):
            scale = np.max(np.abs(M[k]))
            for _ in range(5):
                X = cplx(d, d)
                X = 0.5 * (X + X.conj().T)
                want = _hermitian_coordinates(_apply(M[k], X))
                got = Lr[k] @ _hermitian_coordinates(X)
                assert np.max(np.abs(got - want)) < 1e-14 * scale, (adjoint, k)
            lam, lam_r = np.linalg.eigvals(M[k]), np.linalg.eigvals(Lr[k])
            gap = np.abs(lam[:, None] - lam_r[None, :])
            assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) < 1e-12 * scale


def test_invariant_generator_reduces_to_commutator_when_closed():
    model = models.two_level_model(_decay(gamma=0.0))
    I = np.array([[0.2, 0.3 - 0.1j], [0.3 + 0.1j, -0.2]])
    H = model.hamiltonian(0.0)
    expect = -1j * (H @ I - I @ H)
    L = dynamics.liouvillian(*model.operators(0.7))[0]
    got = _apply(-L.conj().T, I)
    assert np.max(np.abs(got - expect)) < 1e-15


def test_excited_population_decays_at_the_stated_rate():
    """rho_ee(t) = exp(-gamma t): pins down the coupling-rate convention."""
    gamma = 0.2
    model = models.two_level_model(_decay(gamma=gamma))
    grid = TimeGrid(0.0, 5.0, 2001)
    traj = dynamics.propagate(model, np.diag([0.0, 1.0]), grid, kind="density")
    pop = traj.samples[:, 1, 1].real
    assert np.max(np.abs(pop - np.exp(-gamma * grid.times))) < 1e-9
    # log-linear fit recovers the exponent itself
    slope = np.polyfit(grid.times, np.log(pop), 1)[0]
    assert slope == pytest.approx(-gamma, abs=1e-8)


def test_propagated_invariant_matches_closed_form():
    params = _decay(gamma=0.08, theta0=2.0)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 4.0, 1601)
    traj = dynamics.propagate(
        model, models.chi_closed_form(params, 0.0), grid, kind="invariant"
    )
    err = max(
        np.max(np.abs(traj.samples[k] - models.chi_closed_form(params, t)))
        for k, t in enumerate(grid.times)
    )
    assert err < 1e-9


def test_propagate_rejects_bad_initial_operators():
    model = models.two_level_model(_decay())
    grid = TimeGrid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        dynamics.propagate(model, np.zeros((3, 3)), grid)
    with pytest.raises(ValueError):
        dynamics.propagate(model, np.array([[0.0, 1.0], [0.0, 0.0]]), grid)
    with pytest.raises(ValueError):  # density needs unit trace
        dynamics.propagate(model, np.eye(2), grid, kind="density")
    with pytest.raises(ValueError):
        dynamics.propagate(model, np.eye(2) / 2.0, grid, kind="coefficient")


def test_non_finite_start_is_refused_up_front():
    """A NaN start is refused before the Hermiticity test, which NaN passes,
    for every kind, instead of failing later at t=0 or in an eigensolver."""
    params = _decay(gamma=1e-3)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 1.0, 11)
    start = np.diag([np.nan, 1.0])
    for kind in ("density", "invariant"):
        with pytest.raises(ValueError, match="^initial operator must be finite$"):
            dynamics.propagate(model, start, grid, kind)
    fr = models.analytic_frames(params, grid.refined())
    with pytest.raises(ValueError, match="^initial operator must be finite$"):
        dynamics.propagate_coefficients(model, fr, start, grid)


def test_non_positive_density_start_is_refused_up_front():
    """diag(2, -1) is Hermitian with unit trace but no density matrix: it is
    refused by its smallest eigenvalue before any step is taken."""
    model = models.two_level_model(_decay(gamma=1e-3))
    message = r"positive semi-definite \(smallest eigenvalue -1\.000e\+00\)$"
    with pytest.raises(ValueError, match=message):
        dynamics.propagate(model, np.diag([2.0, -1.0]), TimeGrid(0.0, 1.0, 11))
    # an invariant need not be positive
    dynamics.propagate(model, np.diag([2.0, -1.0]), TimeGrid(0.0, 1.0, 11), kind="invariant")


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_every_bundled_pure_start_passes_the_density_check(scenario):
    """Each scenario's default start density is pure: its rounding below zero
    stays inside the check's 1e-10."""
    res = cli.execute(cli.ScenarioConfig(scenario=scenario))
    rho0 = res.rho_traj.samples[0]
    assert abs(np.trace(rho0 @ rho0) - 1.0) < 1e-12
    assert eigh(rho0)[0][0] >= -1e-10


def _stepwise_propagate(model, X0, grid, kind="density"):
    """Reference stepper: L at every stage time, and every step Hermitized
    and checked for finiteness.  Returns the samples."""
    d = model.dim
    L = dynamics.liouvillian(*model.operators(grid.refined().times))
    if kind == "invariant":
        L = -np.conj(np.swapaxes(L, -1, -2))
    X = np.asarray(X0, dtype=complex)
    samples = [X]
    for k, P in enumerate(dynamics._rk4_matrices(L, grid.dt)):
        X = (P @ X.reshape(-1)).reshape(d, d)
        X = 0.5 * (X + X.conj().T)
        if not np.all(np.isfinite(X)):
            raise NumericalError(
                f"{kind} propagation produced non-finite values; "
                f"last valid time t={grid.times[k]:.6g}"
            )
        samples.append(X)
    return np.array(samples)


@pytest.mark.parametrize("d", [2, 4])
def test_rk4_matrices_match_the_per_step_stages(d):
    """The stack-last step matrices equal K1 ... K4 formed step by step with
    np.matmul, for D = d^2 = 4 and 16 on an odd step count, read from a
    stack-last L (as liouvillian returns it) and from a C-ordered one.
    _stepwise_propagate calls _rk4_matrices itself, so no flow test could
    catch a fault here."""
    rng = np.random.default_rng(d)
    D, n, dt = d * d, 37, 0.05
    L = rng.normal(size=(2 * n + 1, D, D)) + 1j * rng.normal(size=(2 * n + 1, D, D))
    one = np.eye(D)
    ref = []
    for k in range(n):
        K1 = L[2 * k]
        K2 = np.matmul(L[2 * k + 1], one + 0.5 * dt * K1)
        K3 = np.matmul(L[2 * k + 1], one + 0.5 * dt * K2)
        K4 = np.matmul(L[2 * k + 2], one + dt * K3)
        ref.append(one + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4))
    stack_last = np.ascontiguousarray(L.transpose(1, 2, 0)).transpose(2, 0, 1)
    for arg in (stack_last, L):
        P = dynamics._rk4_matrices(arg, dt)
        assert P.shape == (n, D, D)
        assert np.max(np.abs(P - np.array(ref))) < 1e-14


def test_time_dependent_open_flow_calls_no_einsum_or_matmul(monkeypatch):
    """The coefficient equation's step matrices and the pairwise scan of
    each chunk's ordered product are explicit sums over stack-last arrays
    (`mul`), and the scan's stepwise level takes np.dot one factor at a
    time: one 8001-step propagate_coefficients on the decay qubit calls
    neither np.einsum nor np.matmul (stacked einsum and matmul forms called
    them 32 and 245 times).  The flow steps real coordinates, so every
    stacked product of the step matrices and the scan, and every step
    matrix and sample coordinate they give, is float64."""
    params = _decay(gamma=4e-3, theta0=1.1)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 2.0 * np.pi, 8001)
    fr = models.analytic_frames(params, grid.refined())
    calls = {"einsum": 0, "matmul": 0}
    for name, kernel in [(name, getattr(np, name)) for name in calls]:

        def counted(*args, name=name, kernel=kernel, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    in_flow, products, results = [False], [], []

    def watched_mul(A, B, *args, kernel=matlib.mul, **kwargs):
        if in_flow[0]:
            products.append((np.asarray(A).dtype, np.asarray(B).dtype))
        return kernel(A, B, *args, **kwargs)

    for module in (matlib, dynamics):  # ordered_product calls matlib's own name
        monkeypatch.setattr(module, "mul", watched_mul)
    for name in ("_rk4_matrices", "ordered_product"):

        def flow(*args, kernel=getattr(dynamics, name), **kwargs):
            in_flow[0] = True
            try:
                out = kernel(*args, **kwargs)
            finally:
                in_flow[0] = False
            results.append(out.dtype)
            return out

        monkeypatch.setattr(dynamics, name, flow)
    dynamics.propagate_coefficients(model, fr, np.diag([0.7, 0.3]), grid)
    assert calls == {"einsum": 0, "matmul": 0}
    assert len(results) == 16 and len(products) > len(results)
    assert set(results) == {np.dtype(np.float64)}
    assert set(products) == {(np.dtype(np.float64), np.dtype(np.float64))}


def test_open_flows_step_through_the_one_ordered_product(monkeypatch):
    """Both open RK4 branches take their samples from matlib.ordered_product
    and block nothing themselves: an 8001-step propagate_coefficients on the
    decay qubit calls it once per 1024-step chunk, each call started from
    the chunk's first vec(c), and a constant open propagate calls it twice,
    for the powers P^0 ... P^s and for the block starts."""
    starts = []

    def counted(F, X0=None):
        starts.append(None if X0 is None else X0.shape)
        return matlib.ordered_product(F, X0)

    monkeypatch.setattr(dynamics, "ordered_product", counted)
    params = _decay(gamma=4e-3, theta0=1.1)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 2.0 * np.pi, 8001)
    fr = models.analytic_frames(params, grid.refined())
    dynamics.propagate_coefficients(model, fr, np.diag([0.7, 0.3]), grid)
    assert starts == [(4, 1)] * 8
    for kind, X0 in (("density", np.diag([0.7, 0.3])), ("invariant", np.diag([1.0, -1.0]))):
        starts.clear()
        dynamics.propagate(_random_open_model(np.random.default_rng(3), 4), np.eye(4) / 4, grid, kind)
        assert starts == [None, (16, 1)]
        starts.clear()
        dynamics.propagate(model, X0, grid, kind)
        assert starts == [None, (4, 1)]


def _switched_model(switch_t, which):
    """Decay model whose H, jump operator or rate (`which` is "H", "G" or
    "g") changes at t >= switch_t."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    on = lambda t, name: ((which == name) & (t >= switch_t))[:, None, None]
    return LindbladModel(
        dim=2,
        hamiltonian=lambda t: 0.5 * models.SIGMA_Z + 0.3 * on(t, "H") * sx,
        jump_ops=[lambda t: models.SIGMA_MINUS + 0.2 * on(t, "G") * sx],
        couplings=lambda t: 0.1 + 0.3 * on(t, "g"),
    )


def _magnus_stepwise(model, X0, grid):
    """Reference for closed models: the 4th-order Magnus step
    U_k = expm(Omega_k) from H at t_k, t_{k+1/2} and t_{k+1}, applied one
    step at a time as X <- U_k X U_k^dag and Hermitized."""
    H = model.operators(grid.refined().times)[0]
    h = grid.dt
    X = np.asarray(X0, dtype=complex)
    samples = [X]
    for k in range(grid.n_steps - 1):
        H0, Hm, H1 = H[2 * k], H[2 * k + 1], H[2 * k + 2]
        U = expm(-1j * (h / 6.0) * (H0 + 4.0 * Hm + H1) + (h * h / 12.0) * (H0 @ H1 - H1 @ H0))
        X = U @ X @ U.conj().T
        X = 0.5 * (X + X.conj().T)
        samples.append(X)
    return np.array(samples)


def _tripod_b():
    return models.wilczek_zee_demo(rabi=1.3, loop=WZ_LOOPS["b"], duration=1500.0)


def test_tripod_density_matches_the_stepwise_reference():
    """Time-dependent closed H: the batched flow (one exponential stack, one
    ordered product, one application) equals the step-by-step Magnus
    stepper, and lies within its 4th-order error of a converged run."""
    model = _tripod_b()
    grid = TimeGrid(0.0, 1500.0, 2001)
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = M @ M.conj().T
    rho0 /= np.trace(rho0).real
    got = dynamics.propagate(model, rho0, grid).samples
    assert np.max(np.abs(got - _magnus_stepwise(model, rho0, grid))) < 1e-12
    assert max(herm_defect(x) for x in got) == 0.0
    fine = dynamics.propagate(model, rho0, TimeGrid(0.0, 1500.0, 16001)).samples[::8]
    assert np.max(np.abs(got - fine)) < 1e-4


def test_closed_flow_converges_at_fourth_order():
    """Final rho on tripod loop b from |1><1|: halving the step cuts the
    error against a 64 001-step run by 2^4."""
    model = _tripod_b()
    rho0 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    final = {
        n: dynamics.propagate(model, rho0, TimeGrid(0.0, 1500.0, n)).samples[-1]
        for n in (2001, 4001, 64001)
    }
    errs = [np.max(np.abs(final[n] - final[64001])) for n in (2001, 4001)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_closed_invariant_keeps_its_degeneracy():
    """A tripod invariant propagated from H(0) keeps its spectrum
    {-rabi, 0, 0, rabi}, so eigenframes finds the dark pair all the way."""
    model = models.wilczek_zee_demo(rabi=1.0, loop=WZ_LOOPS["a"], duration=1500.0)
    I0 = model.operators(0.0)[0][0]
    traj = dynamics.propagate(model, I0, TimeGrid(0.0, 1500.0, 2001), kind="invariant")
    lam = np.linalg.eigvalsh(traj.samples)
    assert np.max(np.abs(lam - lam[0])) <= 1e-10
    assert frames.eigenframes(traj).blocks == [[0], [1, 2], [3]]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_constant_closed_generator_is_exact(d, monkeypatch):
    """Constant H: every step is exp(-i H dt), so X(t) = e^{-iHt} X0 e^{iHt},
    for a random H and for one with a degenerate spectrum (H = 0.3 at
    d = 2).  The samples are formed elementwise, a block of samples at a
    time, so they are the same bit for bit in blocks of a few samples."""
    rng = np.random.default_rng(8 if d == 3 else 10 + d)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q = np.linalg.qr(M)[0]
    degenerate = (Q * np.array([0.3, 0.3, -0.4, 1.2][:d])) @ Q.conj().T
    grid = TimeGrid(0.0, 10.0, 2001)
    I0 = np.diag([0.5, -0.2, 1.1, 0.7][:d]).astype(complex)
    for H in (0.5 * (M + M.conj().T), degenerate):
        model = LindbladModel(dim=d, hamiltonian=lambda t: H)
        traj = dynamics.propagate(model, I0, grid, kind="invariant")
        lam, V = np.linalg.eigh(H)
        E = np.einsum("ij,kj,lj->kil", V, np.exp(-1j * np.outer(grid.times, lam)), V.conj())
        exact = E @ I0 @ np.conj(np.swapaxes(E, -1, -2))
        assert np.max(np.abs(traj.samples - exact)) <= 1e-12
        with monkeypatch.context() as m:
            m.setattr(matlib, "_BLOCK_ENTRIES", 100)  # blocks of 25, 11 or 6 samples
            assert np.array_equal(dynamics.propagate(model, I0, grid, kind="invariant").samples, traj.samples)


def test_a_broadcast_hamiltonian_is_constant_without_a_scan(monkeypatch):
    """A constant H returned as a copied (n, d, d) stack and as a broadcast
    view (stride 0 along time) takes the constant branch, which forms no
    step exponential, and gives the same samples bit for bit; only the copy
    is compared sample by sample, every stage sample of it.  An H that
    changes after step 1500 takes the time-dependent branch and matches the
    stepwise Magnus reference."""
    rng = np.random.default_rng(12)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = 0.5 * (M + M.conj().T)
    grid = TimeGrid(0.0, 4.0, 2501)
    I0 = np.diag([0.5, -0.2, 1.1]).astype(complex)
    exps, scanned = [], []
    count_exp = lambda G, s=1.0: exps.append(len(G)) or matlib.unitary_exp(G, s)
    monkeypatch.setattr(dynamics, "unitary_exp", count_exp)
    np_all = np.all

    def count_all(a, *args, **kwargs):
        # a sample-by-sample comparison of a stage range; the tail's checks
        # reduce over the matrix axes
        if np.ndim(a) == 3 and np.shape(a)[1:] == (3, 3) and not args and not kwargs:
            scanned.append(len(a))
        return np_all(a, *args, **kwargs)

    monkeypatch.setattr(np, "all", count_all)
    samples = {}
    for name, stack in (
        ("copy", lambda t: np.repeat(H[None], len(t), axis=0)),
        ("view", lambda t: np.broadcast_to(H, (len(t), 3, 3))),
    ):
        scanned.clear()
        samples[name] = dynamics.propagate(LindbladModel(3, stack), I0, grid, "invariant").samples
        assert exps == [] and (sum(scanned) >= 2 * grid.n_steps - 1) == bool(scanned), name
        assert bool(scanned) == (name == "copy"), name
    assert np.array_equal(samples["copy"], samples["view"])
    sx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    switched = LindbladModel(3, lambda t: H + 0.3 * (t >= grid.times[1500])[:, None, None] * sx)
    got = dynamics.propagate(switched, I0, grid, "invariant").samples
    assert sum(exps) == grid.n_steps - 1
    assert np.max(np.abs(got - _magnus_stepwise(switched, I0, grid))) < 1e-12


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_closed_flow_carries_the_range_of_the_start(rank, monkeypatch):
    """The time-dependent closed flow carries only the eigenvectors of X0
    with nonzero eigenvalues through one ordered product: a pure density
    one column, the tripod invariant from H(0) (spectrum {-rabi, 0, 0,
    rabi}) two, a full-rank density four.  All match the step-by-step
    Magnus stepper on tripod loop b."""
    model = _tripod_b()
    grid = TimeGrid(0.0, 1500.0, 2001)
    rng = np.random.default_rng(6)
    M = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    kind, X0 = "density", M @ M.conj().T / np.linalg.norm(M) ** 2
    if rank == 2:
        kind, X0 = "invariant", model.operators(0.0)[0][0]
    starts = []
    carried = lambda F, X=None: starts.append(np.shape(X)) or matlib.ordered_product(F, X)
    monkeypatch.setattr(dynamics, "ordered_product", carried)
    got = dynamics.propagate(model, X0, grid, kind).samples
    assert starts == [(4, rank)]
    assert np.max(np.abs(got - _magnus_stepwise(model, X0, grid))) < 1e-12


def _largest_live_block(monkeypatch, run):
    """Run `run` under tracemalloc; return its result, the largest numpy
    block live on entry to or exit from any kernel the flows call, and the
    traced peak."""
    largest = [0]

    def look():
        snap = tracemalloc.take_snapshot()
        snap = snap.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        largest[0] = max([largest[0]] + [t.size for t in snap.traces])

    with monkeypatch.context() as m:
        for name in ("mul", "ordered_product", "unitary_exp", "eigh", "_magnus_exponents", "_phase_spreads"):

            def watched(*args, kernel=getattr(dynamics, name), **kwargs):
                look()
                out = kernel(*args, **kwargs)
                look()
                return out

            m.setattr(dynamics, name, watched)
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return out, largest[0], peak


def test_closed_flows_allocate_no_transient_larger_than_one_series(monkeypatch):
    """Neither closed branch holds a temporary larger than one returned
    series (n d^2 complex entries) while it runs: the constant generator
    of a 20 001-sample two-level run forms its samples a block at a time,
    so its traced peak is below two series, and the 4001-sample tripod
    run forms its exponents a block of steps at a time and carries one
    column instead of the propagator.  The model is sampled before
    tracing: that is the caller's input, not the flow's."""
    params = models.TwoLevelDecayParams(theta0=1.0, gamma=0.0)
    chi0 = models.chi_closed_form(params, 0.0)
    tripod = models.wilczek_zee_demo(rabi=1.3, loop=WZ_LOOPS["a_palindrome"], duration=3000.0)
    dark = np.linalg.eigh(tripod.operators(0.0)[0][0])[1][:, 1]
    for model, X0, grid, kind in (
        (models.two_level_model(params), chi0, TimeGrid(0.0, 2.0 * np.pi, 20001), "invariant"),
        (tripod, np.outer(dark, dark.conj()), TimeGrid(0.0, 3000.0, 4001), "density"),
    ):
        ops = model.operators(grid.refined().times)
        X, largest, peak = _largest_live_block(
            monkeypatch,
            lambda: dynamics._integrate(dynamics._sampled(*ops), True, X0, grid, kind).samples,
        )
        series = X.nbytes
        assert series == grid.n_steps * X0.size * 16
        assert largest <= series, (model.dim, largest, series)
        if model.dim == 2:
            assert peak - series <= series, (peak, series)


def test_under_resolved_closed_run_is_refused():
    """513 steps over 1500 give the tripod's bright pair a phase spread of
    2 rabi dt = 5.86 per step, past pi: the run fails instead of aliasing."""
    model = models.wilczek_zee_demo(rabi=1.0, loop=WZ_LOOPS["a"], duration=1500.0)
    rho0 = np.diag([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(NumericalError, match="under-resolved: step phase spread 5.859 >= pi at t=0"):
        dynamics.propagate(model, rho0, TimeGrid(0.0, 1500.0, 513))
    dynamics.propagate(model, rho0, TimeGrid(0.0, 1500.0, 1001))  # spread 3.0


def _spread(G):
    lam = np.linalg.eigvalsh(G)
    return lam[..., -1] - lam[..., 0]


def test_phase_spreads_bound_the_spread_and_are_exact_where_the_guard_fires():
    """The bound sqrt(2) |G - tr(G)/d|_F is never below the spread, equals it
    on 2x2 stacks and on the tripod's Magnus exponents, and is replaced by
    the eigensystem's spread wherever it reaches pi."""
    rng = np.random.default_rng(41)
    for d in (1, 2, 3, 4):
        M = rng.normal(size=(500, d, d)) + 1j * rng.normal(size=(500, d, d))
        G = (0.5 * (M + M.conj().swapaxes(1, 2))) * rng.uniform(0.05, 2.0, size=(500, 1, 1))
        spreads = dynamics._phase_spreads(G)
        exact = _spread(G)
        D = G - np.trace(G, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
        bound = np.sqrt(2.0) * np.linalg.norm(D, axis=(1, 2))
        assert np.all(bound >= exact * (1.0 - 1e-14)), d
        # below pi the bound is reported; from pi on, the eigensystem's spread
        read = bound >= np.pi
        assert np.allclose(spreads[~read], bound[~read], rtol=1e-14, atol=0.0), d
        assert np.allclose(spreads[read], exact[read], rtol=1e-14, atol=0.0), d
        if d > 1:
            assert np.any(spreads >= np.pi) and not np.all(spreads >= np.pi), d
        if d > 2:  # bounds past pi whose spreads are not: the guard stays quiet
            assert np.any(read & (spreads < np.pi)), d
        if d == 2:
            assert np.allclose(spreads, exact, rtol=1e-14, atol=0.0)
    model = models.wilczek_zee_demo(rabi=1.3, loop=WZ_LOOPS["b"], duration=1500.0)
    grid = TimeGrid(0.0, 1500.0, 2001)
    H = model.operators(grid.refined().times)[0]
    G = dynamics._magnus_exponents(H, grid.dt)
    assert np.allclose(dynamics._phase_spreads(G), _spread(G), rtol=1e-14, atol=0.0)


def test_closed_flow_aborts_on_a_non_finite_generator_with_last_valid_time():
    """H turns NaN at t = 0.5: the step ending there is the first bad one,
    so t = 0.4 is the last valid time."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = LindbladModel(
        dim=2, hamiltonian=lambda t: np.where(t >= 0.5, np.nan, 1.0)[:, None, None] * sx
    )
    for kind, X0 in (("density", np.diag([1.0, 0.0])), ("invariant", sx)):
        with pytest.raises(NumericalError, match=f"^{kind} .* last valid time t=0.4$"):
            dynamics.propagate(model, X0, TimeGrid(0.0, 1.0, 11), kind)


def test_closed_flow_failures_keep_their_precedence_across_step_blocks():
    """The time-dependent closed flow forms its exponents a block of 4096
    qubit steps at a time, yet reports as the whole run would: an
    under-resolved step in the first block gives way to a NaN in the third,
    and without the NaN the first under-resolved step is the one reported,
    at its exact spread."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = TimeGrid(0.0, 1.0, 10001)
    coarse = lambda t: np.where((t >= 0.1) & (t < 0.12), 3e4, 1.0)
    for nan_from, expect in ((0.9, "produced non-finite values; last valid time t=0.8999$"), (2.0, None)):
        model = LindbladModel(2, lambda t: np.where(t >= nan_from, np.nan, coarse(t))[:, None, None] * sx)
        if expect is None:
            H = model.operators(grid.refined().times)[0]
            spread = dynamics._phase_spreads(dynamics._magnus_exponents(H, grid.dt))
            k = int(np.argmax(spread >= np.pi))
            assert 0 < k < matlib._BLOCK_ENTRIES // 4
            expect = f"under-resolved: step phase spread {spread[k]:.4g} >= pi at t={grid.times[k]:.6g};"
        with pytest.raises(NumericalError, match=expect):
            dynamics.propagate(model, np.diag([1.0, 0.0]), grid)


@pytest.mark.parametrize("which", ["H", "G", "g"])
def test_step_matrix_is_reused_only_while_the_generator_is_constant(which):
    """Each input in turn is constant for the first 1500 steps and changes
    afterwards, inside the second chunk and inside one of the products of
    chunk / _STEPWISE_FACTORS steps that the chunk's pairwise scan steps
    through at its last level: only the constant steps may share the first
    sample's step matrix."""
    grid = TimeGrid(0.0, 4.0, 2501)
    chunk = matlib._BLOCK_ENTRIES // 4**2
    top = chunk // matlib._STEPWISE_FACTORS  # steps per factor of the stepwise level
    assert chunk < 1500 < 2 * chunk and top > 1 and (1500 - chunk) % top != 0
    model = _switched_model(grid.times[1500], which)
    rho0 = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    I0 = np.array([[0.5, 0.1j], [-0.1j, -0.5]])
    for kind, X0 in (("density", rho0), ("invariant", I0)):
        ref = _stepwise_propagate(model, X0, grid, kind)
        got = dynamics.propagate(model, X0, grid, kind).samples
        assert np.max(np.abs(got - ref)) < 1e-12


def _random_open_model(rng, d):
    """Constant open model: a random Hermitian H, one random jump operator of
    unit norm and a rate of 0.2."""
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    J = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    J /= np.linalg.norm(J, 2)
    H = 0.25 * (M + M.conj().T)
    return LindbladModel(
        dim=d, hamiltonian=lambda t: H, jump_ops=[lambda t: J], couplings=lambda t: np.array([[0.2]])
    )


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n_steps", [3, 4, 5, 16, 17, 1025, 8001])
def test_constant_open_flow_matches_the_stepwise_reference(d, n_steps):
    """A constant open generator is stepped by blocked powers of its one
    step matrix, in blocks of ceil(sqrt(n - 1)) steps: grids below, at and
    just above a square step count, so the last block is partial, full or
    one step long, all give the stepwise samples."""
    rng = np.random.default_rng(10 * d + n_steps)
    model = _random_open_model(rng, d)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = M @ M.conj().T / np.trace(M @ M.conj().T).real
    I0 = 0.5 * (M + M.conj().T)
    grid = TimeGrid(0.0, 1.0, n_steps)
    for kind, X0 in (("density", rho0), ("invariant", I0)):
        got = dynamics.propagate(model, X0, grid, kind).samples
        assert got.shape == (n_steps, d, d)
        assert np.max(np.abs(got - _stepwise_propagate(model, X0, grid, kind))) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_constant_open_flow_fails_like_the_stepwise_loop():
    """dt = 3.45 puts the decay's RK4 step outside its stability region, and
    1001 steps let both kinds overflow, in the middle of a block: the
    blocked powers stop at the stepwise loop's last valid time."""
    params = _decay(gamma=1e-3, theta0=1.1)
    model = models.two_level_model(params)
    chi0 = models.chi_closed_form(params, 0.0)
    grid = TimeGrid(0.0, 3450.0, 1001)
    for kind, X0 in (("density", 0.5 * (np.eye(2) + chi0)), ("invariant", chi0)):
        with pytest.raises(NumericalError, match="non-finite") as ref:
            _stepwise_propagate(model, X0, grid, kind)
        with pytest.raises(NumericalError) as got:
            dynamics.propagate(model, X0, grid, kind)
        assert str(got.value) == str(ref.value)


def _random_varying_model(rng, d, scale=1.0):
    """Time-dependent open model: H(t) = H0 + cos(w t) H1 from random
    Hermitian H0 and H1, one random jump operator of unit norm and the rate
    0.2 (1 + 0.5 sin(w t)), with H and the rate multiplied by `scale`."""
    M = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    H0, H1 = 0.25 * scale * (M + np.conj(np.swapaxes(M, -1, -2)))
    J = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    J /= np.linalg.norm(J, 2)
    w = rng.uniform(0.5, 2.0)
    return LindbladModel(
        dim=d,
        hamiltonian=lambda t: H0 + np.cos(w * t)[:, None, None] * H1,
        jump_ops=[lambda t: J],
        couplings=lambda t: (0.2 * scale * (1.0 + 0.5 * np.sin(w * t)))[:, None, None],
    )


def _random_starts(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = M @ M.conj().T / np.trace(M @ M.conj().T).real
    return (("density", rho0), ("invariant", 0.5 * (M + M.conj().T)))


_C = matlib._STEPWISE_FACTORS  # 128: longest chunk the scan steps one `@` at a time


@pytest.mark.parametrize(
    "d, steps",
    [
        # 1024-step chunks of a qubit; the scan pairs a level of factors
        # while it holds more than C, then steps the last level
        (2, 1000),  # one partial chunk: levels of 1000, 500, 250, 125 factors
        (2, 1024),  # one full chunk: levels of 1024, 512, 256, 128 factors
        (2, 1025),  # then a chunk of one step
        (2, 1049),  # then a stepwise chunk of 25 steps
        (2, 1052),  # of 28 steps
        (2, 1055),  # of 31 steps
        (2, _C - 1),  # one stepwise chunk
        (2, _C),  # the longest stepwise chunk
        (2, _C + 1),  # one pairing level: 64 pairs, an odd last factor, 64 stepped
        # 64-step chunks of a 4-level model, each stepwise
        (4, 64),
        (4, 65),
        (4, 137),  # two full chunks, then 9 steps
        (4, 136),  # 8 steps
        (4, 135),  # 7 steps
        (4, _C - 1),  # a full chunk, then 63 steps
        (4, _C),  # two full chunks
        (4, _C + 1),  # two full chunks, then one step
    ],
)
def test_time_dependent_open_flow_matches_the_stepwise_reference(d, steps):
    """A time-dependent open generator is stepped a chunk at a time, each
    chunk one ordered product from the chunk's first sample: a pairwise
    scan whose last level, of at most C = _STEPWISE_FACTORS factors, is
    stepped one `@` at a time.  Grids whose last chunk is full, partial or
    one step long, and chunks at the scan's level boundaries C - 1, C and
    C + 1, all give the stepwise samples."""
    assert matlib._BLOCK_ENTRIES // d**4 == {2: 1024, 4: 64}[d]
    assert _C == 128
    rng = np.random.default_rng(100 * d + steps)
    model = _random_varying_model(rng, d)
    grid = TimeGrid(0.0, 1.0, steps + 1)
    for kind, X0 in _random_starts(rng, d):
        got = dynamics.propagate(model, X0, grid, kind).samples
        assert got.shape == (steps + 1, d, d)
        assert np.max(np.abs(got - _stepwise_propagate(model, X0, grid, kind))) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_time_dependent_open_flow_fails_like_the_stepwise_loop():
    """Seeded random time-dependent models on steps of 0.5 to 3 time units
    leave RK4's stability region and overflow, at any point of a chunk or
    a block: every run stops with the stepwise loop's message."""
    rng = np.random.default_rng(18)
    failing = 0
    for _ in range(12):
        d = int(rng.choice([2, 4]))
        n_steps = int(rng.integers(50, 1500))
        model = _random_varying_model(rng, d, scale=float(rng.uniform(0.5, 3.0)))
        grid = TimeGrid(0.0, float(rng.uniform(0.5, 3.0)) * n_steps, n_steps)
        for kind, X0 in _random_starts(rng, d):
            try:
                _stepwise_propagate(model, X0, grid, kind)
            except NumericalError as ref:
                failing += 1
                with pytest.raises(NumericalError) as got:
                    dynamics.propagate(model, X0, grid, kind)
                assert str(got.value) == str(ref)
    assert failing >= 12


@pytest.mark.parametrize(
    "rate, kind", [(-0.5, "density"), (-500.0, "density"), (500.0, "invariant")]
)
def test_blocked_tail_reports_the_whole_array_first_bad_sample(rate, kind):
    """A negative decay rate makes a density grow: past the entry bound
    (-0.5), or first past it and then to overflow (-500), where the
    non-finite sample takes precedence; a fast decay makes an invariant
    overflow (500).  The first bad sample lies in the second block of the
    tail, which Hermitizes and checks a block at a time: the run reports
    the sample that the whole-array tail reports."""
    model = LindbladModel(
        dim=2,
        hamiltonian=lambda t: np.diag([0.5, -0.5]).astype(complex),
        jump_ops=[lambda t: models.SIGMA_MINUS],
        couplings=lambda t: np.array([[rate]]),
    )
    block = matlib._BLOCK_ENTRIES // 4
    grid = TimeGrid(0.0, 1.0, 2 * block + 1)
    X0 = {"density": np.diag([0.5, 0.5]), "invariant": np.array([[0.5, 0.2], [0.2, -0.5]])}[kind]
    with np.errstate(all="ignore"):  # the whole-array tail on the raw samples
        X = dynamics._rk4_flow(
            dynamics._sampled(*model.operators(grid.refined().times)),
            X0.astype(complex), grid, kind, True,
        )
        X = 0.5 * (X + X.conj().swapaxes(1, 2))
        bad = ~np.all(np.isfinite(X[1:]), axis=(1, 2))
        entry = np.max(np.abs(X[1:]), axis=(1, 2))
    if bad.any():
        k = int(np.argmax(bad))
        expected = (
            f"{kind} propagation produced non-finite values; "
            f"last valid time t={grid.times[k]:.6g}"
        )
    else:
        k = int(np.argmax(entry > 1.0 + dynamics.DENSITY_ENTRY_TOL))
        expected = (
            f"density propagation diverged: entry modulus {entry[k]:.4g} > 1 "
            f"at t={grid.times[k + 1]:.6g}"
        )
    assert k + 1 > block and (rate != -500.0 or np.any(entry[:block] > 1.0))
    with pytest.raises(NumericalError) as got:
        dynamics.propagate(model, X0, grid, kind)
    assert str(got.value) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_propagate_aborts_on_overflow_with_last_valid_time():
    """The 301-step grid overflows from t = 0.7 on, in its second chunk.
    The weak decay channel keeps the model open, so RK4 steps it."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho0 = np.diag([1.0, 0.0])
    for n_steps, onset in ((11, 0.0), (301, 0.7)):
        blowup = LindbladModel(
            dim=2,
            hamiltonian=lambda t: np.where(t >= onset, 1e200, 1.0)[:, None, None] * sx,
            jump_ops=[lambda t: models.SIGMA_MINUS],
            couplings=lambda t: np.array([[0.01]]),
        )
        grid = TimeGrid(0.0, 1.0, n_steps)
        with pytest.raises(NumericalError, match="last valid time") as ref:
            _stepwise_propagate(blowup, rho0, grid)
        with pytest.raises(NumericalError, match="last valid time") as got:
            dynamics.propagate(blowup, rho0, grid)
        assert str(got.value) == str(ref.value)


def test_each_propagation_samples_the_model_once(monkeypatch):
    """propagate and propagate_coefficients sample (H, G, g) once, on all of
    grid.refined(): a closed run, an open run of many RK4 chunks, and the
    coefficient equation on refined frames."""
    sampled = []
    operators = LindbladModel.operators

    def counted(self, times):
        sampled.append(np.size(times))
        return operators(self, times)
    monkeypatch.setattr(LindbladModel, "operators", counted)
    params = _decay(gamma=4e-3, theta0=1.1)
    berry = models.two_level_model(_decay(gamma=0.0, theta0=2.0))
    decay = models.two_level_model(params)
    grid = TimeGrid(0.0, 2.0 * np.pi, 8001)
    fr = models.analytic_frames(params, grid.refined())
    rho0 = np.diag([1.0, 0.0])
    runs = (
        lambda: dynamics.propagate(berry, rho0, grid),
        lambda: dynamics.propagate(decay, rho0, grid),
        lambda: dynamics.propagate_coefficients(decay, fr, rho0, grid),
    )
    assert grid.n_steps > 7 * matlib._BLOCK_ENTRIES // 4**2
    for run in runs:
        sampled.clear()
        run()
        assert sampled == [grid.refined().n_steps]


def _leak(monkeypatch, rate):
    """Add rho -> rate Tr(rho) 1 to the Liouvillian: a constant rate * identity
    leak on unit-trace states."""
    orig = dynamics.liouvillian
    vec_one = np.eye(2).reshape(-1)
    leak = lambda H, G, g: orig(H, G, g) + rate * np.outer(vec_one, vec_one)
    monkeypatch.setattr(dynamics, "liouvillian", leak)


def test_trace_drift_is_left_as_stepped(monkeypatch):
    """The trace is not repaired: with a leak that moves it by 5e-9 a step,
    the density is the reference's unrenormalized samples."""
    _leak(monkeypatch, 1e-6)
    model = models.two_level_model(_decay(gamma=0.2, theta0=1.0))
    grid = TimeGrid(0.0, 1.0, 401)
    rho0 = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    traj = dynamics.propagate(model, rho0, grid)
    assert np.max(np.abs(traj.samples - _stepwise_propagate(model, rho0, grid))) < 1e-12
    assert np.trace(traj.samples[-1]).real - 1.0 > 1e-6


def test_diverging_density_is_refused_at_its_first_bad_sample():
    """30 steps of dt = 3.45 put the decay's RK4 step outside its stability
    region: the trace stays 1 while the entries grow, and the first sample
    with an entry of modulus above 1 ends the run."""
    params = _decay(gamma=1e-3, theta0=1.1)
    model = models.two_level_model(params)
    rho0 = 0.5 * (np.eye(2) + models.chi_closed_form(params, 0.0))
    grid = TimeGrid(0.0, 100.0, 30)
    ref = _stepwise_propagate(model, rho0, grid)
    assert np.max(np.abs(np.trace(ref, axis1=1, axis2=2) - 1.0)) < 1e-12
    assert np.max(np.abs(ref[1])) > 1.0 + dynamics.DENSITY_ENTRY_TOL
    message = r"^density propagation diverged: entry modulus 1\.565 > 1 at t=3\.44828$"
    with pytest.raises(NumericalError, match=message):
        dynamics.propagate(model, rho0, grid)


def test_invariant_expectation_is_conserved():
    params = _decay(gamma=0.1, theta0=2.0, r0=0.8)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 6.0, 2401)
    chi0 = models.chi_closed_form(params, 0.0)
    rho = dynamics.propagate(model, 0.5 * (np.eye(2) + chi0), grid, kind="density")
    inv = dynamics.propagate(model, chi0, grid, kind="invariant")
    vals = dynamics.invariant_expectation(inv, rho)
    # Tr[chi(0)^2]/2 = r0^2 for a traceless initial invariant
    assert np.max(np.abs(vals - params.r0**2)) < 1e-9


def test_invariant_expectation_rejects_imaginary_parts():
    grid = TimeGrid(0.0, 1.0, 3)
    rho = OperatorTrajectory(grid, np.stack([np.eye(2) / 2.0] * 3), "density")
    crooked = OperatorTrajectory(grid, np.stack([1j * np.eye(2)] * 3), "invariant")
    with pytest.raises(NumericalError):
        dynamics.invariant_expectation(crooked, rho)
    other = OperatorTrajectory(TimeGrid(0.0, 1.0, 5), np.zeros((5, 2, 2)), "invariant")
    with pytest.raises(ValueError):
        dynamics.invariant_expectation(other, rho)


def test_closed_coefficient_propagation_keeps_the_populations():
    """With gamma = 0 the moving-basis generator H + A on analytic frames is
    (omega0/2) diag(1, -1) and no dissipator acts: the populations of c stay
    put and the coherence only turns, c_01(t) = c_01(0) e^{i omega0 t}."""
    params = _decay(gamma=0.0, theta0=2 * np.pi / 3)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    fr = models.analytic_frames(params, grid.refined())
    c0 = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
    c = dynamics.propagate_coefficients(model, fr, c0, grid).samples
    pops = np.stack([c[:, 0, 0].real, c[:, 1, 1].real], axis=1)
    assert np.max(np.abs(pops - [0.7, 0.3])) < 5e-6
    turned = c0[0, 1] * np.exp(1j * params.omega0 * grid.times)
    assert np.max(np.abs(c[:, 0, 1] - turned)) < 5e-6


def test_coefficient_propagation_requires_refined_frames():
    params = _decay(gamma=0.01)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 1.0, 101)
    fr = models.analytic_frames(params, grid)  # not grid.refined()
    c0 = np.diag([0.5, 0.5])
    with pytest.raises(ValueError):
        dynamics.propagate_coefficients(model, fr, c0, grid)


def test_coefficient_route_reproduces_the_direct_density_solution():
    """Integrating c = V^dag rho V in the moving frame and rotating back
    must agree with integrating rho directly."""
    params = _decay(gamma=0.05, theta0=1.2, r0=0.9)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 3.0, 1201)  # agreement is limited by the O(dt^2) connection
    fr = models.analytic_frames(params, grid.refined())

    chi0 = models.chi_closed_form(params, 0.0)
    rho0 = 0.5 * (np.eye(2) + chi0)
    V0 = fr.vectors[0]
    c0 = V0.conj().T @ rho0 @ V0
    c_traj = dynamics.propagate_coefficients(model, fr, c0, grid)
    rho_traj = dynamics.propagate(model, rho0, grid, kind="density")

    V = fr.vectors[::2]
    rebuilt = np.einsum("kij,kjl,kml->kim", V, c_traj.samples, V.conj())
    assert np.max(np.abs(rebuilt - rho_traj.samples)) < 1e-6


def _whole_series_generator(model, fr):
    """The coefficient generator formed at full length: V^dag H0 V - A and
    V^dag G_i V at every stage time, with A the frames' whole connection,
    and the rates."""
    H, G, g = model.operators(fr.grid.times)
    V = fr.vectors
    Vh = V.conj().swapaxes(1, 2)
    HV = matlib.mul(matlib.mul(Vh, H), V) - frames.connection(fr).samples
    GV = matlib.mul(matlib.mul(Vh[:, None], G), V[:, None])
    return HV, GV, g


def _coefficient_case(gamma, n_steps, frame):
    """(model, frames, c0, grid) of the decay qubit on n_steps samples, with
    eigenframes of its propagated invariant, a constant frame U or the
    identity frame."""
    params = _decay(gamma=gamma, theta0=1.1, r0=0.9, phi0=0.3)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 2.0 * np.pi, n_steps)
    fine = grid.refined()
    chi0 = models.chi_closed_form(params, 0.0)
    if frame == "eigen":
        fr = frames.eigenframes(dynamics.propagate(model, chi0, fine, "invariant"))
    else:
        U = np.eye(2) if frame == "identity" else np.linalg.qr(np.array([[1.0, 2j], [0.5, -1.0]]))[0]
        V = np.broadcast_to(U, (fine.n_steps, 2, 2)).copy()
        fr = frames.FrameTrajectory(fine, np.zeros((fine.n_steps, 2)), [[0], [1]], V, "analytic")
    V0 = fr.vectors[0]
    c0 = V0.conj().T @ (0.5 * (np.eye(2) + chi0)) @ V0
    return model, fr, 0.5 * (c0 + c0.conj().T), grid


_RK4_CHUNK = matlib._BLOCK_ENTRIES // 4**2  # steps per open chunk of a qubit
_MAGNUS_CHUNK = matlib._BLOCK_ENTRIES // 2**2  # steps per closed block of a qubit


@pytest.mark.parametrize(
    "gamma, steps",
    [
        (4e-3, 2 * _RK4_CHUNK + 301), (4e-3, _RK4_CHUNK),
        (0.0, _MAGNUS_CHUNK + 101), (0.0, _MAGNUS_CHUNK),
    ],
)
@pytest.mark.parametrize("frame", ["eigen", "constant"])
def test_coefficient_route_matches_its_whole_series_generator_bit_for_bit(gamma, steps, frame):
    """propagate_coefficients forms V^dag H0 V - A and V^dag G_i V for one
    block of steps at a time; handed to the stepper at full length instead,
    they give the same samples bit for bit.  The grids end in a partial
    block or are exactly one, for RK4 (gamma > 0) and the Magnus flow
    (gamma = 0), on moving eigenframes and on a constant frame U, whose
    connection is rounding at the two ends, so its generator is not
    constant."""
    model, fr, c0, grid = _coefficient_case(gamma, steps + 1, frame)
    HV, GV, g = _whole_series_generator(model, fr)
    ref = dynamics._integrate(dynamics._sampled(HV, GV, g), gamma == 0.0, c0, grid, "coefficient")
    got = dynamics.propagate_coefficients(model, fr, c0, grid)
    assert np.array_equal(got.samples, ref.samples)


def test_identity_frames_give_the_density_route_bit_for_bit(monkeypatch):
    """On frames equal to the identity at every time the connection is
    exactly 0 and V^dag X V is X, so the formed generator equals its first
    sample everywhere: the coefficient route takes the constant branch (two
    ordered products, no chunk loop) and its samples are the density's."""
    starts = []
    carried = lambda F, X=None: starts.append(np.shape(X)) or matlib.ordered_product(F, X)
    monkeypatch.setattr(dynamics, "ordered_product", carried)
    model, fr, c0, grid = _coefficient_case(4e-3, 2 * _RK4_CHUNK + 301, "identity")
    got = dynamics.propagate_coefficients(model, fr, c0, grid).samples
    assert starts == [(), (4, 1)]
    assert np.array_equal(got, dynamics.propagate(model, c0, grid).samples)


@pytest.mark.parametrize("kind", ["density", "invariant"])
@pytest.mark.parametrize("n_steps", [8001, 16001, 20001])
def test_constant_open_flow_groups_its_samples_bit_for_bit(kind, n_steps):
    """The constant open branch writes h_(js+i) = P^i h_(js), the real
    coordinates of X + X^dag, one group of block starts at a time; the
    whole (ceil(n/s), s, D, 1) product, formed at once and written as
    Hermitian matrices X entry by entry, gives the same samples bit for
    bit."""
    params = _decay(gamma=4e-3, theta0=1.1)
    model = models.two_level_model(params)
    grid = TimeGrid(0.0, 2.0 * np.pi, n_steps)
    X0 = models.chi_closed_form(params, 0.0)
    if kind == "density":
        X0 = 0.5 * (np.eye(2) + X0)
    stages = dynamics._sampled(*model.operators(grid.refined().times))
    L = dynamics._real_generator(dynamics.liouvillian(*stages(0, 1)), kind == "invariant")
    P = dynamics._rk4_matrices(L, grid.dt)[0]
    n, d, D, s = n_steps, 2, 4, int(np.ceil(np.sqrt(n_steps - 1)))
    powers = matlib.ordered_product(np.broadcast_to(P, (s, D, D)))
    # the coordinates of X0 + X0^dag, the flow's start
    h0 = 2.0 * _hermitian_coordinates(X0).reshape(D, 1)
    starts = matlib.ordered_product(np.broadcast_to(powers[-1], (-(-n // s) - 1, D, D)), h0)
    h = matlib.mul(powers[None, :-1], starts[:, None]).reshape(-1, D)[:n]
    ref = np.zeros((n, d, d), dtype=complex)
    for a in range(d):
        ref[:, a, a].real = 0.5 * h[:, a * d + a]
        for b in range(a + 1, d):
            ref[:, a, b].real = ref[:, b, a].real = 0.5 * h[:, a * d + b]
            ref[:, a, b].imag = 0.5 * h[:, b * d + a]
            ref[:, b, a].imag = -0.5 * h[:, b * d + a]
    assert len(starts) > matlib._BLOCK_ENTRIES // (s * D)  # more than one group
    got = dynamics._rk4_flow(stages, X0.astype(complex), grid, kind, True)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("closed", [True, False])
def test_every_branch_returns_samples_hermitian_to_the_bit(closed, constant):
    """Each branch owns the Hermiticity of its samples: the constant closed
    flow and both RK4 branches write them Hermitian, and the time-dependent
    closed flow Hermitizes its own.  Density, invariant and coefficient
    samples are equal to their conjugate transposes bit for bit, on a
    3-level model (an H(t) = H0 + cos(t) H1 or H0 alone, with or without a
    jump operator) and on the decay qubit's coefficients in eigenframes
    (time-dependent) or identity frames (constant)."""
    rng = np.random.default_rng(20 + 2 * closed + constant)
    M = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    H0, H1 = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
    J = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    model = LindbladModel(
        dim=3,
        hamiltonian=(lambda t: H0) if constant else (lambda t: H0 + np.cos(t)[:, None, None] * H1),
        jump_ops=[] if closed else [lambda t: J],
        couplings=None if closed else (lambda t: np.array([[0.1]])),
    )
    grid = TimeGrid(0.0, 3.0, 1501)
    runs = [
        dynamics.propagate(model, X0, grid, kind).samples for kind, X0 in _random_starts(rng, 3)
    ]
    gamma = 0.0 if closed else 4e-3
    cmodel, fr, c0, cgrid = _coefficient_case(gamma, 1501, "identity" if constant else "eigen")
    runs.append(dynamics.propagate_coefficients(cmodel, fr, c0, cgrid).samples)
    for X in runs:
        assert np.all(np.isfinite(X))
        assert np.array_equal(X, X.conj().swapaxes(1, 2))


def test_coefficient_route_holds_no_full_length_generator(monkeypatch):
    """An 8001-step propagate_coefficients on 16 001-sample eigenframes
    forms its generator a block of steps at a time: besides the result, no
    numpy block live on entry to or exit from a flow kernel is larger than
    one block's Liouvillian, 2 * 1024 + 1 stage samples of D x D entries.
    Formed at full length, the connection, V^dag X and the generator each
    take 16 001 samples of d x d entries, twice that."""
    model, fr, c0, grid = _coefficient_case(4e-3, 8001, "eigen")
    c, largest, peak = _largest_live_block(
        monkeypatch, lambda: dynamics.propagate_coefficients(model, fr, c0, grid).samples
    )
    generator = (2 * _RK4_CHUNK + 1) * 4**2 * 16
    assert fr.n_steps == 16001 and c.nbytes < generator
    assert largest <= generator, (largest, generator)
