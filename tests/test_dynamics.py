"""Unit tests for the Lindblad/invariant integrators and the coefficient
equation in a moving basis."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from hkit import cli, dynamics, frames, models
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


def test_constant_closed_generator_is_exact():
    """Constant H: every step is exp(-i H dt), so X(t) = e^{-iHt} X0 e^{iHt}."""
    rng = np.random.default_rng(8)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = 0.5 * (M + M.conj().T)
    model = LindbladModel(dim=3, hamiltonian=lambda t: H)
    grid = TimeGrid(0.0, 10.0, 2001)
    I0 = np.diag([0.5, -0.2, 1.1]).astype(complex)
    traj = dynamics.propagate(model, I0, grid, kind="invariant")
    lam, V = np.linalg.eigh(H)
    E = np.einsum("ij,kj,lj->kil", V, np.exp(-1j * np.outer(grid.times, lam)), V.conj())
    exact = E @ I0 @ np.conj(np.swapaxes(E, -1, -2))
    assert np.max(np.abs(traj.samples - exact)) <= 1e-12


def test_under_resolved_closed_run_is_refused():
    """513 steps over 1500 give the tripod's bright pair a phase spread of
    2 rabi dt = 5.86 per step, past pi: the run fails instead of aliasing."""
    model = models.wilczek_zee_demo(rabi=1.0, loop=WZ_LOOPS["a"], duration=1500.0)
    rho0 = np.diag([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(NumericalError, match="under-resolved: step phase spread 5.859 >= pi at t=0"):
        dynamics.propagate(model, rho0, TimeGrid(0.0, 1500.0, 513))
    dynamics.propagate(model, rho0, TimeGrid(0.0, 1500.0, 1001))  # spread 3.0


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


@pytest.mark.parametrize("which", ["H", "G", "g"])
def test_step_matrix_is_reused_only_while_the_generator_is_constant(which):
    """Each input in turn is constant for the first 1500 steps and changes
    afterwards, inside a block of the second chunk: only the constant steps
    may share the first sample's step matrix."""
    grid = TimeGrid(0.0, 4.0, 2501)
    chunk = dynamics._CHUNK_ENTRIES // 4**2
    assert chunk < 1500 < 2 * chunk and (1500 - chunk) % int(np.ceil(np.sqrt(chunk))) != 0
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


@pytest.mark.parametrize(
    "d, steps",
    [
        # 1024-step chunks of a qubit
        (2, 1000),  # one partial chunk, its last block partial
        (2, 1024),  # one full chunk of 32 full blocks
        (2, 1025),  # then a chunk of one step
        (2, 1049),  # then a chunk of 25 steps: 5 full blocks
        (2, 1052),  # 28 steps: blocks of 6, the last one partial
        (2, 1055),  # 31 steps: blocks of 6, the last one step long
        # 64-step chunks of a 4-level model
        (4, 64),
        (4, 65),
        (4, 137),  # two full chunks, then 9 steps: 3 full blocks
        (4, 136),  # 8 steps: blocks of 3, the last one partial
        (4, 135),  # 7 steps: blocks of 3, the last one step long
    ],
)
def test_time_dependent_open_flow_matches_the_stepwise_reference(d, steps):
    """A time-dependent open generator is stepped a chunk at a time, each
    chunk in blocks of ceil(sqrt(c)) steps: grids whose last chunk, and its
    last block, is full, partial or one step long all give the stepwise
    samples."""
    assert dynamics._CHUNK_ENTRIES // d**4 == {2: 1024, 4: 64}[d]
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
    assert grid.n_steps > 7 * dynamics._CHUNK_ENTRIES // 4**2
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
