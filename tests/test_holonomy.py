"""Unit tests for transport cases, the time-ordered transporter, and the
holonomy assembly."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from hkit import cli, dynamics, frames, holonomy, models
from hkit.cli import WZ_LOOPS
from hkit.dynamics import TimeGrid
from hkit.frames import ConnectionSeries, FrameTrajectory
from hkit.matlib import NumericalError, match_phase_sets, unitary_defect

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def _params(**kw):
    base = dict(gamma=1e-3, theta0=2 * np.pi / 3)
    base.update(kw)
    return models.TwoLevelDecayParams(**base)


def _rotation_frames(grid, angle_fn):
    n = grid.n_steps
    V = np.empty((n, 2, 2), dtype=complex)
    for k, t in enumerate(grid.times):
        a = angle_fn(t)
        V[k] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
    lam = np.tile([0.0, 1.0], (n, 1))
    return FrameTrajectory(grid, lam, [[0], [1]], V, "analytic")


def test_case_restrict_masks_follow_the_block_structure():
    M = np.arange(9.0).reshape(3, 3) + 1.0
    blocks = [[0, 1], [2]]
    assert np.array_equal(holonomy.case_restrict(M, blocks, "general"), M)
    assert np.array_equal(holonomy.case_restrict(M, blocks, "t_nd"), M)
    nt = holonomy.case_restrict(M, blocks, "nt_nd")
    assert np.array_equal(nt, np.diag([1.0, 5.0, 9.0]))
    td = holonomy.case_restrict(M, blocks, "t_d")
    expect = np.array([[1.0, 2.0, 0.0], [4.0, 5.0, 0.0], [0.0, 0.0, 9.0]])
    assert np.array_equal(td, expect)
    # stacked input restricts every sample
    stack = holonomy.case_restrict(np.stack([M, 2.0 * M]), blocks, "t_d")
    assert np.array_equal(stack[1], 2.0 * expect)
    with pytest.raises(ValueError, match="case tag"):
        holonomy.case_restrict(M, blocks, "diag")


def test_case_tags_are_checked_against_the_spectrum_structure():
    params = _params()
    fr = models.analytic_frames(params, TimeGrid(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="degenerate block"):
        holonomy.geometric_phase(fr, 4, "t_d")
    lam = np.zeros((5, 2))
    degen = FrameTrajectory(
        TimeGrid(0.0, 1.0, 5), lam, [[0, 1]],
        np.stack([np.eye(2, dtype=complex)] * 5), "analytic",
    )
    with pytest.raises(ValueError, match="nondegenerate"):
        holonomy.geometric_phase(degen, 4, "nt_nd")


def test_transporter_of_a_constant_connection_is_the_exponential():
    grid = TimeGrid(0.0, 2.0, 801)
    A0 = np.array([[0.3, 0.2 - 0.4j], [0.2 + 0.4j, -0.1]])
    series = ConnectionSeries(grid, np.tile(A0, (801, 1, 1)))
    V = holonomy.transporter(series)
    assert np.max(np.abs(V[0] - np.eye(2))) == 0.0
    assert np.max(np.abs(V[-1] - expm(1j * 2.0 * A0))) < 1e-12
    gram = np.einsum("kji,kjl->kil", V.conj(), V)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_transporter_orders_later_factors_to_the_left():
    """Piecewise-constant generator: sigma_x then sigma_z.  Only the
    latest-leftmost product matches; the swapped order misses by a
    commutator-sized amount."""
    n = 2001
    grid = TimeGrid(0.0, 2.0, n)
    A = np.empty((n, 2, 2), dtype=complex)
    A[: n // 2 + 1] = SIGMA_X
    A[n // 2 + 1 :] = SIGMA_Z
    V_end = holonomy.transporter(ConnectionSeries(grid, A))[-1]
    correct = expm(1j * SIGMA_Z) @ expm(1j * SIGMA_X)
    swapped = expm(1j * SIGMA_X) @ expm(1j * SIGMA_Z)
    assert np.max(np.abs(V_end - correct)) < 1e-2
    assert np.max(np.abs(V_end - swapped)) > 0.5


def test_unrestricted_transport_of_a_complete_frame_is_trivial():
    """With every level retained, the transporter undoes the overlap
    exactly and O collapses to the identity."""
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 4001)
    samples = np.array([models.chi_closed_form(params, t) for t in grid.times])
    fr = frames.eigenframes(dynamics.OperatorTrajectory(grid, samples, "invariant"))
    res = holonomy.geometric_phase(fr, 4000, "general")
    assert np.max(np.abs(res.O - np.eye(2))) < 1e-5
    assert np.max(np.abs(res.eigenphases)) < 1e-5


def test_polar_factors_rebuild_the_restricted_overlap():
    params = _params(gamma=0.05)
    grid = TimeGrid(0.0, 2.0 * np.pi, 801)
    fr = models.analytic_frames(params, grid)
    for case in ("nt_nd", "t_nd"):
        res = holonomy.geometric_phase(fr, 600, case)
        W = holonomy.case_restrict(frames.overlap(fr, 600), fr.blocks, case)
        assert np.max(np.abs(res.R @ res.U - W)) < 1e-12
        gram = res.O.conj().T @ res.O
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        assert res.trace_O == pytest.approx(np.trace(res.O))


def test_geometric_phase_index_bounds():
    fr = models.analytic_frames(_params(), TimeGrid(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="out of range"):
        holonomy.geometric_phase(fr, 5, "nt_nd")


def test_vanishing_overlap_modulus_aborts_the_diagonal_case():
    grid = TimeGrid(0.0, 1.0, 33)
    fr = _rotation_frames(grid, lambda t: 0.5 * np.pi * t)
    with pytest.raises(NumericalError, match="phase undefined"):
        holonomy.geometric_phase(fr, 32, "nt_nd")


def test_cyclic_closed_system_reproduces_the_adiabatic_phases():
    for theta0 in (np.pi / 3, 2 * np.pi / 3, 2.5):
        params = _params(gamma=0.0, theta0=theta0)
        grid = TimeGrid(0.0, 2.0 * np.pi / params.omega0, 4001)
        fr = models.analytic_frames(params, grid)
        res = holonomy.geometric_phase(fr, 4000, "nt_nd")
        assert match_phase_sets(res.eigenphases, models.berry_reference(params)) < 1e-5


def test_noncyclic_phase_agrees_with_the_cyclic_limit():
    params = _params(gamma=0.0, theta0=np.pi / 3)
    grid = TimeGrid(0.0, 2.0 * np.pi, 4001)
    fr = models.analytic_frames(params, grid)
    got = sorted(holonomy.noncyclic_abelian_gp(fr, lv, 4000) for lv in (0, 1))
    assert match_phase_sets(np.array(got), models.berry_reference(params)) < 1e-5
    # and mid-path it tracks the diagonal-case eigenphases, with the
    # connection built once or per call
    conn = frames.connection(fr)
    res = holonomy.geometric_phase(fr, 2400, "nt_nd", conn)
    mid = sorted(holonomy.noncyclic_abelian_gp(fr, lv, 2400, conn) for lv in (0, 1))
    assert match_phase_sets(np.array(mid), res.eigenphases) < 1e-8
    assert mid == sorted(holonomy.noncyclic_abelian_gp(fr, lv, 2400) for lv in (0, 1))


def test_noncyclic_phase_validation():
    fr = models.analytic_frames(_params(), TimeGrid(0.0, 1.0, 9))
    with pytest.raises(ValueError, match="level"):
        holonomy.noncyclic_abelian_gp(fr, 2, 5)
    with pytest.raises(ValueError, match="out of range"):
        holonomy.noncyclic_abelian_gp(fr, 0, 9)


def test_parallel_residual_flags_untransported_frames():
    params = _params(gamma=0.0)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    fr = models.analytic_frames(params, grid)
    conn = frames.connection(fr)
    Vpar = holonomy.transporter(conn)
    assert holonomy.parallel_residual(fr, Vpar) < 1e-4
    # the raw frames are not parallel-transported: residual ~ ||A||
    plain = np.broadcast_to(np.eye(2, dtype=complex), Vpar.shape).copy()
    assert holonomy.parallel_residual(fr, plain) > 0.1
    with pytest.raises(ValueError, match="match"):
        holonomy.parallel_residual(fr, Vpar[:100])


def test_holonomy_keeps_one_transport_series():
    """Vpar is entry k of the stored series, which runs over the whole grid."""
    fr = models.analytic_frames(_params(gamma=0.05), TimeGrid(0.0, 2.0 * np.pi, 501))
    conn = frames.connection(fr)
    for case in ("t_nd", "nt_nd"):
        res = holonomy.geometric_phase(fr, 250, case, conn)
        assert res.transport.shape == (501, 2, 2)
        assert np.array_equal(res.Vpar, res.transport[250])
    full = holonomy.geometric_phase(fr, -1, "general", conn)
    assert np.array_equal(full.transport, holonomy.transporter(conn))


@pytest.mark.parametrize("case", ["general", "t_nd"])
def test_full_connection_runs_form_the_transporter_once(monkeypatch, case):
    """execute hands the holonomy's series to parallel_residual instead of
    calling transporter again, and that series is transporter(conn) exactly."""
    residual, transporter = holonomy.parallel_residual, holonomy.transporter
    series, calls = [], []
    monkeypatch.setattr(
        holonomy, "parallel_residual", lambda fr, V: series.append(V) or residual(fr, V)
    )
    monkeypatch.setattr(holonomy, "transporter", lambda c: calls.append(c) or transporter(c))
    cfg = cli.ScenarioConfig.from_dict({
        "scenario": "two_level_decay", "params": {"gamma": 0.01}, "case_tag": case,
        "grid": {"t1": 2.0 * np.pi, "n_steps": 401},
    })
    res = cli.execute(cfg)
    assert calls == [] and len(series) == 1
    assert np.array_equal(series[0], transporter(res.conn))
    assert np.array_equal(res.holo.Vpar, series[0][-1])


def test_witness_vanishes_for_diagonal_transport():
    params = _params(gamma=0.0)
    fr = models.analytic_frames(params, TimeGrid(0.0, 2.0 * np.pi, 1001))
    w = holonomy.nonabelian_witness(holonomy.geometric_phase(fr, -1, "nt_nd"))
    assert w["commutator_max"] < 1e-12
    assert w["reversal_gap"] < 1e-12
    # keeping the off-diagonal connection turns both diagnostics on
    full = holonomy.nonabelian_witness(holonomy.geometric_phase(fr, -1, "t_nd"))
    assert full["commutator_max"] > 1e-3
    assert full["reversal_gap"] > 1e-6


def test_witness_matches_its_pairwise_and_reversed_sample_definitions():
    """Reference loops: commutators over every probe pair, and the reversed
    ordering as the transporter of the time-reversed samples."""
    rng = np.random.default_rng(5)
    n = 40
    grid = TimeGrid(0.0, 1.0, n)
    G = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    A = 0.5 * (G + G.conj().swapaxes(1, 2))
    fr = FrameTrajectory(
        grid, np.tile([0.0, 1.0, 2.0], (n, 1)), [[0], [1], [2]],
        np.stack([np.eye(3, dtype=complex)] * n), "analytic",
    )
    holo = holonomy.geometric_phase(fr, -1, "general", ConnectionSeries(grid, A))
    w = holonomy.nonabelian_witness(holo, n_probe=n)
    comm = max(
        np.max(np.abs(A[i] @ A[j] - A[j] @ A[i])) for i in range(n) for j in range(i + 1, n)
    )
    assert abs(w["commutator_max"] - comm) < 1e-13
    forward = holonomy.transporter(ConnectionSeries(grid, A))[-1]
    backward = holonomy.transporter(ConnectionSeries(grid, A[::-1].copy()))[-1]
    assert w["reversal_gap"] == np.max(np.abs(forward - backward))
    assert np.array_equal(holo.Vpar, forward)


def test_block_solution_matches_the_scalar_closed_form():
    """At zero coupling each nondegenerate block generator is constant,
    (H + A)_pm pm = +/- omega0 / 2, so the (+,-) coefficient just rotates."""
    params = _params(gamma=0.0, theta0=1.1)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    fr = models.analytic_frames(params, grid)
    model = models.two_level_model(params)
    c0 = np.array([[0.37 - 0.21j]])
    same = holonomy.dissipative_free_block_solution(model, fr, 0, 0, c0)
    assert np.max(np.abs(same[:, 0, 0] - c0[0, 0])) < 1e-4
    cross = holonomy.dissipative_free_block_solution(model, fr, 0, 1, c0)
    expect = c0[0, 0] * np.exp(1j * params.omega0 * grid.times)
    assert np.max(np.abs(cross[:, 0, 0] - expect)) < 1e-4


def test_block_solution_matches_its_per_sample_generator():
    """The batched block generators equal the per-sample loop
    (A - V^dag H0 V)_mumu, Hermitized, on the tripod's degenerate dark block."""
    model = models.wilczek_zee_demo(loop=WZ_LOOPS["b"], duration=1500.0)
    grid = TimeGrid(0.0, 1500.0, 2001)
    fr = frames.eigenframes(models.adiabatic_invariant_trajectory(model, grid))
    conn = frames.connection(fr).samples
    blocks = {}
    for mu in (0, 1):
        idx = np.ix_(fr.blocks[mu], fr.blocks[mu])
        gen = np.empty((grid.n_steps,) + conn[0][idx].shape, dtype=complex)
        for j, t in enumerate(grid.times):
            V = fr.vectors[j]
            Hm = -V.conj().T @ model.hamiltonian(t) @ V
            gen[j] = Hm[idx] + conn[j][idx]
            gen[j] = 0.5 * (gen[j] + gen[j].conj().T)
        blocks[mu] = holonomy.transporter(ConnectionSeries(grid, gen))
    c0 = np.array([[0.4 - 0.1j, 0.3j]])
    expect = np.einsum("kij,jl,kml->kim", blocks[0], c0, blocks[1].conj())
    got = holonomy.dissipative_free_block_solution(model, fr, 0, 1, c0)
    assert np.max(np.abs(got - expect)) < 1e-12


def test_block_solution_validation():
    params = _params(gamma=0.1)
    grid = TimeGrid(0.0, 1.0, 9)
    fr = models.analytic_frames(params, grid)
    model = models.two_level_model(params)
    c0 = np.array([[1.0]])
    with pytest.raises(ValueError, match="vanishing coupling rates"):
        holonomy.dissipative_free_block_solution(model, fr, 0, 1, c0)
    closed = models.two_level_model(_params(gamma=0.0))
    fr0 = models.analytic_frames(_params(gamma=0.0), grid)
    with pytest.raises(ValueError, match="block index"):
        holonomy.dissipative_free_block_solution(closed, fr0, 0, 2, c0)
    with pytest.raises(ValueError, match="1x1"):
        holonomy.dissipative_free_block_solution(closed, fr0, 0, 1, np.eye(2))


def _smooth_connection(grid, dim, seed):
    """A(t) = H0 + cos(t) H1 + sin(2t) H2 with seeded Hermitian H_i."""
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    H = 0.5 * (H + H.conj().swapaxes(1, 2))
    t = grid.times[:, None, None]
    return H[0] + np.cos(t) * H[1] + np.sin(2.0 * t) * H[2]


def test_diagonalizing_frame_beyond_two_levels():
    """d = 3: R stays unitary, its rotated connection R A R^dag + i R dR^dag/dt
    is diagonal (dR/dt from a fourth-order stencil of the samples), and
    omega integrates that diagonal."""
    grid = TimeGrid(0.0, 3.0, 3001)
    A = _smooth_connection(grid, 3, seed=41)
    R0 = np.linalg.qr(A[0] + 2j * np.eye(3))[0]
    R, omega = holonomy.diagonalizing_frame(
        ConnectionSeries(grid.refined(), _smooth_connection(grid.refined(), 3, seed=41)), R0
    )
    assert R.shape == (3001, 3, 3) and omega.shape == (3001, 3)
    assert np.array_equal(R[0], R0) and np.all(omega[0] == 0.0)
    assert unitary_defect(R) < 1e-11
    dt = grid.dt
    dR = (R[:-4] - 8.0 * R[1:-3] + 8.0 * R[3:-1] - R[4:]) / (12.0 * dt)
    Rc = R[2:-2]
    rotated = Rc @ A[2:-2] @ Rc.conj().swapaxes(1, 2) + 1j * Rc @ dR.conj().swapaxes(1, 2)
    off = rotated * (1.0 - np.eye(3))
    assert np.max(np.abs(off)) < 1e-9
    diag = np.einsum("kij,kjl,kil->ki", R, A, R.conj()).real
    simpson = (dt / 3.0) * (diag[0:-2:2] + 4.0 * diag[1:-1:2] + diag[2::2]).cumsum(axis=0)
    assert np.max(np.abs(omega[2::2] - simpson)) < 1e-9


def test_diagonalizing_frame_validation():
    grid = TimeGrid(0.0, 1.0, 11)
    conn = ConnectionSeries(grid.refined(), _smooth_connection(grid.refined(), 2, seed=3))
    with pytest.raises(ValueError, match="odd sample count"):
        holonomy.diagonalizing_frame(ConnectionSeries(grid, conn.samples[:-1]), np.eye(2))
    with pytest.raises(ValueError, match="R0 must be 2x2"):
        holonomy.diagonalizing_frame(conn, np.eye(3))
    with pytest.raises(ValueError, match="not unitary"):
        holonomy.diagonalizing_frame(conn, 1.01 * np.eye(2))
    # one RK4 step of length 1 on a generator of norm ~50 leaves the unitary group
    coarse = TimeGrid(0.0, 1.0, 2)
    big = ConnectionSeries(coarse.refined(), 50.0 * _smooth_connection(coarse.refined(), 2, seed=3))
    with pytest.raises(NumericalError, match="lost unitarity"):
        holonomy.diagonalizing_frame(big, np.linalg.qr(big.samples[0] + 1j * np.eye(2))[0])
