"""Unit tests for eigenframe trajectories, gauge changes, and the connection."""
from __future__ import annotations

import numpy as np
import pytest

from hkit import dynamics, frames, models
from hkit.dynamics import OperatorTrajectory, TimeGrid
from hkit.frames import FrameTrajectory, eigenframes, gauge_transform
from hkit.matlib import NumericalError, eigh, polar_unitary


def _decay_invariant_traj(params, grid):
    samples = np.array([models.chi_closed_form(params, t) for t in grid.times])
    return OperatorTrajectory(grid, samples, "invariant")


def _eigen_residual(traj, fr):
    """max_k || I(t_k) V_k - V_k diag(lam_k) ||_max, a frame-quality metric."""
    return float(np.max(np.abs(traj.samples @ fr.vectors - fr.vectors * fr.eigenvalues[:, None, :])))


def _params(**kw):
    base = dict(gamma=1e-3, theta0=2 * np.pi / 3)
    base.update(kw)
    return models.TwoLevelDecayParams(**base)


def test_frame_trajectory_validation():
    grid = TimeGrid(0.0, 1.0, 3)
    lam = np.zeros((3, 2))
    V = np.stack([np.eye(2, dtype=complex)] * 3)
    with pytest.raises(ValueError, match="gauge tag"):
        FrameTrajectory(grid, lam, [[0], [1]], V, "sloppy")
    with pytest.raises(ValueError, match="partition"):
        FrameTrajectory(grid, lam, [[0], [0]], V, "analytic")
    with pytest.raises(ValueError, match="orthonormal"):
        FrameTrajectory(grid, lam, [[0], [1]], 2.0 * V, "analytic")
    with pytest.raises(ValueError, match="shape"):
        FrameTrajectory(grid, lam, [[0], [1]], V[:, :1, :], "analytic")
    with pytest.raises(ValueError, match="grid"):
        FrameTrajectory(TimeGrid(0.0, 1.0, 4), lam, [[0], [1]], V, "analytic")


def test_frames_and_gauges_refuse_non_finite_samples():
    """A NaN or inf entry in one sample of a 5-sample identity stack makes
    the Gram deviation NaN or inf, which an orthonormality or unitarity
    test alone lets through: both the frames and the gauge name the sample."""
    grid = TimeGrid(0.0, 1.0, 5)
    V = np.stack([np.eye(2, dtype=complex)] * 5)
    fr = FrameTrajectory(grid, np.zeros((5, 2)), [[0], [1]], V, "analytic")
    for bad in (np.nan, np.inf):
        W = V.copy()
        W[3, 1, 0] = bad
        with pytest.raises(ValueError, match="^frame sample 3 is not finite$"):
            FrameTrajectory(grid, np.zeros((5, 2)), [[0], [1]], W, "analytic")
        with pytest.raises(ValueError, match="^gauge sample 3 is not finite$"):
            gauge_transform(fr, W)


def test_frames_refuse_a_block_that_is_not_a_contiguous_run():
    """Every degeneracy block is a contiguous run of ascending levels, which
    the transport reads as a view of the columns."""
    grid = TimeGrid(0.0, 1.0, 3)
    V = np.stack([np.eye(3, dtype=complex)] * 3)
    for blocks in ([[0, 2], [1]], [[1, 0], [2]], [[0, 1, 2], []]):
        with pytest.raises(ValueError, match="contiguous run of ascending levels"):
            FrameTrajectory(grid, np.zeros((3, 3)), blocks, V, "analytic")
    FrameTrajectory(grid, np.zeros((3, 3)), [[2], [0, 1]], V, "analytic")


def test_eigenframes_match_closed_form_eigenvalues():
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 801)
    fr = eigenframes(_decay_invariant_traj(params, grid))
    data = models.analytic_frames(params, grid)
    # eigh sorts ascending; the closed form orders (+, -) with lam_+ > lam_-
    assert np.max(np.abs(fr.eigenvalues[:, 1] - data.eigenvalues[:, 0])) < 1e-12
    assert np.max(np.abs(fr.eigenvalues[:, 0] - data.eigenvalues[:, 1])) < 1e-12
    assert fr.blocks == [[0], [1]]
    assert fr.gauge_tag == "continuity"


def test_eigenframes_diagonalize_to_machine_precision():
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 801)
    traj = _decay_invariant_traj(params, grid)
    fr = eigenframes(traj)
    assert _eigen_residual(traj, fr) < 1e-12


def test_eigenframes_reject_bad_input():
    grid = TimeGrid(0.0, 1.0, 3)
    good = np.stack([np.eye(2, dtype=complex)] * 3)
    with pytest.raises(ValueError, match="invariant"):
        eigenframes(OperatorTrajectory(grid, good, "coefficient"))
    crooked = good.copy()
    crooked[1, 0, 1] = 1.0  # only the upper triangle: not Hermitian
    with pytest.raises(ValueError, match="sample 1"):
        eigenframes(OperatorTrajectory(grid, crooked, "invariant"))


def test_eigenframes_abort_at_a_level_crossing():
    grid = TimeGrid(0.0, 1.0, 101)
    samples = np.array([np.diag([t, 1.0 - t]).astype(complex) for t in grid.times])
    with pytest.raises(NumericalError, match="structure changed at t=0.5"):
        eigenframes(OperatorTrajectory(grid, samples, "invariant"))


def _rotated(eigenvalues, plane, angles):
    """Samples Q(a) diag(eigenvalues) Q(a)^T, Q a rotation by a in `plane`."""
    i, j = plane
    out = []
    for a in angles:
        Q = np.eye(len(eigenvalues))
        Q[i, i] = Q[j, j] = np.cos(a)
        Q[i, j], Q[j, i] = -np.sin(a), np.sin(a)
        out.append((Q @ np.diag(eigenvalues) @ Q.T).astype(complex))
    return np.array(out)


def test_eigenframes_abort_when_the_grid_is_too_coarse():
    grid = TimeGrid(0.0, 1.0, 3)
    coarse = [
        # quarter-turn per step: successive eigenvectors nearly orthogonal
        _rotated([1.0, 2.0], (0, 1), [0.0, 0.5 * np.pi, np.pi]),
        # nondegenerate levels with per-step overlap 0.2: only the subspace
        # rule mean(sigma^2) < BLOCK_OVERLAP_MIN catches it
        _rotated([1.0, 2.0], (0, 1), [0.0, np.arccos(0.2), 2.0 * np.arccos(0.2)]),
        # a 2-fold block rotated out of itself (sigma = 1, cos 1.5): only the
        # sigma_min rule catches it
        _rotated([1.0, 1.0, 3.0, 3.0], (1, 2), [0.0, 1.5, 3.0]),
    ]
    for samples in coarse:
        with pytest.raises(NumericalError, match="continuity lost"):
            eigenframes(OperatorTrajectory(grid, samples, "invariant"))


def test_continuity_loss_reports_the_first_failing_time():
    grid = TimeGrid(0.0, 5.0, 6)
    for eigenvalues, plane, jump in (
        ([1.0, 2.0], (0, 1), np.arccos(0.2)),
        ([1.0, 1.0, 3.0, 3.0], (1, 2), 1.5),
    ):
        angles = [0.0, 0.01, 0.02, 0.02 + jump, 0.02 + 2.0 * jump, 0.03 + 2.0 * jump]
        samples = _rotated(eigenvalues, plane, angles)
        with pytest.raises(NumericalError, match=r"continuity lost at t=3:"):
            eigenframes(OperatorTrajectory(grid, samples, "invariant"))


def test_tripod_continuity_gauge_makes_neighbour_overlaps_hermitian_positive():
    """Polar alignment leaves V_k^dag V_{k-1} Hermitian positive inside each
    block, the discrete parallel-transport condition."""
    model = models.wilczek_zee_demo(rabi=1.3, duration=1500.0)
    grid = TimeGrid(0.0, 1500.0, 2001)
    fr = eigenframes(models.adiabatic_invariant_trajectory(model, grid))
    assert [len(b) for b in fr.blocks] == [1, 2, 1]
    for b in fr.blocks:
        V = fr.vectors[:, :, b]
        B = V[1:].conj().swapaxes(1, 2) @ V[:-1]
        assert np.max(np.abs(B - B.conj().swapaxes(1, 2))) < 1e-12
        assert np.min(np.linalg.eigvalsh(0.5 * (B + B.conj().swapaxes(1, 2)))) > 0.0


def test_continuity_gauge_matches_sample_by_sample_polar_alignment():
    """Reference loop: align each block of the diagonalizer's vectors to the
    already aligned predecessor, V_k = R_k polar(R_k^dag V_{k-1})."""
    model = models.wilczek_zee_demo(rabi=1.3, duration=1500.0)
    tripod = models.adiabatic_invariant_trajectory(model, TimeGrid(0.0, 1500.0, 2001))
    decay = _decay_invariant_traj(_params(), TimeGrid(0.0, 2.0 * np.pi, 801))
    for traj in (tripod, decay):
        fr = eigenframes(traj)
        _, R = eigh(traj.samples)
        V = R.copy()
        for k in range(1, traj.grid.n_steps):
            for b in fr.blocks:
                U, _ = polar_unitary(R[k][:, b].conj().T @ V[k - 1][:, b])
                V[k][:, b] = R[k][:, b] @ U
        assert np.max(np.abs(fr.vectors - V)) < 1e-12


def test_continuity_gauge_jumps_shrink_linearly_with_the_step():
    params = _params()
    jumps = []
    for n in (401, 801):
        grid = TimeGrid(0.0, 2.0 * np.pi, n)
        fr = eigenframes(_decay_invariant_traj(params, grid))
        jumps.append(np.max(np.abs(np.diff(fr.vectors, axis=0))))
    assert jumps[0] < 1e-2
    assert 1.8 < jumps[0] / jumps[1] < 2.2


def test_connection_matches_the_closed_form():
    params = _params()
    errs = []
    for n in (1001, 2001):
        grid = TimeGrid(0.0, 2.0 * np.pi, n)
        conn = frames.connection(models.analytic_frames(params, grid))
        exact = models.analytic_connection(params, grid)
        errs.append(np.max(np.abs(conn.samples - exact.samples)))
    assert errs[1] < 2e-6
    assert 3.5 < errs[0] / errs[1] < 4.5  # second-order stencils


def test_connection_samples_are_hermitian():
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 401)
    conn = frames.connection(models.analytic_frames(params, grid))
    dagger = np.conj(np.swapaxes(conn.samples, 1, 2))
    assert np.max(np.abs(conn.samples - dagger)) < 1e-15
    assert conn.herm_deviation < 1e-3
    assert conn.herm_deviation <= frames.CONNECTION_HERM_TOL


def test_continuity_gauge_suppresses_the_diagonal_connection():
    """Phase fixing makes successive overlaps real, so the Hermitized
    finite-difference connection has an exactly real-free diagonal at
    interior points; only the one-sided end stencils leave a residue."""
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 1001)
    fr = eigenframes(_decay_invariant_traj(params, grid))
    diag = np.abs(np.einsum("kii->ki", frames.connection(fr).samples))
    assert np.max(diag[1:-1]) < 1e-12
    assert np.max(diag[[0, -1]]) < 1e-4


def test_overlap_starts_at_identity_and_stays_unitary():
    params = _params(gamma=0.05)
    grid = TimeGrid(0.0, 2.0 * np.pi, 401)
    fr = models.analytic_frames(params, grid)
    assert np.max(np.abs(frames.overlap(fr, 0) - np.eye(2))) < 1e-14
    for k in (57, 200, 400, -1):
        W = frames.overlap(fr, k)
        assert np.max(np.abs(W.conj().T @ W - np.eye(2))) < 1e-12
    assert np.allclose(frames.overlap(fr, -1), frames.overlap(fr, 400))
    with pytest.raises(ValueError):
        frames.overlap(fr, 401)


def test_closed_system_frames_are_periodic_over_one_drive_period():
    params = _params(gamma=0.0)
    grid = TimeGrid(0.0, 2.0 * np.pi / params.omega0, 401)
    fr = models.analytic_frames(params, grid)
    W = frames.overlap(fr, fr.n_steps - 1)
    assert np.max(np.abs(W - np.eye(2))) < 1e-12


def test_overlap_transforms_covariantly_under_a_gauge_change():
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 257)
    fr = models.analytic_frames(params, grid)
    M = frames.smooth_random_gauge(fr, amplitude=0.3, seed=7)
    fr2 = gauge_transform(fr, M)
    for k in (31, 128, 256):
        expect = M[0].conj().T @ frames.overlap(fr, k) @ M[k]
        assert np.max(np.abs(frames.overlap(fr2, k) - expect)) < 1e-12


def test_gauge_transform_rejections():
    params = _params()
    grid = TimeGrid(0.0, 1.0, 5)
    fr = models.analytic_frames(params, grid)
    with pytest.raises(ValueError, match="sample 0 is not unitary"):
        gauge_transform(fr, 0.5 * np.eye(2))
    mixer = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="mixes degeneracy blocks"):
        gauge_transform(fr, mixer)
    with pytest.raises(ValueError, match="one matrix or one per grid sample"):
        gauge_transform(fr, np.stack([np.eye(2, dtype=complex)] * 3))


def test_gauge_transform_applies_per_sample_phases():
    params = _params()
    grid = TimeGrid(0.0, 1.0, 9)
    fr = models.analytic_frames(params, grid)
    phases = np.exp(1j * np.linspace(0.0, 0.8, 9))
    M = np.zeros((9, 2, 2), dtype=complex)
    M[:, 0, 0] = phases
    M[:, 1, 1] = np.conj(phases)
    fr2 = gauge_transform(fr, M)
    assert np.max(np.abs(fr2.vectors[3][:, 0] - phases[3] * fr.vectors[3][:, 0])) < 1e-14
    assert np.allclose(fr2.eigenvalues, fr.eigenvalues)


def test_smooth_random_gauge_properties():
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 129)
    fr = models.analytic_frames(params, grid)
    M = frames.smooth_random_gauge(fr, amplitude=0.2, seed=11)
    gram = np.einsum("kji,kjl->kil", M.conj(), M)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    # periodic over the span, block-diagonal, reproducible
    assert np.max(np.abs(M[0] - M[-1])) < 1e-12
    assert np.max(np.abs(M[:, 0, 1])) == 0.0 and np.max(np.abs(M[:, 1, 0])) == 0.0
    again = frames.smooth_random_gauge(fr, amplitude=0.2, seed=11)
    assert np.array_equal(M, again)
    other = frames.smooth_random_gauge(fr, amplitude=0.2, seed=12)
    assert np.max(np.abs(M - other)) > 1e-3
