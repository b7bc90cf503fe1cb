"""Unit tests for transport cases, the discrete transport and the
time-ordered transporter, and the holonomy assembly."""
from __future__ import annotations

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hkit import cli, dynamics, frames, holonomy, matlib, models
from hkit.dynamics import TimeGrid
from hkit.frames import ConnectionSeries, FrameTrajectory
from hkit.matlib import NumericalError, match_phase_sets, unitary_defect, unitary_exp
from hkit.models import WZ_LOOPS

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


def test_case_groups_follow_the_block_structure():
    blocks = [[0, 1], [2]]
    assert holonomy.case_groups(blocks, "nt_nd") == [[0], [1], [2]]
    assert holonomy.case_groups(blocks, "t_d") == [[0, 1], [2]]
    assert holonomy.case_groups(blocks, "t_nd") == [[0, 1, 2]]
    for tag in ("diag", "general"):
        with pytest.raises(ValueError, match="case tag"):
            holonomy.case_groups(blocks, tag)


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


def test_transporter_refuses_a_non_finite_generator():
    """A NaN generator sample spoils the factors of both intervals it
    bounds; it must abort, not come back as NaN transport."""
    grid = TimeGrid(0.0, 0.5, 6)
    for d in (1, 2, 3, 4):
        A = np.zeros((6, d, d), dtype=complex)
        A[3, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            holonomy.transporter(ConnectionSeries(grid, A))


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
    """With every level retained, the transport undoes the overlap
    exactly and O collapses to the identity."""
    params = _params()
    grid = TimeGrid(0.0, 2.0 * np.pi, 4001)
    samples = np.array([models.chi_closed_form(params, t) for t in grid.times])
    fr = frames.eigenframes(dynamics.OperatorTrajectory(grid, samples, "invariant"))
    res = holonomy.geometric_phase(fr, 4000, "t_nd")
    assert np.max(np.abs(res.O - np.eye(2))) < 1e-5
    assert np.max(np.abs(res.eigenphases)) < 1e-5


def test_polar_factors_rebuild_the_restricted_overlap():
    params = _params(gamma=0.05)
    grid = TimeGrid(0.0, 2.0 * np.pi, 801)
    fr = models.analytic_frames(params, grid)
    for case in ("nt_nd", "t_nd"):
        res = holonomy.geometric_phase(fr, 600, case)
        W = np.where(matlib.block_mask(res.groups, 2), frames.overlap(fr, 600), 0)
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


def test_singular_block_overlap_aborts_the_degenerate_case():
    """Level 0 of the block [0, 1] turns into level 2 by pi/2: the block's
    overlap is singular, so its polar factor would be an arbitrary
    completion rather than a phase."""
    grid = TimeGrid(0.0, 1.0, 33)
    a = 0.5 * np.pi * grid.times
    V = np.zeros((33, 3, 3), dtype=complex)
    V[:, 0, 0] = V[:, 2, 2] = np.cos(a)
    V[:, 2, 0] = np.sin(a)
    V[:, 0, 2] = -np.sin(a)
    V[:, 1, 1] = 1.0
    lam = np.tile([0.0, 0.0, 1.0], (33, 1))
    fr = FrameTrajectory(grid, lam, [[0, 1], [2]], V, "analytic")
    holonomy.geometric_phase(fr, 16, "t_d")  # half way the overlap is regular
    with pytest.raises(NumericalError, match="phase undefined"):
        holonomy.geometric_phase(fr, 32, "t_d")


def test_singular_neighbour_overlap_aborts():
    """On the equator, three samples over one period put neighbouring
    analytic frames half a turn apart: each level's neighbour overlap
    vanishes (sigma ~ 2e-16), so its polar factor, and the phase, is
    undefined, although the end overlap of the closed loop is regular."""
    params = models.TwoLevelDecayParams(theta0=np.pi / 2)
    fr = models.analytic_frames(params, TimeGrid(0.0, 2.0 * np.pi, 3))
    assert abs(frames.overlap(fr, -1)[0, 0]) > 0.5
    with pytest.raises(NumericalError, match=r"overlap singular value .*: phase undefined"):
        holonomy.geometric_phase(fr, -1, "nt_nd")


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
    # and mid-path, on continuity frames, whose diagonal connection is
    # second order in dt, it tracks the diagonal-case eigenphases of either
    # frame source, with the connection built once or per call
    samples = np.array([models.chi_closed_form(params, t) for t in grid.times])
    fc = frames.eigenframes(dynamics.OperatorTrajectory(grid, samples, "invariant"))
    conn = frames.connection(fc)
    mid = sorted(holonomy.noncyclic_abelian_gp(fc, lv, 2400, conn) for lv in (0, 1))
    for source in (fr, fc):
        res = holonomy.geometric_phase(source, 2400, "nt_nd")
        assert match_phase_sets(np.array(mid), res.eigenphases) < 1e-8
    assert mid == sorted(holonomy.noncyclic_abelian_gp(fc, lv, 2400) for lv in (0, 1))


def test_noncyclic_phase_validation():
    fr = models.analytic_frames(_params(), TimeGrid(0.0, 1.0, 9))
    with pytest.raises(ValueError, match="level"):
        holonomy.noncyclic_abelian_gp(fr, 2, 5)
    with pytest.raises(ValueError, match="out of range"):
        holonomy.noncyclic_abelian_gp(fr, 0, 9)


def test_noncyclic_phase_refuses_a_connection_on_another_grid():
    """A connection is integrated on the frames' own time step, so one
    sampled on another grid is refused, not read as if it were theirs."""
    fr = models.analytic_frames(_params(), TimeGrid(0.0, 2.0 * np.pi, 401))
    coarse = frames.connection(models.analytic_frames(_params(), TimeGrid(0.0, 2.0 * np.pi, 101)))
    with pytest.raises(ValueError, match="same grid"):
        holonomy.noncyclic_abelian_gp(fr, 0, -1, coarse)


def test_parallel_residual_flags_untransported_frames():
    params = _params(gamma=0.0)
    grid = TimeGrid(0.0, 2.0 * np.pi, 2001)
    fr = models.analytic_frames(params, grid)
    holo = holonomy.geometric_phase(fr, -1, "t_nd")
    assert holonomy.parallel_residual(fr, holo) < 1e-4
    # the raw frames are not parallel-transported: residual ~ ||A||
    [T] = holo.transport
    plain = np.broadcast_to(np.eye(2, dtype=complex), T.shape).copy()
    assert holonomy.parallel_residual(fr, replace(holo, transport=[plain])) > 0.1
    with pytest.raises(ValueError, match="match"):
        holonomy.parallel_residual(fr, replace(holo, transport=[T[:100]]))


def test_parallel_residual_is_that_of_the_case_transport():
    """The residual reads the in-group entries of the case's own transport.
    With one group of all levels (t_nd) that is every entry, bit for bit,
    and on a complete frame the transported frame T = V Vpar is V(0) at
    every sample, so only rounding is left; on the tripod's palindrome
    loop (t_d) the in-group condition holds to discretization."""
    fr = models.analytic_frames(_params(gamma=0.05), TimeGrid(0.0, 2.0 * np.pi, 801))
    holo = holonomy.geometric_phase(fr, -1, "t_nd")
    T = matlib.mul(fr.vectors, holo.transport[0])
    dT = matlib.series_derivative(T, fr.grid.dt)
    full = float(np.max(np.abs(matlib.mul(T.conj().swapaxes(1, 2), dT))))
    assert holonomy.parallel_residual(fr, holo) == full
    assert full < 1e-11

    res = cli.execute(cli.ScenarioConfig.from_dict({
        "scenario": "wilczek_zee", "params": {"loop": 2, "rabi": 1.3, "duration": 1500.0},
        "grid": {"t1": 1500.0, "n_steps": 4001},
    }))
    assert res.holo.case_tag == "t_d" and res.residual < 1e-6


def _rotating_invariant(d, n):
    """OperatorTrajectory of I(t) = U(t) diag(spectrum) U(t)^dag on n samples of
    [0, 1], U(t) = exp(i t K) for a seeded Hermitian K: nondegenerate for
    d = 2, with a degenerate middle pair for d = 4."""
    rng = np.random.default_rng(d)
    K = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    K = K + K.conj().T
    grid = TimeGrid(0.0, 1.0, n)
    U = unitary_exp(grid.times[:, None, None] * K)
    spectrum = {2: [-1.0, 1.0], 4: [-1.0, 0.0, 0.0, 1.0]}[d]
    return dynamics.OperatorTrajectory(grid, (U * spectrum) @ U.conj().swapaxes(1, 2), "invariant")


def _whole_array_eigenframes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigenframes' Hermitization, eigensystems and continuity gauge, each on
    the whole stack at once."""
    lam, R = matlib.eigh(0.5 * (X + X.conj().transpose(0, 2, 1)))
    V = R.copy()
    for b in matlib.degeneracy_blocks(lam[0], frames.DEG_TOL):
        c = slice(b[0], b[-1] + 1)
        M, _ = matlib.polar_svd(matlib.mul(R[1:, :, c].conj().swapaxes(1, 2), R[:-1, :, c]))
        V[:, :, c] = matlib.mul(R[:, :, c], matlib.ordered_product(M))
    return lam, V


_B = {d: matlib._BLOCK_ENTRIES // d**2 for d in (2, 4)}  # samples per block


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("blocks", ["B-1", "B", "B+1", "2B+1"])
def test_blocked_stages_match_whole_array_forms_bit_for_bit(d, blocks):
    """eigenframes, connection and parallel_residual take their stacks a
    block of samples at a time, the derivatives with one-sample halos; on
    grids just below, at and just above one block, and one sample into a
    third, they equal their whole-array forms exactly."""
    n = {"B-1": _B[d] - 1, "B": _B[d], "B+1": _B[d] + 1, "2B+1": 2 * _B[d] + 1}[blocks]
    traj = _rotating_invariant(d, n)
    fr = frames.eigenframes(traj)
    lam, V = _whole_array_eigenframes(traj.samples)
    assert np.array_equal(fr.eigenvalues, lam) and np.array_equal(fr.vectors, V)

    conn = frames.connection(fr)
    A = 1j * matlib.mul(V.conj().swapaxes(1, 2), matlib.series_derivative(V, fr.grid.dt))
    Ah = A.conj().swapaxes(1, 2)
    assert np.array_equal(conn.samples, 0.5 * (A + Ah))
    assert conn.herm_deviation == float(np.max(np.abs(A - Ah)))

    holo = holonomy.geometric_phase(fr, -1, {2: "nt_nd", 4: "t_d"}[d])
    residual = 0.0
    for g, Tg in zip(holo.groups, holo.transport):
        T = matlib.mul(V[:, :, g[0] : g[-1] + 1], Tg)  # the group's columns of V Vpar
        M = matlib.mul(T.conj().swapaxes(1, 2), matlib.series_derivative(T, fr.grid.dt))
        residual = max(residual, float(np.max(np.abs(M))))
    assert holonomy.parallel_residual(fr, holo) == residual


def test_gram_check_reports_the_whole_array_deviation():
    """FrameTrajectory's orthonormality check, taken a block at a time,
    reports the largest deviation of the whole stack: here in the second
    block, larger than one in the first."""
    fr = frames.eigenframes(_rotating_invariant(2, 2 * _B[2] + 1))
    V = fr.vectors.copy()
    V[3, 0, 1] += 1e-7
    V[_B[2] + 5, 1, 0] += 2e-6
    worst = float(np.max(np.abs(matlib.mul(V.conj().swapaxes(1, 2), V) - np.eye(2))))
    message = f"frame columns are not orthonormal (deviation {worst:.3e})"
    with pytest.raises(ValueError, match=re.escape(message)):
        FrameTrajectory(fr.grid, fr.eigenvalues, fr.blocks, V, "continuity")


def _traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations above those held at
    the call, in bytes."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_per_sample_stages_take_block_sized_transients():
    """On 20 001 two-level samples the residual allocates less than one
    (n, 2, 2) complex series beyond its inputs, and the connection less
    than one beyond its result: their work arrays are block-sized."""
    fr = frames.eigenframes(_rotating_invariant(2, 20001))
    series = fr.vectors.nbytes
    conn, peak = _traced_peak(frames.connection, fr)
    assert peak - conn.samples.nbytes < series, peak
    holo = holonomy.geometric_phase(fr, -1, "nt_nd")
    _, peak = _traced_peak(holonomy.parallel_residual, fr, holo)
    assert peak < series, peak


def test_geometric_phase_keeps_only_the_groups_series():
    """The traced peak of geometric_phase on 20 001 frame samples stays
    below two (n, d, d) series, for 1x1 groups (nt_nd) and for a 2x2
    degenerate block between two levels (t_d): each group's factors and
    transport are (|g|, |g|) series of their own, and the result's arrays
    hold those entries and nothing more."""
    for d, case in ((2, "nt_nd"), (4, "t_d")):
        fr = frames.eigenframes(_rotating_invariant(d, 20001))
        holo, peak = _traced_peak(holonomy.geometric_phase, fr, -1, case)
        assert peak < 2 * fr.vectors.nbytes, (case, peak / fr.vectors.nbytes)
        entries = sum(len(g) ** 2 for g in holo.groups) * (2 * fr.n_steps - 1)
        arrays = holo.factors + holo.transport
        assert sum(x.nbytes for x in arrays) == 16 * entries
        assert all(x.base is None or x.base.nbytes == x.nbytes for x in arrays)


def _assert_vpar_is_entry(holo, k):
    """Vpar holds entry k of each group's transport series as its block,
    and exact zeros between groups."""
    assert not np.any(holo.Vpar[~matlib.block_mask(holo.groups, holo.Vpar.shape[0])])
    for g, T in zip(holo.groups, holo.transport):
        assert np.array_equal(holo.Vpar[g[0] : g[-1] + 1, g[0] : g[-1] + 1], T[k])


def test_holonomy_keeps_one_transport_series():
    """Vpar is entry k of the stored series, which runs over the whole grid
    and is the ordered product of the stored factors.  With one group of
    all levels each factor is the whole neighbour overlap, so on a complete
    frame the series telescopes to V_k^dag V_0."""
    fr = models.analytic_frames(_params(gamma=0.05), TimeGrid(0.0, 2.0 * np.pi, 501))
    for case in ("t_nd", "nt_nd"):
        res = holonomy.geometric_phase(fr, 250, case)
        sizes = [len(g) for g in res.groups]
        assert [T.shape for T in res.transport] == [(501, m, m) for m in sizes]
        assert [F.shape for F in res.factors] == [(500, m, m) for m in sizes]
        _assert_vpar_is_entry(res, 250)
    full = holonomy.geometric_phase(fr, -1, "t_nd")
    [T], [F] = full.transport, full.factors
    assert np.array_equal(T, matlib.ordered_product(F))
    V = fr.vectors
    assert np.max(np.abs(T - matlib.mul(V.conj().swapaxes(1, 2), V[0]))) < 1e-12


def _every_accepted_run():
    """Every shipped scenario's default config under each case its spectrum
    accepts."""
    for scenario in cli.SCENARIOS:
        blocks = cli.execute(cli.ScenarioConfig(scenario=scenario)).frames.blocks
        for case in holonomy.CASE_TAGS:
            try:
                holonomy.check_case(blocks, case)
            except ValueError:
                continue
            yield cli.ScenarioConfig(scenario=scenario, case_tag=case)


def _full_connection_run():
    yield cli.ScenarioConfig.from_dict({
        "scenario": "two_level_decay", "params": {"gamma": 0.01}, "case_tag": "t_nd",
        "grid": {"t1": 2.0 * np.pi, "n_steps": 401},
    })


@pytest.mark.parametrize("runs", [
    pytest.param(_every_accepted_run, id="general"),
    pytest.param(_full_connection_run, id="t_nd"),
])
def test_runs_form_one_connection_and_no_transporter(monkeypatch, runs):
    """execute forms one connection, hands it to the witness, calls no
    transporter, and hands its holonomy to parallel_residual; the
    full-connection case (t_nd) closes to O = 1 on its complete frame.
    ``general`` covers every shipped scenario's default run and every
    accepted case."""
    connection, transporter = frames.connection, holonomy.transporter
    residual, witness = holonomy.parallel_residual, holonomy.nonabelian_witness
    calls, seen, conns = [], [], []
    counted = lambda f: lambda *a: calls.append(f.__name__) or f(*a)  # noqa: E731
    for module in (frames, holonomy):
        monkeypatch.setattr(module, "connection", counted(connection))
    monkeypatch.setattr(holonomy, "transporter", counted(transporter))
    monkeypatch.setattr(
        holonomy, "parallel_residual", lambda fr, h: seen.append(h) or residual(fr, h)
    )
    monkeypatch.setattr(
        holonomy, "nonabelian_witness", lambda h, c: conns.append(c) or witness(h, c)
    )
    for cfg in runs():
        calls.clear()
        seen.clear()
        conns.clear()
        res = cli.execute(cfg)
        assert calls == ["connection"], (cfg.scenario, cfg.case_tag, calls)
        assert len(seen) == 1 and seen[0] is res.holo
        assert len(conns) == 1 and conns[0] is res.conn
        _assert_vpar_is_entry(res.holo, -1)
        if cfg.case_tag == "t_nd":
            assert np.max(np.abs(res.holo.O - np.eye(res.frames.dim))) < 1e-12


def _raise(*args, **kwargs):
    raise AssertionError("called on the phase path")


def test_phase_path_forms_no_connection_derivative_or_exponential(monkeypatch):
    """geometric_phase works from the frames alone: with the connection,
    the series derivative and the unitary exponential made to raise,
    wherever the phase path could reach them, it still runs on every case."""
    two = models.analytic_frames(_params(gamma=4e-3), TimeGrid(0.0, 2.0 * np.pi, 401))
    model = models.wilczek_zee_demo(rabi=1.2, loop=WZ_LOOPS["b"], duration=1500.0)
    tripod = frames.eigenframes(
        models.adiabatic_invariant_trajectory(model, TimeGrid(0.0, 1500.0, 2001))
    )
    for module, name in (
        (frames, "connection"), (holonomy, "connection"),
        (frames, "series_derivative"), (holonomy, "series_derivative"),
        (matlib, "series_derivative"),
        (frames, "unitary_exp"), (holonomy, "unitary_exp"), (matlib, "unitary_exp"),
    ):
        monkeypatch.setattr(module, name, _raise)
    for fr, case in ((two, "nt_nd"), (two, "t_nd"), (tripod, "t_d")):
        res = holonomy.geometric_phase(fr, -1, case)
        assert unitary_defect(res.O) < 1e-12, case


def test_nondegenerate_transport_is_the_cumulative_pancharatnam_phase():
    """nt_nd transports each level by its own 1x1 factor: the level's own
    1x1 series is the running product of the Pancharatnam phases s_k/|s_k|,
    s_k = <v_(k+1)|v_k>.  It is the midpoint
    phase exp(i cumsum(dt (a_k + a_{k+1})/2)) of the diagonal connection up
    to second-order discretization error."""
    fr = models.analytic_frames(_params(gamma=0.05), TimeGrid(0.0, 2.0 * np.pi, 2001))
    res = holonomy.geometric_phase(fr, -1, "nt_nd")
    assert res.groups == [[0], [1]]
    V = fr.vectors
    s = np.einsum("kil,kil->kl", V[1:].conj(), V[:-1])
    ref = np.cumprod(np.vstack([np.ones(2), s / np.abs(s)]), axis=0)
    assert [T.shape for T in res.transport] == [(2001, 1, 1)] * 2
    assert [F.shape for F in res.factors] == [(2000, 1, 1)] * 2
    assert np.max(np.abs(np.hstack([T[:, 0] for T in res.transport]) - ref)) < 1e-12
    conn = frames.connection(fr)
    a = np.einsum("kii->ki", conn.samples).real
    phase = np.cumsum(0.5 * conn.grid.dt * (a[:-1] + a[1:]), axis=0)
    midpoint = np.exp(1j * np.vstack([np.zeros(2), phase]))
    assert np.max(np.abs(ref - midpoint)) < 1e-5


def test_degenerate_transport_is_exactly_block_diagonal():
    """t_d transports the tripod's dark pair as one 2x2 block and the bright
    levels alone; nothing leaks between the blocks, not even rounding:
    each group keeps a series of its own size."""
    model = models.wilczek_zee_demo(rabi=1.2, loop=WZ_LOOPS["a"], duration=1500.0)
    I_traj = models.adiabatic_invariant_trajectory(model, TimeGrid(0.0, 1500.0, 2001))
    fr = frames.eigenframes(I_traj)
    res = holonomy.geometric_phase(fr, -1, "t_d")
    assert res.groups == [[0], [1, 2], [3]]
    assert [T.shape for T in res.transport] == [(2001, 1, 1), (2001, 2, 2), (2001, 1, 1)]
    assert [F.shape for F in res.factors] == [(2000, 1, 1), (2000, 2, 2), (2000, 1, 1)]
    [(Q, _)] = frames.neighbour_transport(fr.vectors, [[1, 2]])
    assert np.array_equal(res.transport[1], matlib.ordered_product(Q))
    assert max(unitary_defect(T[-1]) for T in res.transport) < 1e-12


def test_witness_vanishes_for_diagonal_transport():
    params = _params(gamma=0.0)
    fr = models.analytic_frames(params, TimeGrid(0.0, 2.0 * np.pi, 1001))
    conn = frames.connection(fr)
    w = holonomy.nonabelian_witness(holonomy.geometric_phase(fr, -1, "nt_nd"), conn)
    assert w["commutator_max"] < 1e-12
    assert w["reversal_gap"] < 1e-12
    # keeping the off-diagonal connection turns both diagnostics on
    full = holonomy.nonabelian_witness(holonomy.geometric_phase(fr, -1, "t_nd"), conn)
    assert full["commutator_max"] > 1e-3
    assert full["reversal_gap"] > 1e-6


def test_witness_matches_its_pairwise_and_reversed_sample_definitions():
    """Reference loops on seeded random frames and connection: the factors
    are the polar factors of the neighbour overlaps, sample by sample; the
    commutators run over every probe pair of the connection restricted to
    the case's groups; the forward and reversed orderings are sequential
    products of the factors."""
    rng = np.random.default_rng(5)
    n = 40
    grid = TimeGrid(0.0, 1.0, n)
    G = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    A = 0.5 * (G + G.conj().swapaxes(1, 2))
    V = np.linalg.qr(rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)))[0]
    fr = FrameTrajectory(grid, np.tile([0.0, 1.0, 2.0], (n, 1)), [[0], [1], [2]], V, "analytic")
    conn = ConnectionSeries(grid, A)
    holo = holonomy.geometric_phase(fr, -1, "t_nd")
    Q = [matlib.polar_svd(V[k + 1].conj().T @ V[k])[0] for k in range(n - 1)]
    assert np.max(np.abs(holo.factors[0] - np.array(Q))) < 1e-13
    w = holonomy.nonabelian_witness(holo, conn)
    comm = max(
        np.max(np.abs(A[i] @ A[j] - A[j] @ A[i])) for i in range(n) for j in range(i + 1, n)
    )
    assert abs(w["commutator_max"] - comm) < 1e-13
    forward, backward = np.eye(3, dtype=complex), np.eye(3, dtype=complex)
    for F in np.ascontiguousarray(holo.factors[0]):
        forward, backward = np.dot(F, forward), np.dot(backward, F)
    # the witness reduces the reversed factors pairwise, so it agrees with the
    # sequential product to rounding, not bit for bit
    assert abs(w["reversal_gap"] - np.max(np.abs(forward - backward))) < 1e-14
    assert np.array_equal(holo.Vpar, forward)
    # the nt_nd groups keep only the diagonal of the connection, which commutes
    diag = holonomy.nonabelian_witness(holonomy.geometric_phase(fr, -1, "nt_nd"), conn)
    assert diag["commutator_max"] == 0.0


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


def _closed_form_frames(grid, seed):
    """d = 3 frames V(t) = e^{-i t K1} e^{-i sin(t) K2} with seeded Hermitian
    K1, K2, and their exact connection i V^dag dV/dt
    = e^{i sin(t) K2} K1 e^{-i sin(t) K2} + cos(t) K2."""
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    K = 0.5 * (K + K.conj().swapaxes(1, 2))
    t = grid.times[:, None, None]
    E1 = unitary_exp(-t * K[0])
    E2 = unitary_exp(-np.sin(t) * K[1])
    A = E2.conj().swapaxes(1, 2) @ K[0] @ E2 + np.cos(t) * K[1]
    lam = np.tile([0.0, 1.0, 2.0], (grid.n_steps, 1))
    fr = FrameTrajectory(grid, lam, [[0], [1], [2]], E1 @ E2, "analytic")
    return fr, ConnectionSeries(grid, A)


def test_diagonalizing_frame_beyond_two_levels():
    """d = 3: R stays unitary, its rotated connection R A R^dag + i R dR^dag/dt
    is diagonal (dR/dt from a fourth-order stencil of the samples), and
    omega integrates that diagonal."""
    grid = TimeGrid(0.0, 3.0, 3001)
    fr, conn = _closed_form_frames(grid.refined(), seed=41)
    A = conn.samples[::2]
    R0 = np.linalg.qr(A[0] + 2j * np.eye(3))[0]
    R, omega = holonomy.diagonalizing_frame(fr, conn, R0)
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


def test_diagonalizing_frame_phases_converge_at_fourth_order():
    """omega(T) on the d = 3 frames: halving the step cuts the error against
    a 6401-step run by 2^4."""
    R0 = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 2j * np.eye(3))[0]
    final = {}
    for n in (201, 401, 6401):
        fr, conn = _closed_form_frames(TimeGrid(0.0, 3.0, n).refined(), seed=41)
        final[n] = holonomy.diagonalizing_frame(fr, conn, R0)[1][-1]
    errs = [np.max(np.abs(final[n] - final[6401])) for n in (201, 401)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_diagonalizing_frame_validation():
    grid = TimeGrid(0.0, 1.0, 11)
    fr, conn = _closed_form_frames(grid.refined(), seed=3)
    with pytest.raises(ValueError, match="odd sample count"):
        holonomy.diagonalizing_frame(fr, ConnectionSeries(grid, conn.samples[:-1]), np.eye(3))
    other = ConnectionSeries(TimeGrid(0.0, 2.0, 11).refined(), conn.samples)
    with pytest.raises(ValueError, match="same grid"):
        holonomy.diagonalizing_frame(fr, other, np.eye(3))
    with pytest.raises(ValueError, match="R0 must be 3x3"):
        holonomy.diagonalizing_frame(fr, conn, np.eye(2))
    with pytest.raises(ValueError, match="not unitary"):
        holonomy.diagonalizing_frame(fr, conn, 1.01 * np.eye(3))


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 4e-3])
def test_eigenphases_are_gauge_exact_over_seeded_parameters(gamma):
    """Analytic frames, continuity frames of the sampled closed-form
    invariant and a smooth seeded gauge of the analytic frames give the
    same nt_nd and t_nd eigenphases to rounding (1e-12) on 1025 samples:
    the discrete transport is a product of gauge-invariant overlaps, so no
    discretization error separates the frame sources."""
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        p = models.TwoLevelDecayParams(
            gamma=gamma, theta0=float(rng.uniform(np.pi / 7, 6 * np.pi / 7)),
            phi0=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        grid = TimeGrid(0.0, 2.0 * np.pi / p.omega0, 1025)
        analytic = models.analytic_frames(p, grid)
        samples = np.array([models.chi_closed_form(p, t) for t in grid.times])
        sources = (
            frames.eigenframes(dynamics.OperatorTrajectory(grid, samples, "invariant")),
            frames.gauge_transform(
                analytic, frames.smooth_random_gauge(analytic, amplitude=0.05, seed=seed)
            ),
        )
        for case in ("nt_nd", "t_nd"):
            ref = holonomy.geometric_phase(analytic, -1, case).eigenphases
            for fr in sources:
                got = holonomy.geometric_phase(fr, -1, case).eigenphases
                assert match_phase_sets(ref, got) <= 1e-12, (seed, case)


@pytest.mark.parametrize("loop", ["a", "b"])
def test_tripod_eigenphases_are_gauge_exact(loop):
    """A seeded smooth block gauge of the tripod's continuity frames leaves
    the t_d eigenphases unchanged to rounding (1e-12)."""
    model = models.wilczek_zee_demo(rabi=1.2, loop=WZ_LOOPS[loop], duration=1500.0)
    grid = TimeGrid(0.0, 1500.0, 2001)
    fr = frames.eigenframes(models.adiabatic_invariant_trajectory(model, grid))
    alt = frames.gauge_transform(fr, frames.smooth_random_gauge(fr, amplitude=0.05, seed=7))
    ref, got = (holonomy.geometric_phase(f, -1, "t_d").eigenphases for f in (fr, alt))
    assert match_phase_sets(ref, got) <= 1e-12


@settings(max_examples=20)
@given(
    theta0=st.floats(np.pi / 7, 6 * np.pi / 7),
    phi0=st.floats(0.0, 2.0 * np.pi),
    gamma=st.floats(1e-4, 1e-2),
    seed=st.integers(0, 2**16),
)
def test_gauge_covariance_over_seeded_parameters(theta0, phi0, gamma, seed):
    """A smooth random gauge V -> V M leaves the nt_nd eigenphases and |tr O|
    unchanged and maps O to M0^dag O M0, at check_gauge_invariance's 1e-7."""
    p = models.TwoLevelDecayParams(gamma=gamma, theta0=theta0, phi0=phi0)
    grid = TimeGrid(0.0, 2.0 * np.pi, 4001)
    I_traj = dynamics.propagate(
        models.two_level_model(p), models.chi_closed_form(p, 0.0), grid, kind="invariant"
    )
    fr = frames.eigenframes(I_traj)
    base = holonomy.geometric_phase(fr, -1, "nt_nd")
    M = frames.smooth_random_gauge(fr, amplitude=0.05, seed=seed)
    alt = holonomy.geometric_phase(frames.gauge_transform(fr, M), -1, "nt_nd")
    assert match_phase_sets(base.eigenphases, alt.eigenphases) <= 1e-7
    assert abs(abs(base.trace_O) - abs(alt.trace_O)) <= 1e-7
    assert np.max(np.abs(alt.O - M[0].conj().T @ base.O @ M[0])) <= 1e-7


@settings(max_examples=10)
@given(loop=st.sampled_from(["a", "b"]), rabi=st.floats(1.0, 1.5))
def test_palindrome_identity_over_seeded_parameters(loop, rabi):
    """A loop traversed forward and then backward has the identity as its
    dark-pair holonomy, at check_wilczek_zee's 1e-5."""
    model = models.wilczek_zee_demo(
        rabi=rabi, loop=models.palindrome_loop(WZ_LOOPS[loop]), duration=3000.0
    )
    grid = TimeGrid(0.0, 3000.0, 4001)
    fr = frames.eigenframes(models.adiabatic_invariant_trajectory(model, grid))
    O = holonomy.geometric_phase(fr, -1, "t_d").O[1:3, 1:3]
    assert np.max(np.abs(O - np.eye(2))) <= 1e-5
