"""Unit tests for the dense linear-algebra helpers."""
from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.linalg import expm

from hkit import matlib


def _random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _random_hermitian(rng, n):
    G = _random_complex(rng, n)
    return 0.5 * (G + G.conj().T)


def _random_unitary(rng, n):
    Q, _ = np.linalg.qr(_random_complex(rng, n))
    return Q


def _stack(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((7, 2, 2), (7, 2, 2)),
        ((2, 2), (7, 2, 2)),  # one matrix against a stack: V(0)^dag V(t)
        ((7, 2, 2), (2, 2)),
        ((7, 1, 2, 2), (7, 3, 2, 2)),  # V^dag per sample against its jump operators
        ((7, 3, 2, 2), (7, 1, 2, 2)),
        ((5, 2, 1), (5, 1, 2)),  # outer products
        ((5, 1, 2), (5, 2, 1)),
        ((7, 1, 1), (7, 1, 1)),
        ((1, 1), (7, 1, 1)),
        ((6, 3, 3), (3, 3)),  # inner sizes 3 and 4
        ((6, 1, 3, 3), (1, 6, 3, 3)),
        ((6, 4, 4), (4, 4)),
        ((6, 1, 4, 4), (1, 6, 4, 4)),
        ((4, 4), (6, 4, 4)),
        ((8, 4), (4, 8)),  # the witness's stacked probe products
        ((6, 4, 4), (6, 4, 1)),  # matrix-vector products
    ],
)
def test_mul_of_small_stacks_matches_matmul(a_shape, b_shape):
    """Every inner size is an explicit sum over the inner index: it agrees
    with np.matmul to rounding, over the broadcast shapes in use, and its
    result is stack-last."""
    rng = np.random.default_rng(len(a_shape) + 10 * len(b_shape) + a_shape[-1])
    A, B = _stack(rng, *a_shape), _stack(rng, *b_shape)
    got, want = matlib.mul(A, B), np.matmul(A, B)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.moveaxis(got, (-2, -1), (0, 1)).flags.c_contiguous
    # a read-only broadcast view, as LindbladModel.operators returns
    view = np.broadcast_to(B, want.shape[:-2] + B.shape[-2:])
    assert np.max(np.abs(matlib.mul(A, view) - np.matmul(A, view))) <= 1e-15 * np.max(np.abs(want))


def test_mul_writes_into_a_given_output():
    """out and tmp of any layout receive the product in place."""
    rng = np.random.default_rng(3)
    A, B = _stack(rng, 5, 4, 4), _stack(rng, 5, 4, 2)
    out, tmp = np.empty((5, 4, 2), dtype=complex), np.empty((5, 4, 2), dtype=complex)
    assert matlib.mul(A, B, out, tmp) is out
    assert np.max(np.abs(out - A @ B)) <= 1e-15 * np.max(np.abs(out))


def test_mul_refuses_mismatched_inner_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        matlib.mul(_stack(rng, 3, 2, 1), _stack(rng, 3, 2, 2))
    with pytest.raises(ValueError):
        matlib.mul(_stack(rng, 3, 2, 2), _stack(rng, 3, 1, 2))


def test_principal_phase_wraps_into_half_open_interval():
    assert matlib.principal_phase(np.pi) == pytest.approx(np.pi)
    assert matlib.principal_phase(-np.pi) == pytest.approx(np.pi)
    assert matlib.principal_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    x = np.linspace(-20.0, 20.0, 401)
    w = matlib.principal_phase(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert np.allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


def test_match_phase_sets_handles_the_branch_seam():
    a = np.array([-np.pi + 1e-9, 0.5])
    b = np.array([np.pi, 0.5])
    assert matlib.match_phase_sets(a, b) < 2e-9


def test_match_phase_sets_pairs_greedily_impossible_cases():
    # optimal assignment must cross-pair, a naive sorted match would not
    a = np.array([0.0, 2.0])
    b = np.array([2.1, -0.1])
    assert matlib.match_phase_sets(a, b) == pytest.approx(0.1)
    # the pairing minimises the largest distance (bottleneck), not the sum:
    # the min-sum pairing here has largest distance 2.683
    a = np.array([0.6, 1.4, 0.3])
    b = np.array([2.6, 1.9, -3.0])
    assert matlib.match_phase_sets(a, b) == pytest.approx(2.0)


def test_degeneracy_blocks_groups_close_eigenvalues():
    lam = np.array([0.0, 1e-12, 1.0, 2.0, 2.0 + 1e-11])
    blocks = matlib.degeneracy_blocks(lam, deg_tol=1e-8)
    assert blocks == [[0, 1], [2], [3, 4]]
    assert matlib.degeneracy_blocks(np.array([0.0, 1.0]), 1e-8) == [[0], [1]]


def test_polar_unitary_factors_random_matrices():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        for _ in range(5):
            W = _random_complex(rng, n) + 3.0 * np.eye(n)  # keep it well conditioned
            U, R = matlib.polar_unitary(W)
            assert matlib.unitary_defect(U) < 1e-12
            assert matlib.herm_defect(R) < 1e-12
            assert np.min(np.linalg.eigvalsh(0.5 * (R + R.conj().T))) > 0
            assert np.max(np.abs(R @ U - W)) < 1e-12


def test_polar_unitary_of_a_stack_matches_the_loop():
    rng = np.random.default_rng(12)
    for n in (1, 3):
        W = np.stack([_random_complex(rng, n) + 3.0 * np.eye(n) for _ in range(6)])
        U, R = matlib.polar_unitary(W.reshape(2, 3, n, n))
        assert U.shape == R.shape == (2, 3, n, n)
        for i, Wi in enumerate(W):
            Ui, Ri = matlib.polar_unitary(Wi)
            assert np.max(np.abs(U.reshape(W.shape)[i] - Ui)) < 1e-14
            assert np.max(np.abs(R.reshape(W.shape)[i] - Ri)) < 1e-14


def test_polar_of_1x1_stacks_matches_the_svd():
    """1x1 stacks take the closed form U = W/|W|, sig = |W| instead of LAPACK."""
    rng = np.random.default_rng(14)
    W = rng.normal(size=(200, 1, 1)) + 1j * rng.normal(size=(200, 1, 1))
    W[7] = 0.0
    W[8] = 1e-300
    for stack in (W, W.reshape(4, 50, 1, 1), np.zeros((0, 1, 1), dtype=complex)):
        U, sig = matlib.polar_svd(stack)
        P_ref, sig_ref, Qh_ref = np.linalg.svd(stack)
        assert U.shape == stack.shape and sig.shape == sig_ref.shape
        assert np.max(np.abs(U - P_ref @ Qh_ref), initial=0.0) <= 1e-15
        assert np.max(np.abs(sig - sig_ref), initial=0.0) <= 1e-15
        assert np.max(np.abs(sig[..., None] * U - stack), initial=0.0) <= 1e-15
    assert matlib.polar_svd(W)[0][7, 0, 0] == 1.0
    with pytest.raises(matlib.NumericalError):
        matlib.polar_svd(np.array([[[np.inf]]]))


def test_polar_of_2x2_stacks_matches_the_svd():
    """2x2 stacks take the closed form U = (W + e adj(W)^dag)/(s1 + s2)
    instead of LAPACK: U against P Q^dag where W has full rank, the singular
    values relative to the largest, unitarity and R U = W, on a seeded stack
    and the edge cases."""
    rng = np.random.default_rng(31)
    near_unitary = np.stack([_random_unitary(rng, 2) for _ in range(50)])
    near_unitary += 1e-7 * _stack(rng, 50, 2, 2)  # s1 - s2 ~ 1e-7
    edges = np.array([
        np.diag([3.0, -0.5j]),  # diagonal
        np.outer([1.0, 2.0j], [0.5, -1.0 + 1.0j]),  # rank 1
        np.zeros((2, 2)),
    ], dtype=complex)
    W = np.concatenate([_stack(rng, 200, 2, 2), near_unitary, edges])
    U, sig = matlib.polar_svd(W)
    P_ref, sig_ref, Qh_ref = np.linalg.svd(W)
    assert U.shape == W.shape and sig.shape == sig_ref.shape
    full = sig_ref[:, 1] > 1e-8 * sig_ref[:, 0]  # LAPACK leaves ~1e-17 for rank 1
    assert np.max(np.abs(U - P_ref @ Qh_ref)[full]) <= 1e-14
    scale = np.maximum(sig_ref[:, :1], 1e-300)
    assert np.max(np.abs(sig - sig_ref) / scale) <= 1e-14
    assert np.max(np.abs(U.conj().swapaxes(1, 2) @ U - np.eye(2))) <= 1e-14
    R = W @ U.conj().swapaxes(1, 2)
    assert np.max(np.abs(R @ U - W)) <= 1e-14
    # near-unitary overlaps keep the digits of s1 - s2
    gap_ref = sig_ref[200:250, 0] - sig_ref[200:250, 1]
    assert np.max(np.abs((sig[200:250, 0] - sig[200:250, 1]) - gap_ref) / gap_ref) <= 1e-6
    assert not full[-2:].any() and np.array_equal(U[-1], np.eye(2))
    assert np.max(np.abs(np.linalg.det(U[-2]) - 1.0)) <= 1e-15  # completed to det U = 1
    # leading axes and a read-only broadcast view
    U4, sig4 = matlib.polar_svd(W[:6].reshape(2, 3, 2, 2))
    assert np.array_equal(U4, U[:6].reshape(2, 3, 2, 2)) and np.array_equal(sig4, sig[:6].reshape(2, 3, 2))
    view = np.broadcast_to(W[0], (5, 2, 2))
    Uv, sigv = matlib.polar_svd(view)
    assert not view.flags.writeable and np.array_equal(Uv, np.broadcast_to(U[0], (5, 2, 2)))
    assert np.array_equal(sigv, np.broadcast_to(sig[0], (5, 2)))
    for bad in (np.nan, np.inf):
        Wb = W[:3].copy()
        Wb[1, 0, 1] = bad
        with pytest.raises(matlib.NumericalError):
            matlib.polar_svd(Wb)


def test_polar_unitary_of_a_unitary_is_itself():
    rng = np.random.default_rng(13)
    Q = _random_unitary(rng, 3)
    U, R = matlib.polar_unitary(Q)
    assert np.max(np.abs(U - Q)) < 1e-12
    assert np.max(np.abs(R - np.eye(3))) < 1e-12


def test_polar_unitary_completes_rank_deficient_input():
    """Singular input: the determined sector follows the data and the
    unitary factor is completed by the SVD convention."""
    U, R = matlib.polar_unitary(np.diag([2.0, 0.0]).astype(complex))
    assert np.max(np.abs(R - np.diag([2.0, 0.0]))) < 1e-12
    assert np.max(np.abs(U[:, 0] - [1.0, 0.0])) < 1e-12
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12
    assert np.max(np.abs(R @ U - np.diag([2.0, 0.0]))) < 1e-12


def test_polar_unitary_rejects_non_finite_input():
    with pytest.raises(matlib.NumericalError):
        matlib.polar_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigh_of_2x2_stacks_matches_lapack():
    """The closed form against LAPACK on a seeded stack and the edge cases:
    eigenvalues, the residual ||A V - V Lam|| and ||V^dag V - 1||, each
    relative to the largest entry of A."""
    rng = np.random.default_rng(19)
    edges = [
        np.diag([1.0, 2.0]), np.diag([2.0, 1.0]),  # diagonal, both orders
        3.0 * np.eye(2),  # exactly degenerate
        np.diag([1.0, 1.0 + 1e-9]), [[1.0, 1e-9 - 2e-9j], [1e-9 + 2e-9j, 1.0]],  # gap 1e-9
        1e8 * _random_hermitian(rng, 2),  # entries at scale 1e8
        np.zeros((2, 2)),
        [[0.0, 2.0 - 1.0j], [2.0 + 1.0j, 0.0]],  # purely off-diagonal
    ]
    A = np.concatenate([
        np.stack([_random_hermitian(rng, 2) for _ in range(200)]),
        np.array(edges, dtype=complex),
    ])
    lam, V = matlib.eigh(A)
    scale = np.maximum(np.max(np.abs(A), axis=(1, 2)), 1e-300)[:, None]
    assert np.max(np.abs(lam - np.linalg.eigvalsh(A)) / scale) <= 1e-13
    residual = np.max(np.abs(A @ V - V * lam[:, None, :]), axis=2)
    assert np.max(residual / scale) <= 1e-13
    assert np.max(np.abs(V.conj().swapaxes(1, 2) @ V - np.eye(2))) <= 1e-13
    assert np.all(np.diff(lam, axis=1) >= 0.0)
    # a diagonal matrix in ascending order, including r = 0, keeps the unit vectors
    for k in (200, 202, 203, 206):
        assert np.array_equal(V[k], np.eye(2))
    one, vec = matlib.eigh(A[:1])
    assert np.array_equal(one, lam[:1]) and np.array_equal(vec, V[:1])


def test_eigh_of_other_sizes_follows_lapack():
    rng = np.random.default_rng(23)
    A = np.stack([_random_hermitian(rng, 3) for _ in range(4)])
    lam, V = matlib.eigh(A)
    ref_lam, ref_V = np.linalg.eigh(A)
    assert np.array_equal(lam, ref_lam) and np.array_equal(V, ref_V)
    lam1, V1 = matlib.eigh(np.array([[[2.5]], [[-1.0]]]))
    assert np.array_equal(lam1, [[2.5], [-1.0]]) and np.array_equal(V1, np.ones((2, 1, 1)))


def test_eigh_turns_bad_input_into_numerical_errors(monkeypatch):
    for n in (1, 2, 3):
        A = np.eye(n, dtype=complex)
        A[-1, -1] = np.nan
        with pytest.raises(matlib.NumericalError, match="non-finite"):
            matlib.eigh(A)

    def no_convergence(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(matlib.NumericalError, match="did not converge"):
        matlib.eigh(np.eye(3))


def test_unitary_exp_matches_dense_expm():
    rng = np.random.default_rng(17)
    A = _random_hermitian(rng, 4)
    for s in (1.0, -0.25, 0.001):
        assert np.max(np.abs(matlib.unitary_exp(A, s) - expm(1j * s * A))) < 1e-12


def test_unitary_exp_of_a_stack_matches_the_loop():
    """1x1, 2x2 and 3x3 stacks alike: the first matrices and those on
    both sides of a chunk boundary against their own single-matrix calls,
    and the ValueError of a non-Hermitian matrix, its deviation
    herm_defect, for an off-diagonal and a diagonal entry."""
    rng = np.random.default_rng(19)
    for d in (1, 2, 3):
        chunk = matlib._BLOCK_ENTRIES // (d * d)
        A = np.stack([_random_hermitian(rng, d) for _ in range(chunk + 4)])
        E = matlib.unitary_exp(A, 0.7)
        assert E.shape == A.shape
        for k in list(range(5)) + list(range(chunk - 3, min(chunk + 3, len(A)))):
            assert np.max(np.abs(E[k] - matlib.unitary_exp(A[k], 0.7))) < 1e-14, (d, k)
        for entry in ((d - 1, 0), (0, 0)):
            bad = A[:5].copy()
            bad[(3,) + entry] += 1e-6j
            message = f"generator is not Hermitian (deviation {matlib.herm_defect(bad):.3e})"
            with pytest.raises(ValueError, match=re.escape(message)):
                matlib.unitary_exp(bad)


def test_unitary_exp_matches_expm_across_scaling():
    """Norms from 1e-8 (no squaring) to 50 (seven squarings and more), each
    size, a large trace offset and a stack mixing one large exponent into
    small ones, whose own scaling keeps them at rounding level."""
    rng = np.random.default_rng(37)
    for d in (1, 2, 3, 4):
        for norm in (1e-8, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 50.0):
            A = np.stack([_random_hermitian(rng, d) for _ in range(8)])
            A *= norm / np.linalg.norm(A, 2, axis=(1, 2))[:, None, None]
            for s in (1.0, -0.6):
                U = matlib.unitary_exp(A, s)
                for Ak, Uk in zip(A, U):
                    assert np.max(np.abs(Uk - expm(1j * s * Ak))) <= 1e-12, (d, norm, s)
                    assert matlib.unitary_defect(Uk) <= 1e-14, (d, norm, s)
        shifted = _random_hermitian(rng, d) + 1e3 * np.eye(d)
        assert np.max(np.abs(matlib.unitary_exp(shifted, 0.9) - expm(0.9j * shifted))) <= 1e-12
    small = np.stack([1e-3 * _random_hermitian(rng, 4) for _ in range(40)])
    mixed = np.concatenate([small[:20], 50.0 * _random_hermitian(rng, 4)[None], small[20:]])
    U = matlib.unitary_exp(mixed)
    assert np.max(np.abs(U[20] - expm(1j * mixed[20]))) <= 1e-12
    for Ak, Uk in zip(small, np.delete(U, 20, axis=0)):
        assert np.max(np.abs(Uk - expm(1j * Ak))) <= 1e-13


def test_unitary_exp_rejects_non_finite_input():
    for d in (1, 2, 3, 4):
        for value in (np.nan, np.inf, -np.inf):
            A = np.stack([np.eye(d, dtype=complex)] * 3)
            A[1, -1, -1] = value
            with pytest.raises(matlib.NumericalError, match="non-finite"):
                matlib.unitary_exp(A)
            with pytest.raises(matlib.NumericalError, match="non-finite"):
                matlib.unitary_exp(A[1])


def _small_stack(rng, d, size, s, count=6):
    """``count`` Hermitian d x d matrices with |s| |A - mu 1|_2 = size and a
    random trace mu; a 1x1 matrix is all trace, so there |s a| = size."""
    if d == 1:
        return (size / abs(s)) * rng.choice([-1.0, 1.0], size=(count, 1, 1)) + 0j
    A = np.stack([_random_hermitian(rng, 2) for _ in range(count)])
    B = A - 0.5 * np.trace(A, axis1=1, axis2=2)[:, None, None] * np.eye(2)
    B *= size / (abs(s) * np.linalg.norm(B, 2, axis=(1, 2)))[:, None, None]
    return B + rng.normal(size=count)[:, None, None] * np.eye(2)


def test_unitary_exp_of_1x1_and_2x2_stacks_matches_expm():
    """1x1 and 2x2 stacks take the one Taylor path, with its per-matrix
    scaling and Newton polish: against expm, and unitary to 1e-15, for
    s|A - mu| of exactly 0 (a multiple of the identity), 1e-12, 1e-6, 1,
    1e2 and 1e3."""
    rng = np.random.default_rng(41)
    for d in (1, 2):
        for size in (0.0, 1e-12, 1e-6, 1.0, 1e2, 1e3):
            for s in (1.0, -0.6):
                A = _small_stack(rng, d, size, s)
                U = matlib.unitary_exp(A, s)
                for Ak, Uk in zip(A, U):
                    assert np.max(np.abs(Uk - expm(1j * s * Ak))) <= 1e-12, (d, size, s)
                    assert matlib.unitary_defect(Uk) <= 1e-15, (d, size, s)


def test_ordered_product_puts_later_factors_on_the_left():
    rng = np.random.default_rng(29)
    F = np.stack([_random_unitary(rng, 2) for _ in range(4)])
    P = matlib.ordered_product(F)
    assert P.shape == (5, 2, 2)
    assert np.array_equal(P[0], np.eye(2))
    assert np.max(np.abs(P[-1] - F[3] @ F[2] @ F[1] @ F[0])) < 1e-14
    assert np.array_equal(matlib.ordered_product(F[:0]), np.eye(2)[None])


def test_ordered_product_matches_the_sequential_loop():
    """The pairwise scan against the plain loop, over the degenerate lengths
    0 to 3, short stacks (15, 16, 17), lengths around the stepwise cut-off
    C (C - 1, C, C + 1, 2C + 1), lengths either side of 1024 (1023, 1025)
    and a long stack (20 000), and np.cumprod's running product of a 1x1 stack; from
    the identity and from start operands X0 of shapes (d, 1) and (d, d),
    where n = 0 gives [X0].  Every result is stack-last: contiguous once
    the stack axis is moved last."""

    def loop(F, X0):
        out = np.empty((len(F) + 1,) + X0.shape, dtype=complex)
        out[0] = X0
        for k in range(len(F)):
            out[k + 1] = F[k] @ out[k]
        return out

    C = matlib._STEPWISE_FACTORS
    rng = np.random.default_rng(31)
    for d in (1, 2, 4):
        G = rng.normal(size=(20000, d, d)) + 1j * rng.normal(size=(20000, d, d))
        factors = matlib.unitary_exp(0.5 * (G + G.conj().swapaxes(1, 2)), 0.3)
        starts = [rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)) for k in (1, d)]
        for n in (0, 1, 2, 3, 15, 16, 17, C - 1, C, C + 1, 2 * C + 1, 1023, 1025, 20000):
            F = factors[:n]
            P = matlib.ordered_product(F)
            assert P.shape == (n + 1, d, d)
            assert np.moveaxis(P, 0, -1).flags.c_contiguous, (n, d)
            assert np.array_equal(P[0], np.eye(d))
            assert np.max(np.abs(P - loop(F, np.eye(d)))) <= 1e-13, (n, d)
            for X0 in starts:
                P = matlib.ordered_product(F, X0)
                assert P.shape == (n + 1,) + X0.shape
                assert np.moveaxis(P, 0, -1).flags.c_contiguous, (n, d)
                assert np.array_equal(P[0], X0)
                assert np.max(np.abs(P - loop(F, X0))) <= 1e-13 * np.max(np.abs(X0)), (n, d)
                if n == 0:
                    assert np.array_equal(P, X0[None])


def test_ordered_product_depth_grows_with_log_n(monkeypatch):
    """The pairwise scan's stacked products grow with log2(n), not with
    sqrt(n): ten times as many random unitary 2x2 factors (2 000, then
    20 000) take at most 16 more `mul` calls (a blocked prefix of
    ceil(sqrt(n))-long blocks took 88, then 282)."""
    calls, mul = [], matlib.mul

    def counted(*args, **kwargs):
        calls.append(None)
        return mul(*args, **kwargs)

    monkeypatch.setattr(matlib, "mul", counted)
    rng = np.random.default_rng(32)
    G = rng.normal(size=(20000, 2, 2)) + 1j * rng.normal(size=(20000, 2, 2))
    factors = matlib.unitary_exp(0.5 * (G + G.conj().swapaxes(1, 2)), 0.3)
    counts = []
    for n in (2000, 20000):
        calls.clear()
        matlib.ordered_product(factors[:n])
        counts.append(len(calls))
    assert counts[1] - counts[0] <= 16, counts


def test_series_derivative_exact_on_quadratics():
    t = np.linspace(0.0, 2.0, 21)
    samples = (3.0 * t**2 - 2.0 * t + 1.0)[:, None, None] * np.ones((1, 2, 2))
    d = matlib.series_derivative(samples, t[1] - t[0])
    expected = (6.0 * t - 2.0)[:, None, None] * np.ones((1, 2, 2))
    assert np.max(np.abs(d - expected)) < 1e-10


def test_series_derivative_is_second_order():
    def err(n):
        t = np.linspace(0.0, 1.0, n)
        samples = np.sin(5.0 * t)[:, None, None]
        d = matlib.series_derivative(samples, t[1] - t[0])
        return np.max(np.abs(d[:, 0, 0] - 5.0 * np.cos(5.0 * t)))

    ratio = err(101) / err(201)
    assert 3.0 < ratio < 5.0


def test_halo_window_gives_the_whole_series_derivative_of_any_range():
    """For every sample range of short series, the derivative of its halo
    window, cut to the range or formed on the range alone, equals the whole
    series' derivative on the range bit for bit: the rule that blocked
    connections, residuals and the coefficient route's stepper blocks rely
    on."""
    rng = np.random.default_rng(5)
    for n in range(3, 9):
        x = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        whole = matlib.series_derivative(x, 0.3)
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                ext, own = matlib.halo_window(lo, hi, n)
                assert ext.stop - ext.start >= 3 and own.stop - own.start == hi - lo
                got = matlib.series_derivative(x[ext], 0.3)[own]
                assert np.array_equal(got, whole[lo:hi]), (n, lo, hi)
                got = matlib.series_derivative(x[ext], 0.3, own)
                assert np.array_equal(got, whole[lo:hi]), (n, lo, hi)


def test_series_derivative_needs_three_samples():
    with pytest.raises(ValueError):
        matlib.series_derivative(np.zeros((2, 2, 2)), 0.1)


def test_unitary_eigenphases_sorted_and_consistent():
    rng = np.random.default_rng(23)
    phases = np.array([-2.0, 0.3, 2.9])
    Q = _random_unitary(rng, 3)
    U = Q @ np.diag(np.exp(1j * phases)) @ Q.conj().T
    got = matlib.unitary_eigenphases(U)
    assert np.all(np.diff(got) >= 0)
    assert matlib.match_phase_sets(got, phases) < 1e-10


def test_unitary_eigenphases_canonicalizes_minus_pi():
    got = matlib.unitary_eigenphases(np.diag([-1.0 + 0.0j, 1.0]))
    assert got == pytest.approx([0.0, np.pi])


def test_unitary_eigenphases_rejects_nonunitary():
    with pytest.raises(ValueError):
        matlib.unitary_eigenphases(np.diag([0.5, 1.0]).astype(complex))
