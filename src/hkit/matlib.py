"""Dense complex linear algebra with fixed conventions.

All higher-level machinery funnels through these routines so that sign,
ordering, and branch-cut conventions are decided in exactly one place:

* eigen-decompositions are ascending, with degeneracy detected by a
  *relative* gap rule,
* polar decompositions are left polar, ``W = R @ U`` with ``R`` Hermitian
  positive semi-definite,
* phases live on ``(-pi, pi]`` with ``-pi`` mapped to ``+pi``.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

CMatrix = np.ndarray

HERM_TOL = 1e-10
UNITARY_TOL = 1e-8


class NumericalError(RuntimeError):
    """A computation left its domain of validity (NaN, lost rank, ...)."""


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def herm_defect(m: CMatrix) -> float:
    """Max-norm distance from m (or a stack) to its own Hermitian part."""
    return float(np.max(np.abs(m - _dagger(m))))


def unitary_defect(m: CMatrix) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def principal_phase(x):
    """Wrap angles to (-pi, pi]; -pi lands on +pi."""
    y = np.mod(np.asarray(x, dtype=float), 2.0 * np.pi)
    return np.where(y > np.pi, y - 2.0 * np.pi, y)


def match_phase_sets(a, b) -> float:
    """Largest circular distance after optimally pairing two phase sets.

    Used for comparing eigenphase multisets where the ordering produced by
    two pipelines need not agree near the +/-pi seam.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("phase sets must have equal size")
    cost = np.abs(principal_phase(a[:, None] - b[None, :]))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def degeneracy_joins(eigenvalues: np.ndarray, deg_tol: float) -> np.ndarray:
    """The relative gap rule on ascending eigenvalues (or a stack of them).

    Entry i is True where levels i and i+1 share a block:
    ``lam[i+1] - lam[i] <= deg_tol * max(1, lam[-1] - lam[0])``.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    scale = np.maximum(1.0, lam[..., -1] - lam[..., 0])
    return np.diff(lam, axis=-1) <= deg_tol * scale[..., None]


def degeneracy_blocks(eigenvalues: np.ndarray, deg_tol: float) -> list[list[int]]:
    """Group ascending eigenvalues into degenerate runs by the relative gap rule."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        return []
    blocks: list[list[int]] = [[0]]
    for i, joined in enumerate(degeneracy_joins(lam, deg_tol), start=1):
        if joined:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def polar_unitary(W: CMatrix, rank_tol: float = 1e-12) -> tuple[CMatrix, CMatrix]:
    """Left polar decomposition W = R @ U via SVD, of one matrix or a stack.

    Returns (U, R) with U = P Q^dag unitary and R = sqrt(W W^dag) Hermitian
    PSD, with the leading axes of W.  The SVD route stays unitary for
    rank-deficient input -- the pseudoinverse completion happens
    automatically; singular values below rank_tol times the largest mark
    directions where U follows the SVD column convention rather than the
    data.  Non-finite entries abort.
    """
    W = np.asarray(W, dtype=complex)
    if not np.all(np.isfinite(W)):
        raise NumericalError("polar decomposition of non-finite input")
    P, sig, Qh = np.linalg.svd(W)
    U = P @ Qh
    R = (P * sig[..., None, :]) @ _dagger(P)
    R = 0.5 * (R + _dagger(R))
    return U, R


def unitary_exp(A: CMatrix, s: float = 1.0) -> CMatrix:
    """exp(i s A) for Hermitian A (or a stack), via the eigensystem (exactly unitary)."""
    A = np.asarray(A, dtype=complex)
    dev = herm_defect(A)
    if dev > HERM_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {dev:.3e})")
    lam, V = np.linalg.eigh(0.5 * (A + _dagger(A)))
    return (V * np.exp(1j * s * lam)[..., None, :]) @ _dagger(V)


def ordered_product(F: np.ndarray) -> np.ndarray:
    """Cumulative time-ordered product [1, F0, F1 F0, F2 F1 F0, ...].

    Later factors multiply from the left; for n factors of shape (d, d)
    the result has n + 1 entries, identity first.
    """
    F = np.asarray(F)
    n, dim = F.shape[0], F.shape[-1]
    out = np.empty((n + 1, dim, dim), dtype=complex)
    out[0] = np.eye(dim)
    for k in range(n):
        out[k + 1] = F[k] @ out[k]
    return out


def series_derivative(samples: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative of a sampled series of arrays.

    Central differences inside, one-sided three-point stencils at the ends,
    so every point carries an O(dt^2) error and none a first-order one.
    """
    samples = np.asarray(samples)
    if samples.shape[0] < 3:
        raise ValueError("need at least 3 samples for a second-order derivative")
    out = np.empty_like(samples)
    out[1:-1] = (samples[2:] - samples[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * samples[0] + 4.0 * samples[1] - samples[2]) / (2.0 * dt)
    out[-1] = (3.0 * samples[-1] - 4.0 * samples[-2] + samples[-3]) / (2.0 * dt)
    return out


def unitary_eigenphases(U: CMatrix) -> np.ndarray:
    """Sorted eigenvalue phases of a unitary matrix, in (-pi, pi].

    Phases within 1e-12 of the -pi seam are reported as +pi so that equal
    matrices always produce identical output.
    """
    U = np.asarray(U, dtype=complex)
    dev = unitary_defect(U)
    if dev > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
    w = np.linalg.eigvals(U)
    phases = np.angle(w)
    phases = np.where(phases <= -np.pi + 1e-12, phases + 2.0 * np.pi, phases)
    return np.sort(phases)
