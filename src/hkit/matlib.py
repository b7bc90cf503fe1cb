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
    """Max-norm distance of m^dag m (or of each in a stack) from the identity."""
    return float(np.max(np.abs(_dagger(m) @ m - np.eye(m.shape[-1]))))


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


def polar_svd(W: CMatrix) -> tuple[CMatrix, CMatrix, np.ndarray]:
    """Unitary left-polar factor of W (or a stack) from one SVD W = P S Q^dag.

    Returns (U, P, sig) with U = P Q^dag and the singular values sig in
    descending order, so a caller that also needs sig or the Hermitian
    factor pays for one decomposition.  Non-finite entries abort.

    A stack of 1x1 matrices needs no LAPACK call: U = W/|W| (1 where W = 0,
    as the SVD has it), P = 1 and sig = |W|.
    """
    W = np.asarray(W, dtype=complex)
    if not np.all(np.isfinite(W)):
        raise NumericalError("polar decomposition of non-finite input")
    if W.shape[-2:] == (1, 1):
        mod = np.abs(W)
        U = np.divide(W, mod, out=np.ones_like(W), where=mod > 0.0)
        return U, np.ones_like(W), mod[..., 0]
    P, sig, Qh = np.linalg.svd(W)
    return P @ Qh, P, sig


def polar_unitary(W: CMatrix, rank_tol: float = 1e-12) -> tuple[CMatrix, CMatrix]:
    """Left polar decomposition W = R @ U via SVD, of one matrix or a stack.

    Returns (U, R) with U = P Q^dag unitary and R = sqrt(W W^dag) Hermitian
    PSD, with the leading axes of W.  The SVD route stays unitary for
    rank-deficient input -- the pseudoinverse completion happens
    automatically; singular values below rank_tol times the largest mark
    directions where U follows the SVD column convention rather than the
    data.  Non-finite entries abort.
    """
    U, P, sig = polar_svd(W)
    R = (P * sig[..., None, :]) @ _dagger(P)
    R = 0.5 * (R + _dagger(R))
    return U, R


def unitary_exp(A: CMatrix, s: float = 1.0, return_spread: bool = False):
    """exp(i s A) for Hermitian A (or a stack), via the eigensystem (exactly unitary).

    With return_spread, also returns the phase spread |s| (lam_max - lam_min)
    of each exponential, read off the same eigenvalues.
    """
    A = np.asarray(A, dtype=complex)
    dev = herm_defect(A)
    if dev > HERM_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {dev:.3e})")
    lam, V = np.linalg.eigh(0.5 * (A + _dagger(A)))
    U = (V * np.exp(1j * s * lam)[..., None, :]) @ _dagger(V)
    if return_spread:
        return U, abs(s) * (lam[..., -1] - lam[..., 0])
    return U


def ordered_product(F: np.ndarray) -> np.ndarray:
    """Cumulative time-ordered product [1, F0, F1 F0, F2 F1 F0, ...].

    Later factors multiply from the left; for n factors of shape (d, d)
    the result has n + 1 entries, identity first.

    A blocked two-level prefix: the factors are cut into about sqrt(n)
    blocks of equal length, the last one padded with identities.  One
    batched product per in-block position forms every block's running
    products at once, a sequential pass over the block totals forms each
    block's carry (the product of all earlier blocks), and one batched
    product applies the carries.  The block index is kept as the last,
    contiguous axis, so each batched product is a short einsum over
    length-m vectors rather than m separate small matrix products.  Besides
    the result, one array of the factors' size is held.
    """
    F = np.asarray(F)
    n, dim = F.shape[0], F.shape[-1]
    size = max(1, int(np.ceil(np.sqrt(n))))  # block length
    m = -(-n // size)  # block count
    eye = np.eye(dim, dtype=complex)
    # within[j, :, :, i] starts as factor j of block i and becomes the
    # product of that block's factors 0..j
    within = np.empty((size, dim, dim, m), dtype=complex)
    k = np.arange(m * size)
    within[k[:n] % size, :, :, k[:n] // size] = F
    within[k[n:] % size, :, :, k[n:] // size] = eye
    step = np.empty((dim, dim, m), dtype=complex)
    for j in range(1, size):
        np.einsum("ijm,jkm->ikm", within[j], within[j - 1], out=step)
        within[j] = step
    carry = np.empty((dim, dim, m), dtype=complex)
    acc = eye
    for i in range(m):
        carry[..., i] = acc
        acc = within[-1, :, :, i] @ acc
    out = np.empty((1 + m * size, dim, dim), dtype=complex)
    out[0] = eye
    np.einsum("sijm,jkm->msik", within, carry, out=out[1:].reshape(m, size, dim, dim))
    return out[: n + 1]


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
