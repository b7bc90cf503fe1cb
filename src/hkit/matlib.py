"""Dense complex linear algebra with fixed conventions.

All higher-level machinery funnels through these routines so that sign,
ordering, and branch-cut conventions are decided in exactly one place:

* Hermitian eigensystems come from `eigh` alone: ascending, with
  degeneracy detected by a *relative* gap rule,
* polar decompositions are left polar, ``W = R @ U`` with ``R`` Hermitian
  positive semi-definite,
* phases live on ``(-pi, pi]`` with ``-pi`` mapped to ``+pi``.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np

CMatrix = np.ndarray

HERM_TOL = 1e-10
UNITARY_TOL = 1e-8


class NumericalError(RuntimeError):
    """A computation left its domain of validity (NaN, lost rank, ...)."""


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over broadcast leading axes.

    With an inner size of 1 or 2 the product is an explicit sum over the
    inner index of broadcast elementwise products, accumulated in place:
    several times faster than numpy's stacked matmul, which pays a
    per-matrix overhead on stacks of 2x2 matrices.  Other sizes call
    np.matmul.
    """
    A, B = np.asarray(A), np.asarray(B)
    k = A.shape[-1]
    if k > 2 or min(A.ndim, B.ndim) < 2 or B.shape[-2] != k:
        return np.matmul(A, B)
    out = np.multiply(A[..., :, :1], B[..., :1, :])
    if k == 2:
        out += A[..., :, 1:] * B[..., 1:, :]
    return out


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

    The pairing minimises that largest distance (the bottleneck, min-max
    assignment), found by trying every permutation: the sets compared here
    are eigenphases of a few levels.  Used for comparing eigenphase
    multisets where the ordering produced by two pipelines need not agree
    near the +/-pi seam.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("phase sets must have equal size")
    cost = np.abs(principal_phase(a[:, None] - b[None, :]))
    pairings = np.array(list(permutations(range(a.size))))
    return float(cost[np.arange(a.size), pairings].max(axis=1).min())


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


def polar_unitary(W: CMatrix) -> tuple[CMatrix, CMatrix]:
    """Left polar decomposition W = R @ U via SVD, of one matrix or a stack.

    Returns (U, R) with U = P Q^dag unitary and R = sqrt(W W^dag) Hermitian
    PSD, with the leading axes of W.  The SVD route stays unitary for
    rank-deficient input: directions with vanishing singular values are
    completed by the SVD's column convention rather than by the data.
    Non-finite entries abort.
    """
    U, P, sig = polar_svd(W)
    R = (P * sig[..., None, :]) @ _dagger(P)
    R = 0.5 * (R + _dagger(R))
    return U, R


def block_mask(groups: list[list[int]], dim: int) -> np.ndarray:
    """Boolean (dim, dim) mask, True where row and column share a group."""
    mask = np.zeros((dim, dim), dtype=bool)
    for g in groups:
        mask[np.ix_(g, g)] = True
    return mask


def eigh(A: CMatrix) -> tuple[np.ndarray, CMatrix]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of a
    Hermitian matrix or of each matrix in a stack.

    Only the real part of the diagonal and the lower triangle are read, as
    LAPACK reads them.  A stack of 2x2 matrices [[a, conj(b)], [b, d]] is
    solved in closed form: lam = m -/+ r with m = (a + d)/2, z = (a - d)/2
    and r = hypot(z, |b|).  The upper vector is (z + r, b) for z >= 0 and
    (conj(b), r - z) otherwise, the form without cancellation, divided by
    its norm sqrt(2 r) sqrt(r + |z|); for an upper vector (p, q) the lower
    one is (-conj(q), conj(p)).  A diagonal matrix in ascending order
    (b = 0, z <= 0, which includes r = 0) gives V = 1.  A 1x1 stack is its
    own eigenvalue with vector 1.  Other sizes call LAPACK.  Non-finite
    input, and LAPACK's failure to converge, abort.
    """
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise NumericalError("eigensystem of non-finite input")
    if A.shape[-2:] == (1, 1):
        return A[..., 0, :].real.copy(), np.ones(A.shape, dtype=complex)
    if A.shape[-2:] != (2, 2):
        try:
            return np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensystem: {exc}") from exc
    a, d, b = A[..., 0, 0].real, A[..., 1, 1].real, A[..., 1, 0]
    m = 0.5 * (a + d)
    z = 0.5 * (a - d)
    r = np.hypot(z, np.abs(b))
    upper = z >= 0.0
    norm = np.where(r == 0.0, 1.0, np.sqrt(2.0 * r) * np.sqrt(r + np.abs(z)))
    p = np.where(upper, z + r, b.conj()) / norm
    q = np.where(upper, b, r - z) / norm
    V = np.empty(A.shape, dtype=complex)
    V[..., 0, 0] = -q.conj()
    V[..., 1, 0] = p.conj()
    V[..., 0, 1] = p
    V[..., 1, 1] = q
    V[(b == 0.0) & (z <= 0.0)] = np.eye(2)
    return np.stack([m - r, m + r], axis=-1), V


def unitary_exp(A: CMatrix, s: float = 1.0, return_spread: bool = False):
    """exp(i s A) for Hermitian A (or a stack), via the eigensystem (exactly unitary).

    The exponential V e^{i s Lambda} V^dag is rebuilt as a sum over the
    eigen-index m of the outer products e^{i s lam_m} v_m v_m^dag, d
    elementwise products over the whole stack: several times faster than a
    stacked matmul on 2x2 stacks, about as fast on 4x4 ones.  With
    return_spread, also returns the phase spread |s| (lam_max - lam_min) of
    each exponential, read off the same eigenvalues.
    """
    A = np.asarray(A, dtype=complex)
    dev = herm_defect(A)
    if dev > HERM_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {dev:.3e})")
    lam, V = eigh(0.5 * (A + _dagger(A)))
    Vc = V.conj()
    V *= np.exp(1j * s * lam)[..., None, :]  # columns e^{i s lam_m} v_m
    U = V[..., :, 0, None] * Vc[..., None, :, 0]
    for m in range(1, V.shape[-1]):
        U += V[..., :, m, None] * Vc[..., None, :, m]
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
    contiguous axis, so each batched product works on length-m vectors
    rather than m separate small matrix products: the in-block steps are
    einsums, and the carries are applied as an explicit sum over the inner
    index, written straight into the result.  Besides the result, one array
    of the factors' size is held, and while the carries are applied one
    product of the result's size.
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
    # out[1 + i size + s] = within[s] carry[i], summed over the inner index
    # straight into the result, seen with the block index last
    res = out[1:].reshape(m, size, dim, dim).transpose(1, 2, 3, 0)
    np.multiply(within[:, :, 0, None], carry[0], out=res)
    for j in range(1, dim):
        res += within[:, :, j, None] * carry[j]
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
