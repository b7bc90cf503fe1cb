"""Dense complex linear algebra with fixed conventions.

All higher-level machinery funnels through these routines so that sign,
ordering, and branch-cut conventions are decided in exactly one place:

* Hermitian eigensystems come from `eigh` alone: ascending, with
  degeneracy detected by a *relative* gap rule,
* polar decompositions are left polar, ``W = R @ U`` with ``R`` Hermitian
  positive semi-definite, from `polar_svd` alone: in closed form on 1x1
  and 2x2 stacks, ``U = (W + e adj(W)^dag)/(s1 + s2)`` with
  ``e = det W/|det W|``, and a rank-deficient 2x2 input completed to
  ``det U = 1``; larger ones from LAPACK's SVD,
* stacked products go through `mul` alone, an explicit sum over the inner
  index for every size, with no matmul; its results, and every other
  (n, d, d) series the package allocates (`stack_last`), are stack-last:
  views of contiguous (d, d, n) arrays, so each elementwise product runs
  over the contiguous stack axis,
* unitary exponentials come from `unitary_exp` alone, with no
  eigensystem: every size by scaling and squaring a Taylor polynomial of
  the traceless part, with the trace split off as an exact phase,
* cumulative time-ordered products [X0, F0 X0, F1 F0 X0, ...] come from
  `ordered_product` alone, transporters and open RK4 flows alike:
  np.cumprod on 1x1 stacks, on larger ones a pairwise scan of O(log n)
  `mul` calls as wide as its levels, whose last level of at most
  _STEPWISE_FACTORS factors, and so any stack that short, is stepped in
  the stepwise order,
* per-sample work on a stack, every step that treats each sample alone,
  takes it a block of samples at a time from `sample_blocks`, as many as
  hold _BLOCK_ENTRIES complex entries, so that its work arrays stay
  block-sized and only the series a run keeps are allocated at full length;
  a finite difference reads one `halo_window` around its samples,
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


def stack_last(shape: tuple, alloc=np.empty, dtype=complex) -> np.ndarray:
    """An array of `shape` (..., m, p) from alloc (np.empty or np.zeros)
    laid out stack-last: a view of a C-contiguous (m, p, ...) array, so
    np.moveaxis(out, (-2, -1), (0, 1)) is contiguous."""
    x = alloc(tuple(shape[-2:]) + tuple(shape[:-2]), dtype=dtype)
    return x.transpose(tuple(range(2, x.ndim)) + (0, 1))


# per-sample work takes a stack this many complex entries at a time
_BLOCK_ENTRIES = 2**14


def sample_blocks(n: int, size: int, halo: bool = False):
    """Consecutive blocks of range(n) in order, each of
    max(1, _BLOCK_ENTRIES // size) samples of `size` entries, as slices.
    With halo each block comes as its `halo_window` pair (ext, own).
    """
    step = max(1, _BLOCK_ENTRIES // size)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield halo_window(lo, hi, n) if halo else slice(lo, hi)


def halo_window(lo: int, hi: int, n: int) -> tuple[slice, slice]:
    """The window (ext, own) of samples lo .. hi - 1 of an n-sample series,
    n >= 3: ext widens the range by one sample on each side where the
    series goes on, and to three samples at least, and own is the range's
    place in ext.  series_derivative(x[ext], dt, own) is then
    series_derivative(x, dt)[lo:hi], bit for bit: inside the series each sample
    takes the central difference of the same two neighbours, and at either
    end the one-sided stencil of the same three samples.
    """
    a = max(0, min(lo - 1, n - 3))
    return slice(a, min(n, max(hi + 1, 3))), slice(lo - a, hi - a)


def mul(A: np.ndarray, B: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """A @ B over broadcast leading axes, as an explicit sum over the inner
    index of broadcast elementwise products, accumulated in place.

    The matrix axes are moved first, so each product runs over the leading
    (stack) axes, contiguous for stack-last operands, and the result is
    stack-last (`stack_last`).  On stacks of matrices up to 4x4 this is
    several times faster than numpy's stacked matmul, which pays a
    per-matrix overhead.  out, when given, receives the product and shares
    memory with neither A nor B; tmp is a work array of out's shape and
    layout, allocated when omitted.
    """
    A, B = np.asarray(A), np.asarray(B)
    k, nd = A.shape[-1], max(A.ndim, B.ndim)
    if min(A.ndim, B.ndim) < 2 or B.shape[-2] != k:
        raise ValueError(f"mul: shapes {A.shape} and {B.shape} do not chain")
    # matrix axes first, the shorter leading shape padded as broadcasting pads it
    first = (nd - 2, nd - 1) + tuple(range(nd - 2))
    a, b = (M[(None,) * (nd - M.ndim)].transpose(first) for M in (A, B))
    if out is None:
        lead = tuple(x if y == 1 else y for x, y in zip(a.shape[2:], b.shape[2:]))
        out = stack_last(lead + (a.shape[0], b.shape[1]), dtype=np.promote_types(A.dtype, B.dtype))
    o = out.transpose(first)
    np.multiply(a[:, :1], b[None, 0], out=o)
    t = np.empty_like(o) if tmp is None else tmp.transpose(first)
    for j in range(1, k):
        np.multiply(a[:, j : j + 1], b[None, j], out=t)
        o += t
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


def polar_svd(W: CMatrix) -> tuple[CMatrix, np.ndarray]:
    """Unitary left-polar factor U of W (or a stack), with W's singular values.

    Returns (U, sig) with the singular values sig in descending order, so a
    caller that also needs sig pays for one decomposition; the Hermitian
    factor is R = W U^dag.  Non-finite entries abort.

    Stacks of 1x1 and 2x2 matrices need no LAPACK call.  A 1x1 stack has
    U = W/|W| (1 where W = 0, as the SVD has it) and sig = |W|.  A 2x2
    stack, with e = det W/|det W| (1 where det W = 0) and the adjugate
    adj(W), has

        U = (W + e adj(W)^dag)/(s1 + s2),  s1 + s2 = sqrt(|W|_F^2 + 2 |det W|),
        s1 - s2 = |W - e adj(W)^dag|_F / sqrt(2),  s2 = |det W|/s1,

    because e adj(W)^dag = s1 s2 R^-1 U and R + s1 s2 R^-1 = (s1 + s2) 1.
    The difference s1 - s2 comes from a norm, not from the cancelling
    sqrt(|W|_F^2 - 2 |det W|), so near-unitary overlaps keep all digits.
    A rank-deficient input is completed by the limit with e = 1, which gives
    det U = 1 (U = 1 for W = 0); where s2 > 0 it is the SVD's P Q^dag.
    Other sizes take U = P Q^dag from LAPACK's SVD W = P S Q^dag.
    """
    W = np.asarray(W, dtype=complex)
    if not np.all(np.isfinite(W)):
        raise NumericalError("polar decomposition of non-finite input")
    if W.shape[-2:] == (1, 1):
        mod = np.abs(W)
        return np.divide(W, mod, out=np.ones_like(W), where=mod > 0.0), mod[..., 0]
    if W.shape[-2:] != (2, 2):
        P, sig, Qh = np.linalg.svd(W)
        return mul(P, Qh), sig
    det = W[..., 0, 0] * W[..., 1, 1] - W[..., 0, 1] * W[..., 1, 0]
    mod = np.abs(det)
    U = stack_last(W.shape)  # e adj(W)^dag, then U
    U[..., 0, 0] = W[..., 1, 1].conj()
    U[..., 0, 1] = -W[..., 1, 0].conj()
    U[..., 1, 0] = -W[..., 0, 1].conj()
    U[..., 1, 1] = W[..., 0, 0].conj()
    U *= np.divide(det, mod, out=np.ones_like(det), where=mod > 0.0)[..., None, None]
    total = np.sqrt(_frobenius_sq(W) + 2.0 * mod)
    gap = np.sqrt(0.5 * _frobenius_sq(W - U))
    U += W
    U /= np.where(total > 0.0, total, 1.0)[..., None, None]
    U[total == 0.0] = np.eye(2)
    s1 = 0.5 * (total + gap)
    s2 = np.divide(mod, s1, out=np.zeros_like(mod), where=s1 > 0.0)
    return U, np.stack([s1, s2], axis=-1)


def _frobenius_sq(M: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each 2x2 matrix in a stack, as four sums."""
    sq = M.real**2 + M.imag**2
    return sq[..., 0, 0] + sq[..., 0, 1] + sq[..., 1, 0] + sq[..., 1, 1]


def polar_unitary(W: CMatrix) -> tuple[CMatrix, CMatrix]:
    """Left polar decomposition W = R @ U, of one matrix or a stack.

    Returns (U, R) with U the unitary factor of `polar_svd` and
    R = sqrt(W W^dag) Hermitian PSD, formed as the Hermitian part of W U^dag,
    with the leading axes of W.  U stays unitary for rank-deficient input:
    directions with vanishing singular values are completed by polar_svd's
    convention (det U = 1 on a 2x2 matrix, the SVD's column convention on
    larger ones) rather than by the data.  Non-finite entries abort.
    """
    W = np.asarray(W, dtype=complex)
    U, _ = polar_svd(W)
    R = mul(W, _dagger(U))
    return U, 0.5 * (R + _dagger(R))


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
    (b = 0, z <= 0, which includes r = 0) gives V = 1.  Other sizes call
    LAPACK.  The vectors are stack-last (`stack_last`), LAPACK's copied
    so.  Non-finite input, and LAPACK's failure to converge, abort.
    """
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise NumericalError("eigensystem of non-finite input")
    if A.shape[-2:] != (2, 2):
        V = stack_last(A.shape)
        try:
            lam, V[...] = np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensystem: {exc}") from exc
        return lam, V
    a, d, b = A[..., 0, 0].real, A[..., 1, 1].real, A[..., 1, 0]
    m = 0.5 * (a + d)
    z = 0.5 * (a - d)
    r = np.hypot(z, np.abs(b))
    upper = z >= 0.0
    norm = np.where(r == 0.0, 1.0, np.sqrt(2.0 * r) * np.sqrt(r + np.abs(z)))
    p = np.where(upper, z + r, b.conj()) / norm
    q = np.where(upper, b, r - z) / norm
    V = stack_last(A.shape)
    V[..., 0, 0] = -q.conj()
    V[..., 1, 0] = p.conj()
    V[..., 0, 1] = p
    V[..., 1, 1] = q
    V[(b == 0.0) & (z <= 0.0)] = np.eye(2)
    return np.stack([m - r, m + r], axis=-1), V


# largest 1-norm of a scaled exponent, and the Taylor remainder bound below
# which the polynomial's degree is chosen
_EXP_THETA = 0.5
_EXP_REMAINDER = 2.0**-54
# each squaring doubles the rounding in the moduli of the eigenvalues, so a
# chunk with this many squarings or more takes one step back to unitarity
_EXP_POLISH_SQUARINGS = 4


def _taylor_degree(theta: float) -> int:
    """Least degree m >= 1 whose Taylor remainder bound for exp(B),
    theta^(m+1)/(m+1)! / (1 - theta/(m+2)) with theta >= |B|_1, is below
    _EXP_REMAINDER."""
    m, term = 1, 0.5 * theta * theta  # term = theta^(m+1)/(m+1)!
    while term > _EXP_REMAINDER * (1.0 - theta / (m + 2)):
        m += 1
        term *= theta / (m + 1)
    return m


def _taylor(X: np.ndarray, m: int, tmp: np.ndarray) -> np.ndarray:
    """The degree-m Taylor polynomial of exp on a stack-last (n, d, d) stack
    X, by Paterson and Stockmeyer (SIAM J. Comput. 2, 60 (1973)); tmp is a
    work array like X.

    With powers X^1 ... X^p, the polynomial sum_k X^k/k! is a polynomial in
    X^p whose coefficients C_j are sums of c_(jp+i) X^i (i < p), evaluated
    by Horner's rule in X^p: p - 1 products for the powers, m // p for the
    rule (one fewer when p divides m, since the top coefficient is then a
    scalar), with p chosen to minimise that count.
    """
    p = min(range(1, m + 1), key=lambda q: q - 1 + m // q - (m % q == 0))
    c = [1.0]
    for k in range(1, m + 1):
        c.append(c[-1] / k)
    d = X.shape[-1]
    P = [None, X]
    for _ in range(2, p + 1):
        P.append(mul(P[-1], X, np.empty_like(X), tmp))

    def add_block(T: np.ndarray, j: int) -> None:
        # T += C_j
        for i in range(1, min(p, m - j * p + 1)):
            np.multiply(P[i], c[j * p + i], out=tmp)
            T += tmp
        for i in range(d):
            T[:, i, i] += c[j * p]

    r = m // p
    if m % p == 0:  # C_r = c_m 1: the first Horner step needs no product
        T = np.multiply(P[p], c[m])
        r -= 1
    else:
        T = np.zeros_like(X)
    add_block(T, r)
    prod = np.empty_like(X) if r else None
    for j in range(r - 1, -1, -1):
        mul(P[p], T, prod, tmp)
        add_block(prod, j)
        T, prod = prod, T
    return T


def _taylor_exp(Ac: np.ndarray, s: float, out: np.ndarray) -> float:
    """exp(i s A) on a (n, d, d) stack by scaling and squaring a Taylor
    polynomial (see unitary_exp), written into out; returns herm_defect of
    the stack."""
    d = Ac.shape[-1]
    X, tmp = stack_last(Ac.shape), stack_last(Ac.shape)
    # X = i s 2^-j (H - mu 1) for the Hermitian part H of each matrix
    np.conjugate(Ac.swapaxes(1, 2), out=tmp)
    np.subtract(Ac, tmp, out=X)
    dev = float(np.max(np.abs(X)))
    np.add(Ac, tmp, out=X)
    X *= 0.5
    mu = sum(X[:, i, i].real for i in range(d)) / d
    for i in range(d):
        X[:, i, i] -= mu
    norm = abs(s) * np.abs(X).sum(axis=1).max(axis=1)
    # least j >= 0 with norm 2^-j <= _EXP_THETA, exactly: with
    # norm = f 2^e, f in [1/2, 1), it is e - 1 when f = 1/2, else e
    f, e = np.frexp(norm / _EXP_THETA)
    j = np.maximum(np.where(f == 0.5, e - 1, e), 0)
    X *= 1j * np.ldexp(s, -j)[:, None, None]
    T = _taylor(X, _taylor_degree(float(np.max(np.ldexp(norm, -j)))), tmp)
    for k in range(int(np.max(j, initial=0))):
        if np.all(j > k):
            T, X = mul(T, T, X, tmp), T
        else:
            sel = np.flatnonzero(j > k)
            T[sel] = mul(T[sel], T[sel])
    if np.any(j >= _EXP_POLISH_SQUARINGS):
        # one Newton step to the polar factor, T (3 - T^dag T)/2
        mul(T.conj().swapaxes(1, 2), T, X, tmp)
        Y = mul(T, X, np.empty_like(T), tmp)
        T *= 1.5
        Y *= 0.5
        T -= Y
    np.multiply(T, np.exp(1j * s * mu)[:, None, None], out=out)
    return dev


def unitary_exp(A: CMatrix, s: float = 1.0) -> CMatrix:
    """exp(i s A) for Hermitian A (or a stack), with no eigensystem; unitary
    to rounding.

    Every size scales and squares a Taylor polynomial: the trace is split
    off exactly, with mu = tr(A)/d and the traceless B = i s (A - mu 1),
    exp(i s A) = e^(i s mu) exp(B).  Each matrix is scaled by 2^-j, with
    j >= 0 the least power that brings the 1-norm of B 2^-j to _EXP_THETA
    or below; the Taylor polynomial of least degree
    whose remainder bound at the largest scaled norm is below 2^-54 is
    evaluated by Paterson and Stockmeyer and squared j times (Moler and
    Van Loan, SIAM Rev. 45, 3 (2003); Al-Mohy and Higham, SIAM J. Matrix
    Anal. Appl. 31, 970 (2009)).  Each matrix keeps its own j, so a large
    one in a stack costs the small ones no accuracy.  Each squaring doubles
    the rounding in the moduli of the eigenvalues, so a chunk squared
    _EXP_POLISH_SQUARINGS times or more takes one Newton step
    T (3 - T^dag T)/2 back to unitarity.  These are worked stack-last, with
    every product a `mul`.  The stack is taken a block at a time
    (`sample_blocks`; each block is a chunk above), and the Hermitian part
    of each matrix is exponentiated; a 1x1 matrix is all trace, so its
    exponential is the phase alone.  Non-finite input aborts before any
    work; the result is stack-last.  A matrix further than HERM_TOL from its
    Hermitian part raises ValueError.
    """
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise NumericalError("unitary exponential of non-finite input")
    d = A.shape[-1]
    flat = A.reshape(-1, d, d)
    out = stack_last(flat.shape)
    dev = 0.0  # herm_defect(A), gathered chunk by chunk
    for blk in sample_blocks(len(flat), d * d):
        dev = max(dev, _taylor_exp(flat[blk], s, out[blk]))
    if dev > HERM_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {dev:.3e})")
    return out.reshape(A.shape)


# ordered_product steps a stack of at most this many factors one `@` at a
# time.  With one BLAS thread on a 2-vCPU x86-64 host, one `@` took 1.5-3
# us and one `mul` 10-20 us on 2x2 and 4x4 stacks up to 64 wide (ten times
# that on 16x16 stacks), so a pairwise level pays for itself above a few
# dozen small factors.  128 also forms every product of up to 128 factors
# in the stepwise order, such as the powers P^0 ... P^s of the constant
# open RK4 branch (s <= 128 up to 16 385 steps); with a cut-off of 64 that
# branch drifts past 1e-12 of the stepwise loop at 8001 steps
_STEPWISE_FACTORS = 128


def ordered_product(F: np.ndarray, X0: np.ndarray | None = None) -> np.ndarray:
    """Cumulative time-ordered product [X0, F0 X0, F1 F0 X0, ...].

    Later factors multiply from the left; for n factors of shape (d, d)
    and a start X0 of shape (d, k), the identity by default, the result
    has shape (n + 1, d, k), X0 first, and is stack-last: a view of a
    contiguous (d, k, n + 1) array.

    The result has the dtype of the product of F and X0: a real stack
    from a real start stays real, and every level and step of the scan
    runs in that dtype.

    A 1x1 stack is a running product of scalars, np.cumprod.  Larger
    stacks take a pairwise scan (Blelloch, CMU-CS-90-190, 1990): one `mul`
    pairs the factors, P_j = F_(2j+1) F_(2j), the scan of the n // 2
    pairs gives the even entries x_(2j), and a second `mul` the odd ones,
    x_(2j+1) = F_(2j) x_(2j).  Pairing repeats while a level holds more
    than _STEPWISE_FACTORS factors; the last level is stepped one `@` at a
    time.  So n factors take about 2 log2(n / _STEPWISE_FACTORS) `mul`
    calls, each as wide as its level, and a stack of at most
    _STEPWISE_FACTORS factors is formed in the stepwise order.
    """
    F = np.asarray(F)
    n, d = F.shape[0], F.shape[-1]
    X0 = np.eye(d, dtype=F.dtype) if X0 is None else np.asarray(X0)
    k, dtype = X0.shape[-1], np.promote_types(F.dtype, X0.dtype)
    out = stack_last((n + 1,) + X0.shape, dtype=dtype)
    out[0] = X0
    if d == 1:
        out[1:] = F
        return np.cumprod(out, axis=0, out=out)
    # levels[l][j] is the product of factors j 2^l ... (j + 1) 2^l - 1, so
    # the scan of level l is every 2^l-th entry of the result
    levels = [F]
    while len(levels[-1]) > _STEPWISE_FACTORS:
        G = levels[-1]
        m = len(G) // 2
        levels.append(mul(G[1 : 2 * m : 2], G[0 : 2 * m : 2]))
    top = np.empty((len(levels[-1]) + 1, d, k), dtype=dtype)
    top[0] = X0
    xs = list(top)
    for f, a, b in zip(np.ascontiguousarray(levels[-1]), xs, xs[1:]):
        np.dot(f, a, out=b)
    out[:: 2 ** (len(levels) - 1)] = top
    for l in range(len(levels) - 2, -1, -1):
        G, x = levels[l], out[:: 2**l]
        odd = len(G) - len(G) // 2  # entries x_(2j+1) of this level
        mul(G[::2], x[: 2 * odd : 2], x[1::2])
    return out


def series_derivative(samples: np.ndarray, dt: float, own: slice = slice(None)) -> np.ndarray:
    """Second-order time derivative of a sampled series of arrays, at the
    samples `own` (a slice of step 1; all of them by default).

    Central differences inside, one-sided three-point stencils at the ends,
    so every point carries an O(dt^2) error and none a first-order one.
    An end's stencil is formed only when `own` reaches that end, as the
    `halo_window` of a range inside the series does not.
    """
    samples = np.asarray(samples)
    n = samples.shape[0]
    if n < 3:
        raise ValueError("need at least 3 samples for a second-order derivative")
    lo, hi, _ = own.indices(n)
    out = np.empty_like(samples[lo:hi])
    a, b = max(lo, 1), min(hi, n - 1)  # the central differences
    if a < b:
        np.subtract(samples[a + 1 : b + 1], samples[a - 1 : b - 1], out=out[a - lo : b - lo])
        out[a - lo : b - lo] /= 2.0 * dt
    if lo == 0 < hi:
        out[0] = (-3.0 * samples[0] + 4.0 * samples[1] - samples[2]) / (2.0 * dt)
    if hi == n > lo:
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
