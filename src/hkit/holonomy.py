"""Geometric phases from parallel transport along a basis trajectory.

The pipeline splits the frame overlap W(t, 0) = V(0)^dag V(t) into a
dynamical-distortion factor and a transport factor, and combines the
unitary part with the time-ordered transporter

    Vpar(t) = Texp( i int_0^t A )        (latest factor leftmost)

into the phase-carrying matrix O(t, 0) = U(t, 0) @ Vpar(t).  Which matrix
elements participate depends on the scenario:

* ``nt_nd``  - no transitions, nondegenerate: diagonal entries only,
* ``t_d``    - transitions within degenerate blocks: block-diagonal part,
* ``t_nd``   - transitions, nondegenerate: the full matrix,
* ``general``- no restriction (complete-frame transport; O is trivial
               for a complete frame and useful mainly for diagnostics).

Restrictions are applied to the connection before exponentiation and to
the overlap before its polar split, so every case is the holonomy of its
own reduced transport problem.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import LindbladModel, TimeGrid
from .frames import ConnectionSeries, FrameTrajectory, connection, overlap
from .matlib import (
    CMatrix,
    NumericalError,
    UNITARY_TOL,
    ordered_product,
    polar_unitary,
    principal_phase,
    series_derivative,
    unitary_defect,
    unitary_eigenphases,
    unitary_exp,
)

CASE_TAGS = ("general", "t_d", "t_nd", "nt_nd")
# cases whose transport keeps every element of the connection
FULL_CONNECTION_CASES = ("general", "t_nd")
OVERLAP_MODULUS_MIN = 1e-12


@dataclass
class HolonomyResult:
    """Phase data of one transport problem at a fixed final time.

    ``connection`` holds the case-restricted connection samples,
    ``factors`` its interval factors exp(i dt (A_k + A_{k+1})/2) and
    ``transport`` their ordered product series over the whole grid,
    identity first; ``Vpar`` is its entry k.  The non-Abelian witness reads
    these, and for the full-connection cases the series is the transporter
    of the unrestricted connection.
    """

    O: CMatrix
    U: CMatrix
    Vpar: CMatrix
    R: CMatrix
    trace_O: complex
    eigenphases: np.ndarray
    case_tag: str
    connection: np.ndarray  # (n_steps, dim, dim)
    factors: np.ndarray  # (n_steps - 1, dim, dim)
    transport: np.ndarray  # (n_steps, dim, dim)
    flags: list[str] = field(default_factory=list)


def case_restrict(M: CMatrix, blocks: list[list[int]], case_tag: str) -> CMatrix:
    """Zero the matrix elements a transport case does not couple."""
    if case_tag not in CASE_TAGS:
        raise ValueError(f"unknown case tag {case_tag!r}")
    M = np.asarray(M)
    if case_tag in FULL_CONNECTION_CASES:
        return M.copy()
    out = np.zeros_like(M)
    if case_tag == "nt_nd":
        idx = np.arange(M.shape[-1])
        out[..., idx, idx] = M[..., idx, idx]
        return out
    for b in blocks:  # t_d
        idx = np.ix_(b, b)
        if M.ndim == 3:
            out[(slice(None),) + idx] = M[(slice(None),) + idx]
        else:
            out[idx] = M[idx]
    return out


def _check_case(blocks: list[list[int]], case_tag: str) -> None:
    sizes = [len(b) for b in blocks]
    if case_tag == "t_d" and max(sizes) < 2:
        raise ValueError("case 't_d' needs at least one degenerate block")
    if case_tag == "nt_nd" and max(sizes) > 1:
        raise ValueError("case 'nt_nd' requires a fully nondegenerate spectrum")


def interval_factors(A: np.ndarray, dt: float) -> np.ndarray:
    """Midpoint-rule transport factors exp(i dt (A_k + A_{k+1})/2), one per interval."""
    return unitary_exp(0.5 * (A[:-1] + A[1:]), dt)


def transporter(A_series: ConnectionSeries) -> np.ndarray:
    """Cumulative time-ordered exponential of the connection.

    The ordered product of the interval factors, later factors on the left;
    the result is unitary to machine precision by construction.  Returns
    the full series, identity first.
    """
    return ordered_product(interval_factors(A_series.samples, A_series.grid.dt))


def diagonalizing_frame(conn: ConnectionSeries, R0: CMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Unitary frame R(t) that rotates the off-diagonal connection away.

    The rotated connection R A R^dag + i R dR^dag/dt is diagonal when

        dR/dt = -i X R,   X = offdiag(R A R^dag),

    and then equals diag(R A R^dag), since i R dR^dag/dt = -X.  ``conn``
    must be sampled on a refined grid (2n - 1 points, sample 2k + 1 at
    mid-step): one RK4 step from t_k to t_{k+1} takes its stage values at
    samples 2k, 2k + 1, 2k + 1 and 2k + 2.  Returns R on the n main-grid
    points, R0 first, and omega (n, dim), the RK4-accumulated integral of
    the rotated connection's diagonal, one column per level, zero at the
    start.  Because X depends on R the flow is not linear, so it has its
    own step loop.
    """
    A = conn.samples
    m, dim = A.shape[0], A.shape[-1]
    if m % 2 == 0:
        raise ValueError(f"connection needs an odd sample count (refined grid), got {m}")
    R0 = np.asarray(R0, dtype=complex)
    if R0.shape != (dim, dim):
        raise ValueError(f"R0 must be {dim}x{dim}, got shape {R0.shape}")
    dev = unitary_defect(R0)
    if not dev <= UNITARY_TOL:
        raise ValueError(f"R0 is not unitary (deviation {dev:.3e})")
    h = 2.0 * conn.grid.dt
    # -i offdiag(M) = M * off
    off = -1j * (1.0 - np.eye(dim))

    def stage(R, Ak):
        M = R @ Ak @ R.conj().T
        return (M * off) @ R, M.diagonal().real

    n = (m + 1) // 2
    R = np.empty((n, dim, dim), dtype=complex)
    omega = np.zeros((n, dim))
    R[0] = R0
    for k in range(n - 1):
        Rk, A0, Ah, A1 = R[k], A[2 * k], A[2 * k + 1], A[2 * k + 2]
        k1, d1 = stage(Rk, A0)
        k2, d2 = stage(Rk + 0.5 * h * k1, Ah)
        k3, d3 = stage(Rk + 0.5 * h * k2, Ah)
        k4, d4 = stage(Rk + h * k3, A1)
        R[k + 1] = Rk + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        omega[k + 1] = omega[k] + (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)
    dev = unitary_defect(R)
    if not dev <= UNITARY_TOL:
        raise NumericalError(f"diagonalizing frame lost unitarity (deviation {dev:.3e})")
    return R, omega


def _restricted_polar(
    W: CMatrix, blocks: list[list[int]], case_tag: str
) -> tuple[CMatrix, CMatrix, list[str]]:
    """Polar split W ~ R U adapted to the case structure.

    nt_nd treats each diagonal entry on its own, t_d runs an independent
    polar decomposition per degenerate block; this keeps the split from
    coupling levels the case forbids (a full SVD could mix blocks with
    close singular values).
    """
    flags: list[str] = []
    dim = W.shape[0]
    if case_tag == "nt_nd":
        w = np.diag(W)
        mod = np.abs(w)
        if np.min(mod) < OVERLAP_MODULUS_MIN:
            raise NumericalError(
                f"overlap diagonal entry modulus {np.min(mod):.3e}: phase undefined"
            )
        return np.diag(w / mod), np.diag(mod).astype(complex), flags
    if case_tag == "t_d":
        U = np.zeros_like(W)
        R = np.zeros_like(W)
        for b in blocks:
            idx = np.ix_(b, b)
            Ub, Rb = polar_unitary(W[idx])
            U[idx] = Ub
            R[idx] = Rb
        return U, R, flags
    U, R = polar_unitary(W)
    return U, R, flags


def geometric_phase(
    frames: FrameTrajectory,
    k: int,
    case_tag: str = "general",
    conn: ConnectionSeries | None = None,
) -> HolonomyResult:
    """Holonomy data O(t_k, 0) = U(t_k, 0) @ Vpar(t_k) for one case.

    The connection (``conn``, or computed from the frames when omitted) is
    case-restricted before building the transporter and the overlap is
    case-restricted before its polar split, so U and Vpar belong to the
    same reduced problem and O is unitary.
    """
    _check_case(frames.blocks, case_tag)
    n = frames.n_steps
    if not -n <= k < n:
        raise ValueError(f"grid index {k} out of range for {n} samples")
    k = k % n

    if conn is None:
        conn = connection(frames)
    A_r = case_restrict(conn.samples, frames.blocks, case_tag)
    factors = interval_factors(A_r, conn.grid.dt)
    transport = ordered_product(factors)
    Vpar = transport[k]
    W = case_restrict(overlap(frames, k), frames.blocks, case_tag)
    U, R, polar_flags = _restricted_polar(W, frames.blocks, case_tag)
    O = U @ Vpar
    return HolonomyResult(
        O=O,
        U=U,
        Vpar=Vpar,
        R=R,
        trace_O=complex(np.trace(O)),
        eigenphases=unitary_eigenphases(O),
        case_tag=case_tag,
        connection=A_r,
        factors=factors,
        transport=transport,
        flags=list(conn.flags) + polar_flags,
    )


def noncyclic_abelian_gp(
    frames: FrameTrajectory, level: int, k: int, conn: ConnectionSeries | None = None
) -> float:
    """Noncyclic geometric phase of one nondegenerate level up to t_k.

    arg <level;0|level;t_k> plus the integrated diagonal connection
    (``conn``, or computed from the frames when omitted; trapezoid rule),
    wrapped to (-pi, pi].  For a cyclic trajectory the overlap phase drops
    out and the pure holonomy integral remains.
    """
    n = frames.n_steps
    if not 0 <= level < frames.dim:
        raise ValueError(f"level {level} out of range")
    if not -n <= k < n:
        raise ValueError(f"grid index {k} out of range for {n} samples")
    k = k % n
    w = overlap(frames, k)[level, level]
    if abs(w) < OVERLAP_MODULUS_MIN:
        raise NumericalError(f"overlap modulus {abs(w):.3e}: noncyclic phase undefined")
    if conn is None:
        conn = connection(frames)
    diag = conn.samples[: k + 1, level, level].real
    integral = float(np.trapezoid(diag, dx=frames.grid.dt)) if k > 0 else 0.0
    total = float(np.angle(w)) + integral
    return float(principal_phase(total))


def parallel_residual(frames: FrameTrajectory, Vpar_series: np.ndarray) -> float:
    """Largest connection entry of the transported frame T = V @ Vpar.

    Parallel transport means i T^dag dT/dt vanishes; the returned value is
    the max-norm of that matrix over the grid (central differences inside,
    one-sided second-order stencils at the ends).
    """
    if Vpar_series.shape != frames.vectors.shape:
        raise ValueError("transporter series does not match the frames")
    T = np.einsum("kij,kjl->kil", frames.vectors, Vpar_series)
    dT = series_derivative(T, frames.grid.dt)
    res = np.einsum("kji,kjl->kil", T.conj(), dT)
    return float(np.max(np.abs(res)))


def nonabelian_witness(holo: HolonomyResult, n_probe: int = 64) -> dict[str, float]:
    """Two scalar diagnostics of path-ordering sensitivity.

    commutator_max: largest ||[A(t_i), A(t_j)]||_max over a probe subsample
    of the holonomy's case-restricted connection.  reversal_gap: max-norm
    difference between the ordered product of its interval factors and the
    product of the same factors in reversed order, over the whole grid.
    Both vanish for Abelian (commuting-connection) transport.  The forward
    product is the end of the holonomy's stored transport series.
    """
    A, F = holo.connection, holo.factors
    n = A.shape[0]
    P = A[np.linspace(0, n - 1, min(n, n_probe)).astype(int)]
    AB = np.einsum("aij,bjl->abil", P, P)
    comm = float(np.max(np.abs(AB - AB.swapaxes(0, 1))))

    forward = holo.transport[-1]
    # the same factors multiplied earliest-leftmost: the opposite ordering
    backward = ordered_product(F[::-1])[-1]
    gap = float(np.max(np.abs(forward - backward)))
    return {"commutator_max": comm, "reversal_gap": gap}


def dissipative_free_block_solution(
    model: LindbladModel,
    frames: FrameTrajectory,
    left_block: int,
    right_block: int,
    c0_block: CMatrix,
) -> np.ndarray:
    """Closed-form coefficient block evolution when no dissipator acts.

    For vanishing coupling rates and no transitions between blocks, the
    coefficient block between degeneracy blocks mu (left) and mu' (right)
    evolves as

        c(t) = E_mu(t) c(0) E_mu'(t)^dag,
        E_mu(t) = Texp( i int_0^t (H + A)_mumu ),

    with H = -V^dag H0 V.  Rejects models whose rates do not vanish on the
    grid.  Returns the sampled block series (n_steps, |mu|, |mu'|).
    """
    blocks = frames.blocks
    if not (0 <= left_block < len(blocks) and 0 <= right_block < len(blocks)):
        raise ValueError("block index out of range")
    bl, br = blocks[left_block], blocks[right_block]
    c0_block = np.asarray(c0_block, dtype=complex)
    if c0_block.shape != (len(bl), len(br)):
        raise ValueError(f"initial block must be {len(bl)}x{len(br)}")

    V = frames.vectors
    Vh = np.conj(np.swapaxes(V, -1, -2))
    H0, _, rates = model.operators(frames.grid.times)
    if np.any(rates):
        raise ValueError("dissipative-free solution requires vanishing coupling rates")
    gen = connection(frames).samples - Vh @ H0 @ V
    gen = 0.5 * (gen + np.conj(np.swapaxes(gen, -1, -2)))

    def block_transporter(idx):
        block = gen[(slice(None),) + np.ix_(idx, idx)]
        return transporter(ConnectionSeries(grid=frames.grid, samples=block))

    E_left = block_transporter(bl)
    E_right = block_transporter(br)
    out = np.einsum("kij,jl,kml->kim", E_left, c0_block, E_right.conj())
    return out
