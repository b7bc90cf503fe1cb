"""Geometric phases from parallel transport along a basis trajectory.

The pipeline splits the frame overlap W(t, 0) = V(0)^dag V(t) into a
dynamical-distortion factor and a transport factor, and combines the
unitary part with the time-ordered transporter

    Vpar(t) = Texp( i int_0^t A )        (latest factor leftmost)

into the phase-carrying matrix O(t, 0) = U(t, 0) @ Vpar(t).  A scenario's
case is the partition of the levels into the groups whose basis states
may mix (``case_groups``):

* ``nt_nd``  - no transitions, nondegenerate: each level alone (the
               Abelian phase),
* ``t_d``    - transitions within degenerate blocks: each degeneracy block
               (Wilczek-Zee),
* ``t_nd``   - transitions, nondegenerate: all levels as one group,
* ``general``- all levels as one group (complete-frame transport; O is
               trivial for a complete frame and useful mainly for
               diagnostics).

The connection and the overlap keep only entries within a group, and the
overlap is polar-split group by group, so every case is the holonomy of
its own reduced transport problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LindbladModel
from .frames import ConnectionSeries, FrameTrajectory, connection, overlap
from .matlib import (
    CMatrix,
    NumericalError,
    UNITARY_TOL,
    block_mask,
    mul,
    ordered_product,
    polar_svd,
    principal_phase,
    series_derivative,
    unitary_defect,
    unitary_eigenphases,
    unitary_exp,
)

CASE_TAGS = ("general", "t_d", "t_nd", "nt_nd")
OVERLAP_MODULUS_MIN = 1e-12


@dataclass
class HolonomyResult:
    """Phase data of one transport problem at a fixed final time.

    ``connection`` holds the case-restricted connection samples,
    ``factors`` its interval factors exp(i dt (A_k + A_{k+1})/2) and
    ``transport`` their ordered product series over the whole grid,
    identity first; ``Vpar`` is its entry k.  Both are block diagonal over
    the case's level ``groups``, with exact zeros between groups.  The
    non-Abelian witness reads these, and for a case with one group of all
    levels the series is the transporter of the unrestricted connection.
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
    groups: list[list[int]]


def case_groups(blocks: list[list[int]], case_tag: str) -> list[list[int]]:
    """The level groups whose basis states a transport case lets mix."""
    if case_tag not in CASE_TAGS:
        raise ValueError(f"unknown case tag {case_tag!r}")
    if case_tag == "nt_nd":
        return [[i] for b in blocks for i in b]
    if case_tag == "t_d":
        return [list(b) for b in blocks]
    return [sorted(i for b in blocks for i in b)]


def _group_index(g: list[int]) -> tuple:
    """Index of one level group's (|g|, |g|) slice of every matrix in a stack."""
    return (slice(None),) + np.ix_(g, g)


def case_restrict(M: CMatrix, blocks: list[list[int]], case_tag: str) -> CMatrix:
    """Zero the matrix elements that couple different groups of a case."""
    M = np.asarray(M)
    return np.where(block_mask(case_groups(blocks, case_tag), M.shape[-1]), M, 0)


def check_case(blocks: list[list[int]], case_tag: str) -> None:
    """ValueError if the spectrum's degeneracy blocks do not fit the case."""
    sizes = [len(b) for b in blocks]
    if case_tag == "t_d" and max(sizes) < 2:
        raise ValueError("case 't_d' requires at least one degenerate block")
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


def diagonalizing_frame(
    frames: FrameTrajectory, conn: ConnectionSeries, R0: CMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Unitary frame R(t) that rotates the off-diagonal connection away.

    The rotated connection R A R^dag + i R dR^dag/dt is diagonal, and equals
    diag(R A R^dag), when dR/dt = -i offdiag(R A R^dag) R.  Then R Vpar, with
    the transporter dVpar/dt = i A Vpar, has a diagonal generator, and a
    complete frame has Vpar(t) = V(t)^dag V(0); so in closed form

        R(t) = e^{i omega(t)} R0 W(t, 0),   W(t, 0) = V(0)^dag V(t),
        d(omega)/dt = diag(R0 W A W^dag R0^dag),

    unitary by construction.  ``frames`` and ``conn`` share a refined grid
    (2n - 1 points, sample 2k + 1 at mid-step), and ``conn`` must be the
    exact connection i V^dag dV/dt of ``frames``: the identity holds for
    that pair only.  Returns R and omega (n, dim) on the n main-grid
    points; omega, one column per level and zero at the start, is
    Simpson's rule over each step's three samples (RK4's weights).  The
    stack R0 W is one stacked product (R0 V(0)^dag) V(t), and the diagonal
    entries (R A R^dag)_ii are the row sums of (R A) * conj(R); both
    products are `matlib.mul`, explicit sums on qubit frames.
    """
    A = conn.samples
    m, dim = A.shape[0], A.shape[-1]
    if m % 2 == 0:
        raise ValueError(f"connection needs an odd sample count (refined grid), got {m}")
    if conn.grid != frames.grid:
        raise ValueError("connection and frames must be sampled on the same grid")
    R0 = np.asarray(R0, dtype=complex)
    if R0.shape != (dim, dim):
        raise ValueError(f"R0 must be {dim}x{dim}, got shape {R0.shape}")
    dev = unitary_defect(R0)
    if not dev <= UNITARY_TOL:
        raise ValueError(f"R0 is not unitary (deviation {dev:.3e})")
    V = frames.vectors
    Rt = mul(R0 @ V[0].conj().T, V)
    RA = mul(Rt, A)
    RA *= Rt.conj()
    f = RA.sum(axis=-1).real
    steps = (conn.grid.dt / 3.0) * (f[:-2:2] + 4.0 * f[1::2] + f[2::2])
    omega = np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])
    return np.exp(1j * omega)[:, :, None] * Rt[::2], omega


def _restricted_polar(W: CMatrix, groups: list[list[int]]) -> tuple[CMatrix, CMatrix]:
    """Polar split W ~ R U, one independent decomposition per level group.

    This keeps the split from coupling levels the case forbids (a full SVD
    could mix groups with close singular values).  A group whose overlap has
    a singular value below OVERLAP_MODULUS_MIN has no defined phase and
    aborts; for a single level that is the overlap's modulus.
    """
    U = np.zeros_like(W)
    R = np.zeros_like(W)
    smallest = np.inf
    for g in groups:
        idx = np.ix_(g, g)
        U[idx], P, sig = polar_svd(W[idx])
        R[idx] = (P * sig) @ P.conj().T
        smallest = min(smallest, sig[-1])
    if smallest < OVERLAP_MODULUS_MIN:
        raise NumericalError(f"overlap singular value {smallest:.3e}: phase undefined")
    return U, 0.5 * (R + R.conj().T)


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
    same reduced problem and O is unitary.  The interval factors and their
    ordered product are formed one level group at a time, on the group's
    own slice of the connection (a 1x1 phase for a single level), and
    assembled block-diagonally.
    """
    check_case(frames.blocks, case_tag)
    n = frames.n_steps
    if not -n <= k < n:
        raise ValueError(f"grid index {k} out of range for {n} samples")
    k = k % n

    if conn is None:
        conn = connection(frames)
    groups = case_groups(frames.blocks, case_tag)
    A_r = case_restrict(conn.samples, frames.blocks, case_tag)
    factors = np.zeros((n - 1,) + A_r.shape[1:], dtype=complex)
    transport = np.zeros(A_r.shape, dtype=complex)
    for g in groups:
        idx = _group_index(g)
        F = interval_factors(A_r[idx], conn.grid.dt)
        factors[idx] = F
        transport[idx] = ordered_product(F)
    Vpar = transport[k]
    W = case_restrict(overlap(frames, k), frames.blocks, case_tag)
    U, R = _restricted_polar(W, groups)
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
        groups=groups,
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
    product is the end of the holonomy's stored transport series; the
    reversed one is formed group by group, as the forward one was.
    """
    A, F = holo.connection, holo.factors
    n = A.shape[0]
    P = A[np.linspace(0, n - 1, min(n, n_probe)).astype(int)]
    AB = np.einsum("aij,bjl->abil", P, P)
    comm = float(np.max(np.abs(AB - AB.swapaxes(0, 1))))

    forward = holo.transport[-1]
    # the same factors multiplied earliest-leftmost: the opposite ordering
    backward = np.zeros_like(forward)
    for g in holo.groups:
        backward[np.ix_(g, g)] = ordered_product(F[_group_index(g)][::-1])[-1]
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

    E_left, E_right = (
        ordered_product(interval_factors(gen[_group_index(b)], frames.grid.dt))
        for b in (bl, br)
    )
    return np.einsum("kij,jl,kml->kim", E_left, c0_block, E_right.conj())
