"""Geometric phases from parallel transport along a basis trajectory.

The pipeline splits the frame overlap W(t, 0) = V(0)^dag V(t) into a
dynamical-distortion factor and a transport factor, and combines the
unitary part with the discrete parallel transport

    Vpar(t_k) = Q_{k-1} ... Q_1 Q_0      (latest factor leftmost),

Q_j the unitary polar factor of the neighbour overlap V_{j+1}^dag V_j
(`frames.neighbour_transport`), into the phase-carrying matrix
O(t, 0) = U(t, 0) @ Vpar(t).  Vpar is the time-ordered exponential
Texp(i int A) of the connection A = i V^dag dV/dt up to discretization
error, but is formed from the frames alone, so O is gauge-invariant by
construction.  A scenario's case is the partition of the levels into the
groups whose basis states may mix (``case_groups``):

* ``nt_nd``  - no transitions, nondegenerate: each level alone (the
               Abelian phase),
* ``t_d``    - transitions within degenerate blocks: each degeneracy block
               (Wilczek-Zee),
* ``t_nd``   - transitions, nondegenerate: all levels as one group.

The neighbour overlaps and the end overlap keep only entries within a
group, and each is polar-split group by group, so every case is the
holonomy of its own reduced transport problem.  Each group's factors and
transport stay that group's own (|g|, |g|) series; only the d x d end
matrices U, R, Vpar and O are assembled from the groups' blocks.  The
connection stays a diagnostic (`nonabelian_witness`,
`noncyclic_abelian_gp`) and the generator of `transporter`, off the phase
path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LindbladModel
from .frames import ConnectionSeries, FrameTrajectory, connection, neighbour_transport, overlap
from .matlib import (
    CMatrix,
    NumericalError,
    UNITARY_TOL,
    block_mask,
    mul,
    ordered_product,
    polar_svd,
    principal_phase,
    sample_blocks,
    series_derivative,
    unitary_defect,
    unitary_eigenphases,
    unitary_exp,
)

CASE_TAGS = ("t_d", "t_nd", "nt_nd")
OVERLAP_MODULUS_MIN = 1e-12
# connection samples that nonabelian_witness compares pairwise
_WITNESS_PROBES = 64


@dataclass
class HolonomyResult:
    """Phase data of one transport problem at a fixed final time.

    ``factors`` and ``transport`` are aligned with the case's level
    ``groups``: entry g of ``factors`` holds group g's discrete transport
    factors Q_k (`frames.neighbour_transport`), shape
    (n_steps - 1, |g|, |g|), and entry g of ``transport`` their ordered
    product series over the whole grid, identity first, shape
    (n_steps, |g|, |g|).  ``Vpar`` is block diagonal, with entry k of each
    group's series as its block.  The witness's reversal gap reads the
    factors and the parallel-transport residual the series.
    """

    O: CMatrix
    U: CMatrix
    Vpar: CMatrix
    R: CMatrix
    trace_O: complex
    eigenphases: np.ndarray
    case_tag: str
    factors: list[np.ndarray]  # per group: (n_steps - 1, |g|, |g|)
    transport: list[np.ndarray]  # per group: (n_steps, |g|, |g|)
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


def check_case(blocks: list[list[int]], case_tag: str) -> None:
    """ValueError if the spectrum's degeneracy blocks do not fit the case."""
    sizes = [len(b) for b in blocks]
    if case_tag == "t_d" and max(sizes) < 2:
        raise ValueError("case 't_d' requires at least one degenerate block")
    if case_tag == "nt_nd" and max(sizes) > 1:
        raise ValueError("case 'nt_nd' requires a fully nondegenerate spectrum")


def transporter(A_series: ConnectionSeries) -> np.ndarray:
    """Cumulative time-ordered exponential of a sampled Hermitian generator.

    The ordered product of the midpoint-rule interval factors
    exp(i dt (A_k + A_{k+1})/2), later factors on the left; the result is
    unitary to rounding by construction, and a non-finite sample aborts
    with NumericalError.  Returns the full series, identity first.
    """
    A = A_series.samples
    return ordered_product(unitary_exp(0.5 * (A[:-1] + A[1:]), A_series.grid.dt))


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


def _require_phase(smallest: float) -> None:
    """A group overlap with a singular value below OVERLAP_MODULUS_MIN has
    no defined polar factor, hence no phase; for a single level that is the
    overlap's modulus."""
    if smallest < OVERLAP_MODULUS_MIN:
        raise NumericalError(f"overlap singular value {smallest:.3e}: phase undefined")


def geometric_phase(frames: FrameTrajectory, k: int, case_tag: str) -> HolonomyResult:
    """Holonomy data O(t_k, 0) = U(t_k, 0) @ Vpar(t_k) for one case.

    One pass per level group g, a contiguous run of levels as
    `FrameTrajectory` requires of its blocks: the group's transport is the
    ordered product of its `frames.neighbour_transport` factors (a running
    product of Pancharatnam phases for a single level), kept as its own
    series, and its block of the end overlap W(t_k, 0) is polar-split on
    its own, so the split cannot couple levels the case forbids and U and
    Vpar belong to the same reduced problem: O is unitary.  U, the
    Hermitian factor R and Vpar are block diagonal over the groups.  No
    connection, derivative or exponential is formed.  A neighbour or end
    overlap of a group with a singular value below OVERLAP_MODULUS_MIN
    aborts with NumericalError, every neighbour check before the end one:
    its polar factor, and so the phase, is undefined.  With one group of
    all levels (t_nd) on a complete frame, each factor is the whole
    overlap, the product telescopes to W(t_k, 0)^dag and O = 1 to
    rounding.
    """
    check_case(frames.blocks, case_tag)
    W = overlap(frames, k)  # checks k's range
    groups = case_groups(frames.blocks, case_tag)
    U, R, Vpar = np.zeros_like(W), np.zeros_like(W), np.zeros_like(W)
    factors, transport, smallest = [], [], np.inf
    for g, (Q, sig) in zip(groups, neighbour_transport(frames.vectors, groups)):
        _require_phase(np.min(sig[:, -1]))
        factors.append(Q)
        transport.append(ordered_product(Q))
        run = slice(g[0], g[-1] + 1)
        U[run, run], sig = polar_svd(W[run, run])
        R[run, run] = W[run, run] @ U[run, run].conj().T
        Vpar[run, run] = transport[-1][k]
        smallest = min(smallest, sig[-1])
    _require_phase(smallest)
    R = 0.5 * (R + R.conj().T)
    O = U @ Vpar
    return HolonomyResult(
        O=O,
        U=U,
        Vpar=Vpar,
        R=R,
        trace_O=complex(np.trace(O)),
        eigenphases=unitary_eigenphases(O),
        case_tag=case_tag,
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
    wrapped to (-pi, pi]; ``conn`` must be sampled on the frames' grid.
    For a cyclic trajectory the overlap phase drops out and the pure
    holonomy integral remains.
    """
    if not 0 <= level < frames.dim:
        raise ValueError(f"level {level} out of range")
    if conn is not None and conn.grid != frames.grid:
        raise ValueError("connection and frames must be sampled on the same grid")
    w = overlap(frames, k)[level, level]  # checks k's range
    k = k % frames.n_steps
    if abs(w) < OVERLAP_MODULUS_MIN:
        raise NumericalError(f"overlap modulus {abs(w):.3e}: noncyclic phase undefined")
    if conn is None:
        conn = connection(frames)
    diag = conn.samples[: k + 1, level, level].real
    integral = float(np.trapezoid(diag, dx=frames.grid.dt)) if k > 0 else 0.0
    total = float(np.angle(w)) + integral
    return float(principal_phase(total))


def parallel_residual(frames: FrameTrajectory, holo: HolonomyResult) -> float:
    """Largest in-group connection entry of the transported frame T = V @ T_c,
    with T_c block diagonal over the case's level groups, its blocks the
    groups' own transport series ``holo.transport``.

    Parallel transport within each level group means the in-group entries
    of i T^dag dT/dt vanish; the returned value is their max-norm over the
    grid (central differences inside, one-sided second-order stencils at
    the ends).  Entries between groups are the transitions the case leaves
    out, and are not counted: T is formed one group's columns at a time,
    the frames' group columns times the group's series, a block of samples
    at a time (`sample_blocks`, with halos).
    """
    V, series = frames.vectors, list(zip(holo.groups, holo.transport, strict=True))
    if any(Tg.shape != (V.shape[0], len(g), len(g)) for g, Tg in series):
        raise ValueError("transport series does not match the frames")
    worst = []
    for ext, own in sample_blocks(frames.n_steps, frames.dim**2, halo=True):
        for g, Tg in series:
            T = mul(V[ext][:, :, g[0] : g[-1] + 1], Tg[ext])  # the group's columns of T
            dT = series_derivative(T, frames.grid.dt, own)
            worst.append(np.max(np.abs(mul(T[own].conj().swapaxes(1, 2), dT))))
    return float(np.max(worst))


def _product(F: np.ndarray) -> CMatrix:
    """F[0] @ F[1] @ ... @ F[-1] of a non-empty stack, by pairwise reduction.

    Each pass multiplies neighbouring pairs in one stacked `mul` (an odd
    last factor joins the last pair), halving the stack until one matrix
    is left.
    """
    while F.shape[0] > 1:
        pairs = mul(F[0:-1:2], F[1::2])
        if F.shape[0] % 2:
            pairs[-1] = pairs[-1] @ F[-1]
        F = pairs
    return F[0]


def nonabelian_witness(holo: HolonomyResult, conn: ConnectionSeries) -> dict[str, float]:
    """Two scalar diagnostics of path-ordering sensitivity.

    commutator_max: largest ||[A(t_i), A(t_j)]||_max over a probe subsample
    of the connection ``conn`` (_WITNESS_PROBES evenly spaced samples, or
    every sample of a shorter series), restricted to the holonomy's level
    groups.
    reversal_gap: max-norm difference between the ordered product of the
    holonomy's transport factors and the product of the same factors in
    reversed order, over the whole grid.  Both vanish for Abelian
    (commuting) transport, and both depend on the frame gauge.  Every probe
    product P_a P_b comes from one (p d x d)(d x p d) matrix product of the
    stacked probes, a plain BLAS product with no stack to batch over.  The
    gap is the largest over the level groups: each group's forward product
    is the end of its stored transport series, and its reversed one a
    pairwise reduction of its factors.
    """
    A = conn.samples
    n, d = A.shape[0], A.shape[-1]
    P = A[np.linspace(0, n - 1, min(n, _WITNESS_PROBES)).astype(int)]
    P = np.where(block_mask(holo.groups, d), P, 0)
    p = P.shape[0]
    # AB[a, i, b, l] = (P_a P_b)_il
    AB = (P.reshape(p * d, d) @ P.transpose(1, 0, 2).reshape(d, p * d)).reshape(p, d, p, d)
    comm = float(np.max(np.abs(AB - AB.transpose(2, 1, 0, 3))))

    # the end of each group's transport against the same factors multiplied
    # earliest-leftmost: the opposite ordering
    pairs = zip(holo.transport, holo.factors, strict=True)
    gap = max(float(np.max(np.abs(T[-1] - _product(F)))) for T, F in pairs)
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
    gen = connection(frames).samples - mul(mul(Vh, H0), V)
    gen = 0.5 * (gen + np.conj(np.swapaxes(gen, -1, -2)))

    E_left, E_right = (
        transporter(ConnectionSeries(frames.grid, gen[:, b[0] : b[-1] + 1, b[0] : b[-1] + 1]))
        for b in (bl, br)
    )
    return mul(mul(E_left, c0_block), E_right.conj().swapaxes(1, 2))
