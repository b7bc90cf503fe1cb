"""Time-dependent eigenbases of an operator trajectory and their connection.

An eigenframe trajectory carries, per grid time, the ascending eigenvalues
and an orthonormal set of eigenvectors of a Hermitian operator series,
together with a fixed degeneracy block structure.  Two gauges appear:

* ``analytic``   - closed-form frames supplied by a model,
* ``continuity`` - numerically diagonalized frames, with the residual
  gauge freedom fixed by polar-aligning each eigenblock to its predecessor
  (a phase fix on a nondegenerate level), i.e. discrete parallel transport.

Both gauges share one discrete transport kernel, `neighbour_transport`: per
level group, the unitary polar factors Q_k of the neighbour overlaps
V_{k+1}^dag V_k.  `eigenframes` fixes its continuity gauge with the
factors of the degeneracy blocks, and the holonomy layer transports each
case's level groups by their ordered product.  The connection series
A(t) = i V^dag dV/dt is a diagnostic: a run reads its Hermiticity and the
non-Abelian witness reads its commutators, but no phase is formed from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OperatorTrajectory, TimeGrid
from .matlib import (
    NumericalError,
    block_mask,
    degeneracy_blocks,
    degeneracy_joins,
    eigh,
    halo_window,
    mul,
    ordered_product,
    polar_svd,
    sample_blocks,
    series_derivative,
    stack_last,
    unitary_exp,
)

GAUGE_TAGS = ("analytic", "continuity")
ORTHONORMAL_TOL = 1e-8
CONNECTION_HERM_TOL = 1e-5
BLOCK_OVERLAP_MIN = 0.1
DEG_TOL = 1e-8  # relative gap rule of matlib.degeneracy_joins
GAUGE_HARMONICS = 2  # Fourier order of smooth_random_gauge


@dataclass
class FrameTrajectory:
    """Sampled eigenbasis trajectory with a constant degeneracy structure.

    vectors[k] holds the basis states as columns, ordered to match
    eigenvalues[k]; blocks indexes columns into degenerate groups, each a
    contiguous run of ascending levels, and is the same at every time.
    Non-finite samples and non-orthonormal columns are refused.
    """

    grid: TimeGrid
    eigenvalues: np.ndarray  # (n_steps, dim) real
    blocks: list[list[int]]
    vectors: np.ndarray  # (n_steps, dim, dim) complex
    gauge_tag: str

    def __post_init__(self) -> None:
        if self.gauge_tag not in GAUGE_TAGS:
            raise ValueError(f"unknown gauge tag {self.gauge_tag!r}")
        self.vectors = np.asarray(self.vectors, dtype=complex)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        n, dim = self.eigenvalues.shape
        if self.vectors.shape != (n, dim, dim):
            raise ValueError("vectors shape does not match eigenvalues")
        if n != self.grid.n_steps:
            raise ValueError("sample count does not match the grid")
        if sorted(i for b in self.blocks for i in b) != list(range(dim)):
            raise ValueError("blocks must partition the level indices")
        if any(not b or list(b) != list(range(b[0], b[0] + len(b))) for b in self.blocks):
            raise ValueError("each block must be a contiguous run of ascending levels")
        # a NaN deviation would pass the orthonormality test, so non-finite
        # samples are refused first
        V, finite = self.vectors, np.all(np.isfinite(self.eigenvalues), axis=1)
        for b in sample_blocks(n, dim * dim):
            finite[b] &= np.all(np.isfinite(V[b]), axis=(1, 2))
        if not np.all(finite):
            raise ValueError(f"frame sample {int(np.argmin(finite))} is not finite")
        worst = float(np.max([
            np.max(np.abs(mul(V[b].conj().swapaxes(1, 2), V[b]) - np.eye(dim)))
            for b in sample_blocks(n, dim * dim)
        ]))
        if worst > ORTHONORMAL_TOL:
            raise ValueError(f"frame columns are not orthonormal (deviation {worst:.3e})")

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps


@dataclass
class ConnectionSeries:
    """Hermitian connection A(t) = i V^dag dV/dt sampled on the frame grid."""

    grid: TimeGrid
    samples: np.ndarray  # (n_steps, dim, dim) Hermitian
    herm_deviation: float = 0.0


def _check_continuity(singular_values: list[np.ndarray], times: np.ndarray) -> None:
    """Abort at the first time where a block's neighbour overlap is too small.

    singular_values[b][k - 1] holds the singular values (descending) of block
    b's overlap between samples k and k - 1.  Two rules apply per block: the
    subspace rule mean(sigma^2) and the smallest singular value sigma_min,
    both against BLOCK_OVERLAP_MIN.
    """
    measures = []
    for sig in singular_values:
        measures.append(("subspace overlap mean(sigma^2)", np.mean(sig**2, axis=-1)))
        measures.append(("block overlap sigma_min", sig[:, -1]))
    lost = np.array([m < BLOCK_OVERLAP_MIN for _, m in measures])
    if lost.any():
        k = int(np.argmax(lost.any(axis=0)))
        name, m = measures[int(np.argmax(lost[:, k]))]
        raise NumericalError(
            f"frame continuity lost at t={times[k + 1]:.6g}: {name} {m[k]:.3e} "
            "(grid too coarse or level crossing)"
        )


def neighbour_transport(
    vectors: np.ndarray, groups: list[list[int]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Discrete parallel transport between neighbouring samples, per level group.

    For each group g, the unitary polar factors Q_k of the neighbour
    overlaps B_k = V_{k+1}[:, g]^dag V_k[:, g], k = 0 .. n - 2, and their
    singular values (descending), as `matlib.polar_svd` returns them.
    Q_k carries the group's columns from sample k to k + 1 so that
    (V_{k+1} Q_k)^dag V_k is Hermitian positive: the discrete form of the
    parallel-transport condition (V Vpar)^dag d(V Vpar)/dt = 0 within the
    group, with Vpar = Q_{k-1} ... Q_0 (Pancharatnam's phase for one
    level; Samuel and Bhandari, PRL 60, 2339 (1988); Mukunda and Simon,
    Ann. Phys. 228, 205 (1993)).  A gauge V_k -> V_k M_k within the group
    maps Q_k to M_{k+1}^dag Q_k M_k, so the ordered product is covariant
    and the holonomy it closes is gauge-invariant by construction.  The
    singular values measure how far a step turns the group's subspace.
    Each group is a contiguous run of ascending levels, as every degeneracy
    block and case group is, and its columns are read as a view.
    """
    out = []
    for g in groups:
        c = slice(g[0], g[-1] + 1)
        out.append(polar_svd(mul(vectors[1:, :, c].conj().swapaxes(1, 2), vectors[:-1, :, c])))
    return out


def eigenframes(I_traj: OperatorTrajectory) -> FrameTrajectory:
    """Continuity-gauged eigenframes of a Hermitian operator trajectory.

    The samples are diagonalized (ascending) a block at a time
    (`sample_blocks`, as the gauge is applied), and each must keep the
    degeneracy block structure of the first (gap rule at DEG_TOL); a change
    aborts and reports the crossing time.  The residual gauge freedom is
    fixed by discrete parallel transport: each block is polar-aligned to its
    predecessor, V_k = R_k polar(R_k^dag V_{k-1}), which makes
    V_k^dag V_{k-1} Hermitian positive (real positive for a nondegenerate
    level).  Because polar(X M) = polar(X) M for unitary M, that chain is
    the ordered product of `neighbour_transport`'s factors of the
    diagonalizer's vectors R_k, taken over the degeneracy blocks:

        V_k = R_k M_k,   M_k = Q_{k-1} ... Q_0,   M_0 = 1.

    Continuity is lost, and reported with the failing time, where a block's
    B_k has mean(sigma^2) or sigma_min below BLOCK_OVERLAP_MIN.
    """
    if I_traj.kind not in ("invariant", "density"):
        raise ValueError("eigenframes expects an operator trajectory (invariant/density)")
    times, X = I_traj.grid.times, I_traj.samples
    n, d = X.shape[0], X.shape[-1]
    devs = np.concatenate([
        np.max(np.abs(X[b] - X[b].conj().transpose(0, 2, 1)), axis=(1, 2))
        for b in sample_blocks(n, d * d)
    ])
    if np.max(devs) > 1e-10:
        k = int(np.argmax(devs))
        raise ValueError(f"trajectory sample {k} is not Hermitian ({devs[k]:.3e})")
    eigenvalues, vectors = np.empty((n, d)), stack_last(X.shape)
    for b in sample_blocks(n, d * d):
        eigenvalues[b], vectors[b] = eigh(0.5 * (X[b] + X[b].conj().transpose(0, 2, 1)))

    joins = degeneracy_joins(eigenvalues, DEG_TOL)
    changed = np.any(joins != joins[0], axis=1)
    blocks = degeneracy_blocks(eigenvalues[0], DEG_TOL)
    if changed.any():
        k = int(np.argmax(changed))
        raise NumericalError(
            f"degeneracy block structure changed at t={times[k]:.6g}: "
            f"{[len(b) for b in blocks]} -> "
            f"{[len(b) for b in degeneracy_blocks(eigenvalues[k], DEG_TOL)]}"
        )

    # vectors holds the raw R_k until each block is replaced by R_k M_k; one
    # polar split per block yields both the factors and the continuity measures
    links = neighbour_transport(vectors, blocks)
    _check_continuity([sig for _, sig in links], times)
    for g, (Q, _) in zip(blocks, links):
        c, P = slice(g[0], g[-1] + 1), ordered_product(Q)  # blocks are contiguous runs
        for b in sample_blocks(n, d * d):
            vectors[b, :, c] = mul(vectors[b, :, c], P[b])
    return FrameTrajectory(
        grid=I_traj.grid,
        eigenvalues=eigenvalues,
        blocks=blocks,
        vectors=vectors,
        gauge_tag="continuity",
    )


def connection(frames: FrameTrajectory) -> ConnectionSeries:
    """Connection A(t_k) = i V_k^dag (dV/dt)_k, Hermitized finite differences.

    The raw finite-difference matrix fails Hermiticity only at the
    discretization level; the worst deviation is recorded as
    herm_deviation (a run flags it above CONNECTION_HERM_TOL).  The frames
    are taken a block at a time (`sample_blocks`), by `connection_block`.
    """
    V, dt = frames.vectors, frames.grid.dt
    A, devs = stack_last(V.shape), []
    for b in sample_blocks(frames.n_steps, frames.dim**2):
        connection_block(V, b.start, b.stop, dt, A[b], devs)
    return ConnectionSeries(grid=frames.grid, samples=A, herm_deviation=max(devs))


def connection_block(
    V: np.ndarray, lo: int, hi: int, dt: float, out=None, devs: list | None = None, Vh=None
) -> np.ndarray:
    """The connection samples lo .. hi - 1 of frame vectors V (n >= 3
    samples, spacing dt), written into out when given.  The derivative
    reads the frames' `halo_window` around the samples, so every sample
    equals its whole-series form bit for bit.  Vh, when given, is
    V[lo:hi]^dag as the caller has already formed it.  When a list devs is
    given, the largest anti-Hermitian entry of the samples' raw
    finite-difference form is appended to it.
    """
    ext, own = halo_window(lo, hi, len(V))
    if Vh is None:
        Vh = V[lo:hi].conj().swapaxes(1, 2)
    a = mul(Vh, series_derivative(V[ext], dt, own), out)
    a *= 1j
    ah = np.conj(np.swapaxes(a, 1, 2))
    if devs is not None:
        devs.append(float(np.max(np.abs(a - ah))))
    return np.multiply(0.5, np.add(a, ah, out=a), out=a)


def overlap(frames: FrameTrajectory, k) -> np.ndarray:
    """Frame overlap W(t_k, t_0) = V(t_0)^dag V(t_k); entries <a;0|b;t_k>.
    An index array k gives the stack of overlaps."""
    n = frames.n_steps
    k = np.asarray(k)
    if np.any((k < -n) | (k >= n)):
        raise ValueError(f"grid index {k} out of range for {n} samples")
    return mul(frames.vectors[0].conj().T, frames.vectors[k % n])


def gauge_transform(frames: FrameTrajectory, M: np.ndarray) -> FrameTrajectory:
    """Apply a block-compatible unitary gauge V_k -> V_k @ M_k.

    M may be a single (dim, dim) matrix or one per sample.  Entries that
    couple different degeneracy blocks are rejected, as are non-unitary
    samples: the transformed frames must stay eigenframes of the same
    operator trajectory.
    """
    M = np.asarray(M, dtype=complex)
    n, dim = frames.n_steps, frames.dim
    if M.shape == (dim, dim):
        M = np.broadcast_to(M, (n, dim, dim))
    if M.shape != (n, dim, dim):
        raise ValueError("gauge must be one matrix or one per grid sample")
    finite = np.all(np.isfinite(M), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"gauge sample {int(np.argmin(finite))} is not finite")
    gram = mul(M.conj().swapaxes(1, 2), M)
    devs = np.max(np.abs(gram - np.eye(dim)), axis=(1, 2))
    if np.max(devs) > ORTHONORMAL_TOL:
        k = int(np.argmax(devs))
        raise ValueError(f"gauge sample {k} is not unitary (deviation {devs[k]:.3e})")
    worst = float(np.max(np.abs(np.where(block_mask(frames.blocks, dim), 0.0, M))))
    if worst > 1e-10:
        raise ValueError(
            f"gauge transformation mixes degeneracy blocks (off-block entry {worst:.3e})"
        )
    return FrameTrajectory(
        grid=frames.grid,
        eigenvalues=frames.eigenvalues.copy(),
        blocks=[list(b) for b in frames.blocks],
        vectors=mul(frames.vectors, M),
        gauge_tag=frames.gauge_tag,
    )


def smooth_random_gauge(
    frames: FrameTrajectory,
    amplitude: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """Seeded smooth block-diagonal gauge samples for covariance checks.

    Each degeneracy block gets exp(i Theta_b(t)) with Theta_b a Fourier
    series of order GAUGE_HARMONICS in t with Hermitian matrix coefficients;
    the result is periodic over the grid span and block-compatible by
    construction.
    """
    rng = np.random.default_rng(seed)
    n, dim = frames.n_steps, frames.dim
    s = (frames.grid.times - frames.grid.t0) / (frames.grid.t1 - frames.grid.t0)
    M = np.zeros((n, dim, dim), dtype=complex)
    M[:] = np.eye(dim)
    for b in frames.blocks:
        g = len(b)
        theta = np.zeros((n, g, g), dtype=complex)
        for m in range(1, GAUGE_HARMONICS + 1):
            for wave in (np.cos, np.sin):
                G = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
                G = 0.5 * (G + G.conj().T)
                theta += (amplitude / m) * wave(2.0 * np.pi * m * s)[:, None, None] * G
        M[(slice(None),) + np.ix_(b, b)] = unitary_exp(theta)
    return M
