"""Time-dependent eigenbases of an operator trajectory and their connection.

An eigenframe trajectory carries, per grid time, the ascending eigenvalues
and an orthonormal set of eigenvectors of a Hermitian operator series,
together with a fixed degeneracy block structure.  Two gauges appear:

* ``analytic``   - closed-form frames supplied by a model,
* ``continuity`` - numerically diagonalized frames, with the residual
  gauge freedom fixed by polar-aligning each eigenblock to its predecessor
  (a phase fix on a nondegenerate level), i.e. discrete parallel transport.

The connection series A(t) = i V^dag dV/dt is the central object consumed
by the holonomy layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import OperatorTrajectory, TimeGrid
from .matlib import (
    CMatrix,
    NumericalError,
    degeneracy_blocks,
    degeneracy_joins,
    ordered_product,
    polar_svd,
    series_derivative,
    unitary_exp,
)

GAUGE_TAGS = ("analytic", "continuity")
ORTHONORMAL_TOL = 1e-8
CONNECTION_HERM_TOL = 1e-5
BLOCK_OVERLAP_MIN = 0.1


@dataclass
class FrameTrajectory:
    """Sampled eigenbasis trajectory with a constant degeneracy structure.

    vectors[k] holds the basis states as columns, ordered to match
    eigenvalues[k]; blocks indexes columns into degenerate groups and is
    the same at every time.
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
        gram = np.einsum("kji,kjl->kil", self.vectors.conj(), self.vectors)
        worst = float(np.max(np.abs(gram - np.eye(dim))))
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
    flags: list[str] = field(default_factory=list)


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


def eigenframes(I_traj: OperatorTrajectory, deg_tol: float = 1e-8) -> FrameTrajectory:
    """Continuity-gauged eigenframes of a Hermitian operator trajectory.

    All samples are diagonalized (ascending) in one batched call, and each
    must keep the degeneracy block structure of the first; a change aborts
    and reports the crossing time.  The residual gauge freedom is fixed by
    discrete parallel transport: each block is polar-aligned to its
    predecessor, V_k = R_k polar(R_k^dag V_{k-1}), which makes V_k^dag V_{k-1}
    Hermitian positive (real positive for a nondegenerate level).  Because
    polar(X M) = polar(X) M for unitary M, that chain is one ordered product
    of the raw neighbour overlaps B_k = R_k^dag R_{k-1} of the diagonalizer's
    vectors R_k:

        V_k = R_k M_k,   M_k = polar(B_k) ... polar(B_1),   M_0 = 1.

    Continuity is lost, and reported with the failing time, where a block's
    B_k has mean(sigma^2) or sigma_min below BLOCK_OVERLAP_MIN.
    """
    if I_traj.kind not in ("invariant", "density"):
        raise ValueError("eigenframes expects an operator trajectory (invariant/density)")
    times = I_traj.grid.times
    devs = np.max(np.abs(I_traj.samples - I_traj.samples.conj().transpose(0, 2, 1)), axis=(1, 2))
    if np.max(devs) > 1e-10:
        k = int(np.argmax(devs))
        raise ValueError(f"trajectory sample {k} is not Hermitian ({devs[k]:.3e})")
    eigenvalues, vectors = np.linalg.eigh(
        0.5 * (I_traj.samples + I_traj.samples.conj().transpose(0, 2, 1))
    )

    joins = degeneracy_joins(eigenvalues, deg_tol)
    changed = np.any(joins != joins[0], axis=1)
    blocks = degeneracy_blocks(eigenvalues[0], deg_tol)
    if changed.any():
        k = int(np.argmax(changed))
        raise NumericalError(
            f"degeneracy block structure changed at t={times[k]:.6g}: "
            f"{[len(b) for b in blocks]} -> "
            f"{[len(b) for b in degeneracy_blocks(eigenvalues[k], deg_tol)]}"
        )

    # vectors holds the raw R_k until each block is replaced by R_k M_k
    cols = [slice(b[0], b[-1] + 1) for b in blocks]  # blocks are contiguous runs
    # one SVD per block yields both the polar factors and the continuity measures
    factors, sigmas = [], []
    for c in cols:
        M, _, sig = polar_svd(vectors[1:, :, c].conj().swapaxes(1, 2) @ vectors[:-1, :, c])
        factors.append(M)
        sigmas.append(sig)
    _check_continuity(sigmas, times)
    for c, M in zip(cols, factors):
        vectors[:, :, c] = vectors[:, :, c] @ ordered_product(M)
    return FrameTrajectory(
        grid=I_traj.grid,
        eigenvalues=eigenvalues,
        blocks=blocks,
        vectors=vectors,
        gauge_tag="continuity",
    )


def eigen_residual(I_traj: OperatorTrajectory, frames: FrameTrajectory) -> float:
    """max_k || I(t_k) V_k - V_k diag(lam_k) ||_max, a frame-quality metric."""
    IV = np.einsum("kij,kjl->kil", I_traj.samples, frames.vectors)
    VL = frames.vectors * frames.eigenvalues[:, None, :]
    return float(np.max(np.abs(IV - VL)))


def connection(frames: FrameTrajectory) -> ConnectionSeries:
    """Connection A(t_k) = i V_k^dag (dV/dt)_k, Hermitized finite differences.

    The raw finite-difference matrix fails Hermiticity only at the
    discretization level; the worst deviation is recorded and flagged when
    it exceeds CONNECTION_HERM_TOL.
    """
    V = frames.vectors
    dV = series_derivative(V, frames.grid.dt)
    A_raw = 1j * np.einsum("kji,kjl->kil", V.conj(), dV)
    dev = float(np.max(np.abs(A_raw - np.conj(np.swapaxes(A_raw, 1, 2)))))
    A = 0.5 * (A_raw + np.conj(np.swapaxes(A_raw, 1, 2)))
    flags = []
    if dev > CONNECTION_HERM_TOL:
        flags.append(f"connection hermiticity deviation {dev:.3e}")
    return ConnectionSeries(grid=frames.grid, samples=A, herm_deviation=dev, flags=flags)


def overlap(frames: FrameTrajectory, k: int) -> CMatrix:
    """Frame overlap W(t_k, t_0) = V(t_0)^dag V(t_k); entries <a;0|b;t_k>."""
    n = frames.n_steps
    if not -n <= k < n:
        raise ValueError(f"grid index {k} out of range for {n} samples")
    return frames.vectors[0].conj().T @ frames.vectors[k % n]


def _check_block_compatible(M: np.ndarray, blocks: list[list[int]], dim: int) -> None:
    """Reject entries outside the degeneracy blocks (works on stacks too)."""
    mask = np.zeros((dim, dim), dtype=bool)
    for b in blocks:
        idx = np.ix_(b, b)
        mask[idx] = True
    worst = float(np.max(np.abs(np.where(mask, 0.0, M))))
    if worst > 1e-10:
        raise ValueError(
            f"gauge transformation mixes degeneracy blocks (off-block entry {worst:.3e})"
        )


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
    gram = np.einsum("kji,kjl->kil", M.conj(), M)
    devs = np.max(np.abs(gram - np.eye(dim)), axis=(1, 2))
    if np.max(devs) > ORTHONORMAL_TOL:
        k = int(np.argmax(devs))
        raise ValueError(f"gauge sample {k} is not unitary (deviation {devs[k]:.3e})")
    _check_block_compatible(M, frames.blocks, dim)
    return FrameTrajectory(
        grid=frames.grid,
        eigenvalues=frames.eigenvalues.copy(),
        blocks=[list(b) for b in frames.blocks],
        vectors=np.einsum("kij,kjl->kil", frames.vectors, M),
        gauge_tag=frames.gauge_tag,
    )


def smooth_random_gauge(
    frames: FrameTrajectory,
    amplitude: float = 0.1,
    seed: int = 0,
    n_harmonics: int = 2,
) -> np.ndarray:
    """Seeded smooth block-diagonal gauge samples for covariance checks.

    Each degeneracy block gets exp(i Theta_b(t)) with Theta_b a low-order
    Fourier series in t with Hermitian matrix coefficients; the result is
    periodic over the grid span and block-compatible by construction.
    """
    rng = np.random.default_rng(seed)
    n, dim = frames.n_steps, frames.dim
    s = (frames.grid.times - frames.grid.t0) / (frames.grid.t1 - frames.grid.t0)
    M = np.zeros((n, dim, dim), dtype=complex)
    M[:] = np.eye(dim)
    for b in frames.blocks:
        g = len(b)
        theta = np.zeros((n, g, g), dtype=complex)
        for m in range(1, n_harmonics + 1):
            for wave in (np.cos, np.sin):
                G = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
                G = 0.5 * (G + G.conj().T)
                theta += (amplitude / m) * wave(2.0 * np.pi * m * s)[:, None, None] * G
        M[(slice(None),) + np.ix_(b, b)] = unitary_exp(theta)
    return M
