"""Open-system dynamics: Lindblad propagation, dynamical invariants, and
the equation of motion for density-matrix coefficients in a moving basis.

The master equation used throughout is

    d(rho)/dt = -i [H0, rho] + sum_ij g_ij ( [G_i, rho G_j^dag] + [G_i rho, G_j^dag] )

with real symmetric coupling rates g_ij(t) and jump operators G_i(t).  On
the row-major vectorization vec(X)[a d + b] = X[a, b], for which
vec(A X B) = (A kron B^T) vec(X), it reads d vec(rho)/dt = L vec(rho) with
the d^2 x d^2 superoperator (`liouvillian`; Havel, J. Math. Phys. 44, 534
(2003))

    L = -i (H0 kron 1 - 1 kron H0^T)
        + sum_ij g_ij ( 2 G_i kron conj(G_j) - D_ij kron 1 - 1 kron D_ij^T ),
    D_ij = G_j^dag G_i.

A dynamical invariant I(t) obeys the Heisenberg adjoint: its generator is
-L^dag (conjugate transpose), i.e.

    dI/dt = -i [H0, I] + sum_ij g_ij ( G_j^dag [G_i, I] + [I, G_j^dag] G_i ),

which keeps Tr[I(t) rho(t)] constant along any solution of the master
equation.  The coefficients c = V^dag rho V in a moving orthonormal basis
V(t) obey the master equation again, with H0 -> V^dag H0 V - A,
A = i V^dag dV/dt, and G_i -> V^dag G_i V.  All three share one stepper
(`_integrate`), which takes the generator inputs sampled once at the
grid.refined() times and decides once per run how to step them:

* closed runs (no jump operators, or every rate zero at every stage time)
  have -L^dag = L, so all three are the unitary flow X -> U X U^dag.  It is
  stepped by 4th-order Magnus exponentials, one batched exponential and one
  ordered product per trajectory, and keeps the spectrum of X exactly;
* open runs are stepped by fixed-step RK4 on dx/dt = L(t) x;
* a generator constant over the whole run takes one step map, and its
  powers give the flow: one Magnus exponential, whose powers are read off
  its eigensystem, or one RK4 step matrix P, whose powers P^0 ... P^(s-1)
  and P^s step the samples in blocks of s ~ sqrt(n) steps, with no
  per-step loop;
* a time-dependent open generator forms its step matrices a chunk at a
  time and steps each chunk in blocks of s ~ sqrt(chunk) steps: batched
  products form the block totals, the totals carry the block starts, and
  batched matrix-vector products across the blocks write the samples, so
  no loop runs per step here either.

Both methods only produce raw samples.  One tail Hermitizes them (L, -L^dag
and both step maps commute with the adjoint, so the anti-Hermitian rounding
never feeds the Hermitian part) and ends the run at the first non-finite
sample or, if all are finite, at the first density sample with an entry of
modulus above 1 + DENSITY_ENTRY_TOL, which no density matrix has: such a
run has diverged.  A density's trace needs no repair, since L keeps it for
any H, G and g (Tr(H rho - rho H) = 0 and Tr(2 G_i rho G_j^dag
- G_j^dag G_i rho - rho G_j^dag G_i) = 0) and so do both step maps, up to
rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .matlib import (
    CMatrix,
    NumericalError,
    eigh,
    herm_defect,
    mul,
    ordered_product,
    unitary_exp,
)

if TYPE_CHECKING:  # pragma: no cover
    from .frames import FrameTrajectory

DENSITY_ENTRY_TOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-8
# time-dependent open runs form their RK4 step matrices a chunk of steps at
# a time, as many as hold this many matrix entries, which bounds the memory
# they take on long grids; each chunk is stepped in blocks (constant
# generators take blocked powers of one step matrix)
_CHUNK_ENTRIES = 2**14


@dataclass
class LindbladModel:
    """Time-dependent generator data for the master equation.

    Each callable takes the array of sample times t, shape (n,), and returns
    its values at every time or one value that holds at all of them:

    hamiltonian(t) -> (n, dim, dim) or (dim, dim) Hermitian matrices
    jump_ops[i](t) -> (n, dim, dim) or (dim, dim) matrices
    couplings(t)   -> (n, n_jump, n_jump) or (n_jump, n_jump) real
                      symmetric rate matrices
    """

    dim: int
    hamiltonian: Callable[[np.ndarray], np.ndarray]
    jump_ops: list[Callable[[np.ndarray], np.ndarray]] = field(default_factory=list)
    couplings: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("model dimension must be at least 2")
        if self.jump_ops and self.couplings is None:
            raise ValueError("jump operators given without coupling rates")

    def operators(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H, G, g) sampled at `times`, with shapes (n, dim, dim),
        (n, n_jump, dim, dim) and (n, n_jump, n_jump): the arguments of
        `liouvillian`.  Each callable is called once, on all the times.  A
        value that holds at all times is broadcast, not copied n times, so G,
        g and a constant H are read-only views."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        n, m, d = len(times), len(self.jump_ops), self.dim
        H = np.asarray(self.hamiltonian(times), dtype=complex)
        if H.shape != (n, d, d):
            H = np.broadcast_to(H, (n, d, d))
        G = np.empty((m, d, d), dtype=complex)
        if self.jump_ops:
            ops = (np.asarray(op(times), dtype=complex) for op in self.jump_ops)
            G = np.stack(np.broadcast_arrays(*ops), axis=-3)
        g = np.zeros((m, m))
        if self.couplings is not None:
            g = np.asarray(self.couplings(times), dtype=float)
            if g.shape[-2:] != (m, m):
                raise ValueError("coupling matrix shape does not match jump operators")
        return H, np.broadcast_to(G, (n, m, d, d)), np.broadcast_to(g, (n, m, m))


@dataclass
class TimeGrid:
    """Uniform time grid with n_steps sample points (n_steps - 1 steps)."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 2:
            raise ValueError("a time grid needs at least 2 points")
        for name in ("t0", "t1"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.n_steps - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_steps)

    def refined(self) -> "TimeGrid":
        """Grid with the same span and a sample inserted mid-step (2n - 1 points)."""
        return TimeGrid(self.t0, self.t1, 2 * self.n_steps - 1)


TRAJECTORY_KINDS = ("density", "invariant", "coefficient")


@dataclass
class OperatorTrajectory:
    """Sampled operator-valued trajectory on a uniform grid."""

    grid: TimeGrid
    samples: np.ndarray  # (n_steps, dim, dim)
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape[0] != self.grid.n_steps:
            raise ValueError("sample count does not match the grid")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def liouvillian(H: np.ndarray, G: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Master-equation superoperator L on row-major vec(rho).

    H (..., d, d), jump operators G (..., m, d, d) and rates g (..., m, m)
    share their leading (time) axes; returns L (..., d^2, d^2).  The
    invariant generator is -L^dag.
    """
    H = np.asarray(H, dtype=complex)
    G = np.asarray(G, dtype=complex)
    d = H.shape[-1]
    D = np.einsum("...ij,...jba,...ibc->...ac", g, G.conj(), G)
    eye = np.eye(d)
    L = (
        np.einsum("...ac,bd->...abcd", -1j * H - D, eye)
        + np.einsum("ac,...db->...abcd", eye, 1j * H - D)
        + 2.0 * np.einsum("...ij,...iac,...jbd->...abcd", g, G, G.conj())
    )
    return L.reshape(H.shape[:-2] + (d * d, d * d))


def _validate_initial(X0: CMatrix, dim: int, kind: str) -> CMatrix:
    X0 = np.asarray(X0, dtype=complex)
    if X0.shape != (dim, dim):
        raise ValueError(f"initial operator must be {dim}x{dim}")
    if not np.all(np.isfinite(X0)):
        raise ValueError("initial operator must be finite")
    if herm_defect(X0) > 1e-10:
        raise ValueError("initial operator must be Hermitian")
    X = 0.5 * (X0 + X0.conj().T)
    if kind == "density":
        if abs(np.trace(X).real - 1.0) > 1e-10:
            raise ValueError("initial density matrix must have unit trace")
        lowest = eigh(X)[0][0]
        if lowest < -1e-10:
            raise ValueError(
                f"initial density matrix must be positive semi-definite "
                f"(smallest eigenvalue {lowest:.3e})"
            )
    return X


def _non_finite(kind: str, grid: TimeGrid, k: int) -> NumericalError:
    """The failure of a run whose first non-finite sample follows grid point k."""
    return NumericalError(
        f"{kind} propagation produced non-finite values; "
        f"last valid time t={grid.times[k]:.6g}"
    )


def _rk4_matrices(L: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step matrices P_k = 1 + dt/6 (K1 + 2 K2 + 2 K3 + K4) for
    dx/dt = L(t) x, from generators at the 2n + 1 stage times of n steps."""
    eye = np.eye(L.shape[-1])
    K1 = L[:-1:2]
    K2 = L[1::2] @ (eye + 0.5 * dt * K1)
    K3 = L[1::2] @ (eye + 0.5 * dt * K2)
    K4 = L[2::2] @ (eye + dt * K3)
    return eye + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def _magnus_exponents(H: np.ndarray, dt: float) -> np.ndarray:
    """Hermitian exponents G_k of the 4th-order Magnus steps U_k = exp(i G_k)
    for dU/dt = -i H(t) U, from Hermitian H at the 2n + 1 stage times of n
    steps (t_k, t_{k+1/2}, t_{k+1}; Blanes, Casas, Oteo and Ros, Phys. Rep.
    470, 151 (2009)):

        -i G_k = -i (dt/6)(H_k + 4 H_{k+1/2} + H_{k+1}) + (dt^2/12)[H_k, H_{k+1}].

    The commutator is formed as C - C^dag with C = H_k H_{k+1}, so G_k is
    exactly Hermitian.
    """
    H0, Hm, H1 = H[:-1:2], H[1::2], H[2::2]
    C = H0 @ H1
    return -(dt / 6.0) * (H0 + 4.0 * Hm + H1) - 1j * (dt * dt / 12.0) * (
        C - np.conj(np.swapaxes(C, -1, -2))
    )


def _unitary_flow(
    H: np.ndarray, X0: CMatrix, grid: TimeGrid, kind: str, constant: bool
) -> np.ndarray:
    """Raw samples X_k = W_k X0 W_k^dag of a closed run, where W = [1, U_0,
    U_1 U_0, ...] is the ordered product of the Magnus steps U_k from H at
    the grid.refined() times.

    The step keeps the spectrum of X exactly, so a degenerate invariant
    stays degenerate.  Constant H takes one exponential exp(i G), and W_k is
    its k-th power read off the one eigensystem.  A step whose phase spread
    lambda_max(G_k) - lambda_min(G_k) reaches pi, where the grid aliases the
    fastest coherence and the step leaves the Magnus convergence region,
    aborts the run.  So does a non-finite step exponent, before any
    exponential, with the failure the tail gives the sample it would spoil.
    """
    H = H[:3] if constant else H
    G = _magnus_exponents(0.5 * (H + np.conj(np.swapaxes(H, -1, -2))), grid.dt)
    bad = ~np.all(np.isfinite(G), axis=(-2, -1))
    if np.any(bad):
        raise _non_finite(kind, grid, int(np.argmax(bad)))
    # W with the step index as the last, contiguous axis, so that applying
    # it is two einsums over length-n vectors
    if constant:
        # W_k = exp(i k G): powers of the one exponential, whose rounding
        # does not grow with k as a running product's does
        lam, V = eigh(G[0])
        spread = lam[-1:] - lam[:1]
        phases = np.exp(1j * np.outer(lam, np.arange(grid.n_steps)))
        W = np.einsum("im,mn,jm->ijn", V, phases, V.conj())
    else:
        U, spread = unitary_exp(G, return_spread=True)
        W = np.ascontiguousarray(np.moveaxis(ordered_product(U), 0, -1))
    coarse = spread >= np.pi
    if np.any(coarse):
        k = int(np.argmax(coarse))
        raise NumericalError(
            f"{kind} propagation under-resolved: step phase spread {spread[k]:.4g} "
            f">= pi at t={grid.times[k]:.6g}; refine the grid"
        )
    X = np.einsum("ikn,lkn->iln", np.einsum("ijn,jk->ikn", W, X0), W.conj())
    return np.ascontiguousarray(np.moveaxis(X, -1, 0))


def _rk4_flow(
    H: np.ndarray, G: np.ndarray, g: np.ndarray, X0: CMatrix, grid: TimeGrid,
    kind: str, constant: bool,
) -> np.ndarray:
    """Raw samples of an open run: vec(X) stepped by RK4 with the step
    matrices of L, or of -L^dag for an invariant, at the grid.refined()
    times.

    A constant generator takes one step matrix P, and the samples are its
    powers applied to X0 in blocks of s = ceil(sqrt(n - 1)) steps: s - 1
    products form P^0 ... P^(s-1), P^s carries each block start x_(js) to
    the next, and one product writes every x_(js+i) = P^i x_(js).

    Otherwise the step matrices are formed a chunk at a time, at most
    _CHUNK_ENTRIES matrix entries (1024 steps of a qubit, 64 of a 4-level
    model), and each chunk of c steps is cut into blocks of
    s = ceil(sqrt(c)) steps: s - 1 batched products form every block's
    total, one matrix-vector product per block carries each block start to
    the next, and s - 1 batched matrix-vector products, each across all
    blocks, step every block from its start, x_(js+i) = P_(js+i-1) x_(js+i-1).
    Each product runs over a stack, not a single step.
    """
    n, d = grid.n_steps, X0.shape[0]

    def step_matrices(lo: int, hi: int) -> np.ndarray:
        L = liouvillian(*(a[2 * lo : 2 * hi + 1] for a in (H, G, g)))
        L = -np.conj(np.swapaxes(L, -1, -2)) if kind == "invariant" else L
        return _rk4_matrices(L, grid.dt)

    if constant:
        P = step_matrices(0, 1)[0]
        s = int(np.ceil(np.sqrt(n - 1)))  # block length
        powers = np.empty((s, d * d, d * d), dtype=complex)
        powers[0] = np.eye(d * d)
        for i in range(1, s):
            np.dot(P, powers[i - 1], out=powers[i])
        jump = P @ powers[-1]  # P^s
        starts = np.empty((-(-n // s), d * d), dtype=complex)
        starts[0] = X0.reshape(-1)
        for j in range(1, len(starts)):
            np.dot(jump, starts[j - 1], out=starts[j])
        # row j holds x_(js+i) at columns i d^2 ... (i + 1) d^2 - 1; the last
        # block runs past the grid, and its surplus samples are dropped
        blocks = starts @ powers.reshape(s * d * d, d * d).T
        return blocks.reshape(-1, d, d)[:n]

    D = d * d
    samples = np.empty((n, D), dtype=complex)
    samples[0] = X0.reshape(-1)
    chunk = max(1, _CHUNK_ENTRIES // D**2)  # steps
    for lo in range(0, n - 1, chunk):
        hi = min(lo + chunk, n - 1)
        c = hi - lo
        s = int(np.ceil(np.sqrt(c)))  # block length
        m = -(-c // s)  # block count
        # steps[i, j] is the matrix of step lo + j s + i, with the block index
        # second so that each in-block position is one contiguous stack; the
        # last block is padded with zeros, which reach no kept sample
        steps = np.zeros((s, m, D, D), dtype=complex)
        k = np.arange(c)
        steps[k % s, k // s] = step_matrices(lo, hi)
        totals = steps[0]
        for i in range(1, s):
            totals = steps[i] @ totals
        # x[i, j] is sample lo + j s + i; column m holds only the start of the
        # block after the last, which is sample hi when the last block is full
        x = np.empty((s, m + 1, D), dtype=complex)
        x[0, 0] = samples[lo]
        for j in range(m):
            np.dot(totals[j], x[0, j], out=x[0, j + 1])
        for i in range(1, s):
            np.matmul(steps[i - 1], x[i - 1, :m, :, None], out=x[i, :m, :, None])
        samples[lo + 1 : hi + 1] = x.transpose(1, 0, 2).reshape(-1, D)[1 : c + 1]
    return samples.reshape(n, d, d)


def _integrate(
    H: np.ndarray, G: np.ndarray, g: np.ndarray, X0: CMatrix, grid: TimeGrid, kind: str
) -> OperatorTrajectory:
    """Propagate X on `grid` from the `liouvillian` arguments (H, G, g)
    sampled at the grid.refined() times.  The generator is L, or -L^dag for
    an invariant.

    Two choices are made once, for the whole run.  A run whose coupling
    rates vanish at every stage time is closed: there -L^dag = L, and all
    kinds take the exact-unitary `_unitary_flow`; other runs take RK4
    (`_rk4_flow`).  A generator constant over the whole run (H alone when
    closed, else H, G and g) takes one step map.

    The raw samples then pass one tail.  They are Hermitized, which is
    exact because both step maps commute with the adjoint, so the
    anti-Hermitian rounding never feeds the Hermitian part.  The first
    NaN/Inf sample aborts with the last valid time in the message.  If all
    are finite, the first density sample with an entry of modulus above
    1 + DENSITY_ENTRY_TOL aborts the run as diverged: no density matrix has
    one (|rho_ij|^2 <= rho_ii rho_jj <= 1), and a diverging run, typically
    RK4 stepped outside its stability region, has one long before its
    trace moves.  The trace needs no repair: L keeps it for any H, G and g,
    and both step maps inherit that up to rounding.
    """
    closed = not np.any(g)
    constant = all(np.all(a == a[0]) for a in ((H,) if closed else (H, G, g)))
    # an unstable step overflows and a non-finite generator spreads through
    # the flow; the checks below report the first such sample, so numpy's
    # own warnings about them are silenced
    with np.errstate(all="ignore"):
        if closed:
            X = _unitary_flow(H, X0, grid, kind, constant)
        else:
            X = _rk4_flow(H, G, g, X0, grid, kind, constant)
        X += np.conj(np.swapaxes(X, -1, -2))
        X *= 0.5
        bad = ~np.all(np.isfinite(X[1:]), axis=(1, 2))
        entry = np.max(np.abs(X[1:]), axis=(1, 2)) if kind == "density" else np.zeros(1)
    if np.any(bad):
        raise _non_finite(kind, grid, int(np.argmax(bad)))
    over = entry > 1.0 + DENSITY_ENTRY_TOL
    if np.any(over):
        k = int(np.argmax(over))
        raise NumericalError(
            f"density propagation diverged: entry modulus {entry[k]:.4g} > 1 "
            f"at t={grid.times[k + 1]:.6g}"
        )
    return OperatorTrajectory(grid, X, kind)


def propagate(
    model: LindbladModel,
    X0: CMatrix,
    grid: TimeGrid,
    kind: str = "density",
) -> OperatorTrajectory:
    """Integrate the master equation (kind='density', generator L) or the
    invariant equation (kind='invariant', generator -L^dag) from the model
    sampled once at the grid.refined() times: by the exact unitary Magnus
    flow for a closed model, else by fixed-step RK4; see `_integrate` for
    the choice and the checks on the samples."""
    if kind not in ("density", "invariant"):
        raise ValueError("propagate handles 'density' or 'invariant' trajectories")
    X = _validate_initial(X0, model.dim, kind)
    return _integrate(*model.operators(grid.refined().times), X, grid, kind)


def invariant_expectation(
    I_traj: OperatorTrajectory, rho_traj: OperatorTrajectory
) -> np.ndarray:
    """Tr[I(t) rho(t)] along paired trajectories, as a real array.

    Constancy of this quantity is what makes I(t) an invariant; the trace
    should be real, and a residual imaginary part above
    EXPECTATION_IMAG_TOL aborts.
    """
    if I_traj.grid.n_steps != rho_traj.grid.n_steps:
        raise ValueError("trajectories must share a grid")
    vals = np.einsum("kij,kji->k", I_traj.samples, rho_traj.samples)
    worst = float(np.max(np.abs(vals.imag)))
    if worst > EXPECTATION_IMAG_TOL:
        raise NumericalError(f"expectation value has imaginary part {worst:.3e}")
    return vals.real


def propagate_coefficients(
    model: LindbladModel,
    frames: "FrameTrajectory",
    c0: CMatrix,
    grid: TimeGrid,
) -> OperatorTrajectory:
    """Integrate the coefficient matrix c = V^dag rho V on `grid`.

    Its generator is `liouvillian` with H0 -> V^dag H0 V - A, where A is
    the frames' connection i V^dag dV/dt (`frames.connection`), and
    G_i -> V^dag G_i V.  The frames must be sampled on grid.refined() (a
    point at every half-step), so the moving-basis matrices are available
    at the stage times without interpolation.
    """
    from .frames import connection  # frames imports this module

    fine = frames.grid
    if fine.n_steps != 2 * grid.n_steps - 1 or fine.t0 != grid.t0 or fine.t1 != grid.t1:
        raise ValueError("frames must be sampled on grid.refined()")
    c = _validate_initial(c0, model.dim, "coefficient")
    H, G, g = model.operators(fine.times)
    # the connection first, while no other stack is held, and V^dag dropped
    # before stepping: this keeps the peak memory near the connection's own
    HV = -connection(frames).samples
    V = frames.vectors
    Vh = np.conj(np.swapaxes(V, -1, -2))
    HV += mul(mul(Vh, H), V)
    GV = mul(mul(Vh[:, None], G), V[:, None])
    del Vh
    return _integrate(HV, GV, g, c, grid, "coefficient")
