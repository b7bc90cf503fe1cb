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
(`_integrate`), which picks its method from the coupling rates:

* closed runs (no jump operators, or every rate zero at every stage time)
  have -L^dag = L, so all three are the unitary flow X -> U X U^dag.  It is
  stepped by 4th-order Magnus exponentials, one batched exponential and one
  ordered product per trajectory, and keeps the spectrum of X exactly;
* open runs are stepped by fixed-step RK4 on dx/dt = L(t) x, whose stored
  samples are Hermitized chunk by chunk: L, -L^dag and the RK4 step
  polynomial all commute with the adjoint, so the anti-Hermitian rounding
  never feeds the Hermitian part.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .matlib import (
    CMatrix,
    NumericalError,
    herm_defect,
    ordered_product,
    series_derivative,
    unitary_exp,
)

if TYPE_CHECKING:  # pragma: no cover
    from .frames import FrameTrajectory

TRACE_RTOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-8
# open runs form their RK4 step matrices this many steps at a time, which
# bounds the memory they take on long grids
_CHUNK_STEPS = 128


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
        `liouvillian`.  Each callable is called once, on all the times."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        n, m, d = len(times), len(self.jump_ops), self.dim
        H = np.broadcast_to(self.hamiltonian(times), (n, d, d)).astype(complex)
        G = np.empty((n, m, d, d), dtype=complex)
        for i, op in enumerate(self.jump_ops):
            G[:, i] = op(times)
        g = np.zeros((n, m, m))
        if self.couplings is not None:
            rates = np.asarray(self.couplings(times), dtype=float)
            if rates.shape[-2:] != (m, m):
                raise ValueError("coupling matrix shape does not match jump operators")
            g[...] = rates
        return H, G, g


@dataclass
class TimeGrid:
    """Uniform time grid with n_steps sample points (n_steps - 1 steps)."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 2:
            raise ValueError("a time grid needs at least 2 points")
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
    flags: list[str] = field(default_factory=list)

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
    if herm_defect(X0) > 1e-10:
        raise ValueError("initial operator must be Hermitian")
    if kind == "density" and abs(np.trace(X0).real - 1.0) > 1e-10:
        raise ValueError("initial density matrix must have unit trace")
    return 0.5 * (X0 + X0.conj().T)


def _rk4_matrices(L: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step matrices P_k = 1 + dt/6 (K1 + 2 K2 + 2 K3 + K4) for
    dx/dt = L(t) x, from generators at the 2n + 1 stage times of n steps."""
    eye = np.eye(L.shape[-1])
    K1 = L[:-1:2]
    K2 = L[1::2] @ (eye + 0.5 * dt * K1)
    K3 = L[1::2] @ (eye + 0.5 * dt * K2)
    K4 = L[2::2] @ (eye + dt * K3)
    return eye + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def _renormalize_traces(block: np.ndarray, max_drift: float) -> float:
    """Renormalize a chunk of raw density samples, stepped without
    renormalization from a unit-trace start, as if each step had been
    renormalized whenever its trace drifted by more than TRACE_RTOL.

    By linearity the renormalized sample is the raw sample over the raw
    trace at the last renormalization; the scalar scan runs only when some
    drift exceeds TRACE_RTOL.  Returns the updated max drift.
    """
    tr = np.trace(block, axis1=-2, axis2=-1).real
    if not np.max(np.abs(tr - 1.0)) > TRACE_RTOL:
        return max_drift
    scale = np.empty_like(tr)
    s = 1.0
    for j, t in enumerate(tr):
        drift = abs(t / s - 1.0)
        if drift > TRACE_RTOL:
            s = t
            max_drift = max(max_drift, drift)
        scale[j] = s
    block /= scale[:, None, None]
    return max_drift


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


def _unitary_flow(H: np.ndarray, X0: CMatrix, grid: TimeGrid, kind: str) -> OperatorTrajectory:
    """Closed-model propagation X_k = W_k X0 W_k^dag, where W = [1, U_0,
    U_1 U_0, ...] is the ordered product of the Magnus steps U_k from H at
    the grid.refined() times.

    The step keeps the spectrum of X exactly, so a degenerate invariant
    stays degenerate.  Constant H takes one exponential exp(i G), and W_k is
    its k-th power read off the one eigensystem.  A non-finite exponent
    aborts with the last valid time; so does a step whose phase spread
    lambda_max(G_k) - lambda_min(G_k) reaches pi, where the grid aliases the
    fastest coherence and the step leaves the Magnus convergence region.  A
    density trace drifting by more than TRACE_RTOL is renormalized and
    flagged, as on the RK4 path.
    """
    times = grid.times
    H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
    constant = bool(np.all(H == H[0]))
    # overflow shows up as the non-finite exponent reported below
    with np.errstate(over="ignore", invalid="ignore"):
        G = _magnus_exponents(H[:3] if constant else H, grid.dt)
    bad = ~np.all(np.isfinite(G), axis=(1, 2))
    if np.any(bad):
        raise NumericalError(
            f"{kind} propagation produced non-finite values; "
            f"last valid time t={times[int(np.argmax(bad))]:.6g}"
        )
    # W with the step index as the last, contiguous axis, so that applying
    # it is two einsums over length-n vectors
    if constant:
        # W_k = exp(i k G): powers of the one exponential, whose rounding
        # does not grow with k as a running product's does
        lam, V = np.linalg.eigh(G[0])
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
            f">= pi at t={times[k]:.6g}; refine the grid"
        )
    X = np.einsum("ikn,lkn->iln", np.einsum("ijn,jk->ikn", W, X0), W.conj())
    X = 0.5 * (X + np.conj(np.swapaxes(X, 0, 1)))
    samples = np.ascontiguousarray(np.moveaxis(X, -1, 0))
    flags: list[str] = []
    if kind == "density":
        max_drift = _renormalize_traces(samples[1:], 0.0)
        if max_drift > 0.0:
            flags.append(f"density trace renormalized (max drift {max_drift:.3e})")
    return OperatorTrajectory(grid, samples, kind, flags)


def _integrate(inputs, X0: CMatrix, grid: TimeGrid, kind: str) -> OperatorTrajectory:
    """Propagate X on `grid`; inputs(stages) returns the `liouvillian`
    arguments (H, G, g) at the grid.refined() points selected by the slice
    `stages`.  The generator is L, or -L^dag for an invariant.

    A run whose coupling rates vanish at every stage time is closed: there
    -L^dag = L, and all kinds take the exact-unitary `_unitary_flow`.  The
    rates are read off the first stage time, and only if they vanish there
    are the inputs sampled on the whole grid to check the rest.

    Open runs step vec(X) with RK4.  Step matrices are formed _CHUNK_STEPS
    steps at a time, and a chunk whose inputs all equal the first sample's
    reuses one step matrix.  The inner loop only applies x <- P_k x; each
    chunk's stored samples are then Hermitized in one pass, which is exact
    because the step map commutes with the adjoint.  A density trace
    drifting by more than TRACE_RTOL is renormalized and flagged, as if
    checked after every step; the first NaN/Inf sample aborts with the last
    valid time in the message.
    """
    first = inputs(slice(0, 1))
    full = None
    if not np.any(first[2]):
        full = inputs(slice(None))
        if not np.any(full[2]):
            return _unitary_flow(full[0], X0, grid, kind)

    d = X0.shape[0]
    times = grid.times
    samples = np.empty((grid.n_steps, d, d), dtype=complex)
    samples[0] = X0
    flat = samples.reshape(grid.n_steps, d * d)

    def generator(H, G, g):
        L = liouvillian(H, G, g)
        return -np.conj(np.swapaxes(L, -1, -2)) if kind == "invariant" else L

    P_const = None
    max_drift = 0.0
    for lo in range(0, grid.n_steps - 1, _CHUNK_STEPS):
        hi = min(lo + _CHUNK_STEPS, grid.n_steps - 1)
        stages = slice(2 * lo, 2 * hi + 1)
        chunk = inputs(stages) if full is None else tuple(a[stages] for a in full)
        if all(np.all(a == a0) for a, a0 in zip(chunk, first)):
            if P_const is None:
                P_const = _rk4_matrices(np.repeat(generator(*first), 3, axis=0), grid.dt)
            P = np.broadcast_to(P_const, (hi - lo,) + P_const.shape[1:])
        else:
            P = _rk4_matrices(generator(*chunk), grid.dt)
        # an unstable step overflows, and a density whose trace has lost
        # every digit renormalizes by zero; the check below reports the first
        # such sample, so numpy's own warnings about them are silenced
        with np.errstate(all="ignore"):
            for k in range(lo, hi):
                np.dot(P[k - lo], flat[k], out=flat[k + 1])
            block = samples[lo + 1 : hi + 1]
            block[...] = 0.5 * (block + np.conj(np.swapaxes(block, -1, -2)))
            if kind == "density":
                max_drift = _renormalize_traces(block, max_drift)
        bad = ~np.all(np.isfinite(flat[lo + 1 : hi + 1]), axis=1)
        if np.any(bad):
            raise NumericalError(
                f"{kind} propagation produced non-finite values; "
                f"last valid time t={times[lo + int(np.argmax(bad))]:.6g}"
            )
    flags: list[str] = []
    if max_drift > 0.0:
        flags.append(f"density trace renormalized (max drift {max_drift:.3e})")
    return OperatorTrajectory(grid, samples, kind, flags)


def propagate(
    model: LindbladModel,
    X0: CMatrix,
    grid: TimeGrid,
    kind: str = "density",
) -> OperatorTrajectory:
    """Integrate the master equation (kind='density', generator L) or the
    invariant equation (kind='invariant', generator -L^dag): by the exact
    unitary Magnus flow for a closed model, else by fixed-step RK4; see
    `_integrate` for the choice and the checks on the samples."""
    if kind not in ("density", "invariant"):
        raise ValueError("propagate handles 'density' or 'invariant' trajectories")
    X = _validate_initial(X0, model.dim, kind)
    stage_times = grid.refined().times
    return _integrate(lambda stages: model.operators(stage_times[stages]), X, grid, kind)


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

    Its generator is `liouvillian` with H0 -> V^dag H0 V - A, where
    A = i V^dag dV/dt (Hermitized finite difference), and G_i -> V^dag G_i V.
    The frames must be sampled on grid.refined() (a point at every
    half-step), so the moving-basis matrices are available at the stage
    times without interpolation.
    """
    fine = frames.grid
    if fine.n_steps != 2 * grid.n_steps - 1 or fine.t0 != grid.t0 or fine.t1 != grid.t1:
        raise ValueError("frames must be sampled on grid.refined()")
    c = _validate_initial(c0, model.dim, "coefficient")
    V = frames.vectors
    Vh = np.conj(np.swapaxes(V, -1, -2))
    A = 1j * Vh @ series_derivative(V, fine.dt)
    A = 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))
    stage_times = fine.times

    def inputs(stages: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        H, G, g = model.operators(stage_times[stages])
        Vs, Vhs = V[stages], Vh[stages]
        return Vhs @ H @ Vs - A[stages], Vhs[:, None] @ G @ Vs[:, None], g

    return _integrate(inputs, c, grid, "coefficient")
