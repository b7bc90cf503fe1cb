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
(`_integrate`), which reads the generator inputs at the grid.refined()
times through one stage accessor, a block of steps at a time, and decides
once per run how to step them.  `propagate` samples its model once and
serves slices of it; `propagate_coefficients` forms the moving-basis
generator only for the block of steps being read, so no full-length work
stack of it is held:

* closed runs (no jump operators, or every rate zero at every stage time)
  have -L^dag = L, so all three are the unitary flow X -> U X U^dag.  It is
  stepped by 4th-order Magnus exponentials, formed with their exponentials
  (scaling and squaring of a Taylor polynomial, no eigensystem) a block of
  steps at a time, and carries the range of the start, not the propagator
  W: with X0 = E diag(lam) E^dag, one ordered product Y = W E_r of the r
  eigenvectors whose eigenvalues are not rounding, and X = (Y lam_r) Y^dag,
  so a pure density carries one column.  It calls no einsum and keeps the
  spectrum of X to rounding.  Each step's phase spread is read bound
  first: sqrt(2) |G - tr(G)/d|_F, and an eigensystem only where that bound
  reaches pi, the spread at which the run is refused as under-resolved;
* open runs are stepped by fixed-step RK4 in real coordinates: every
  operator stepped is Hermitian and L and -L^dag keep Hermiticity, so on
  the D = d^2 real coordinates of X + X^dag the generator is the real
  matrix S^-1 L S (`_real_generator`), and the flow is dh/dt = Lr(t) h;
* a generator constant over the whole run takes one step map, and its
  powers give the flow: one Magnus exponent G = V diag(lam) V^dag, whose
  k-th powers give every sample from one real angle series
  k (lam_m - lam_l) per level pair, elementwise a block of samples at a
  time, or one RK4 step matrix P, whose powers P^0 ... P^s and block
  starts h_(js) are two `ordered_product` calls (s ~ sqrt(n), short
  enough up to 16 385 steps to be stepped one `@` at a time) and whose
  samples P^i h_(js) are one `mul` per `sample_blocks` group of block
  starts, with no loop over the n steps.  A
  stack with stride 0 along time, as `LindbladModel.operators` broadcasts
  a value that holds at all times, is constant without a scan;
* a time-dependent open generator forms its step matrices a chunk (a
  `sample_blocks` block of steps) at a time, and each chunk's samples are
  one `ordered_product` of its step matrices from the chunk's first
  coordinates: a pairwise scan of a few levels over a qubit's 1024-step
  chunk, and stepwise over a 4-level model's 64-step chunk.

Every branch works stack-last (D = d^2), on (n, D, D) views of contiguous
(D, D, n) arrays, and returns its samples so: the Liouvillian is written
entry by entry, and every stacked product (Magnus commutators, RK4
stages, the moving-basis generator, ordered_product's pair products and
odd entries) is matlib's `mul`, an explicit sum over the inner index,
with no einsum and no stacked matmul.  The RK4 flows' products are
float64 (real generator, step matrices and coordinates), the others
complex.

Each branch returns samples that are Hermitian to the bit: the RK4 flows
write each sample from its real coordinates, the constant closed flow
sums Hermitian terms, and the time-dependent closed flow Hermitizes its
own (the Magnus step map commutes with the adjoint, so the anti-Hermitian
rounding never feeds the Hermitian part).  One tail ends the run at the
first non-finite sample or, if all are finite, at the first density
sample with an entry of modulus above 1 + DENSITY_ENTRY_TOL, which no
density matrix has: such a run has diverged.  A density's trace needs no
repair, since L keeps it for any H, G and g (Tr(H rho - rho H) = 0 and
Tr(2 G_i rho G_j^dag - G_j^dag G_i rho - rho G_j^dag G_i) = 0) and so do
both step maps, up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Callable

import numpy as np

from .matlib import (
    CMatrix,
    NumericalError,
    eigh,
    herm_defect,
    mul,
    ordered_product,
    sample_blocks,
    stack_last,
    unitary_exp,
)

if TYPE_CHECKING:  # pragma: no cover
    from .frames import FrameTrajectory

DENSITY_ENTRY_TOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-8
# a time-dependent closed run carries the eigenvectors of X0 whose
# eigenvalues reach d RANGE_RTOL max|lambda| in modulus: smaller ones are the
# rounding of the eigensystem, not part of the range of X0
RANGE_RTOL = np.finfo(float).eps
# stages(lo, hi) -> the `liouvillian` arguments (H, G, g) at the stage times
# of steps lo .. hi - 1, the grid.refined() samples 2 lo .. 2 hi
Stages = Callable[[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]


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
        span = float(self.t1) - float(self.t0)  # a Python float overflows silently
        if not np.isfinite(span):
            raise ValueError(f"t1 - t0 must be finite, got {span!r}")

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

    H (n, d, d), jump operators G (n, m, d, d) and rates g (n, m, m) share
    their time axis; returns L (n, d^2, d^2) as a view of a stack-last
    (d^2, d^2, n) array, so that L.transpose(1, 2, 0) is contiguous.  The
    invariant generator is -L^dag.

    L is written directly, with no matrix product over the stack: with
    C_i = 2 sum_j g_ij conj(G_j), the jump terms are the outer products
    G_i kron C_i, the dissipator D = sum_i C_i^T G_i / 2 is an explicit
    sum over the inner index, and -i H - D and (i H - D)^T enter as the
    identity-Kronecker blocks K kron 1 and 1 kron K^T.
    """
    H = np.ascontiguousarray(np.transpose(H, (1, 2, 0)), dtype=complex)
    G = np.ascontiguousarray(np.transpose(G, (1, 2, 3, 0)), dtype=complex)
    g = np.ascontiguousarray(np.transpose(g, (1, 2, 0)), dtype=float)
    m, d, n = G.shape[0], H.shape[0], H.shape[-1]
    C = [sum((2.0 * g[i, j]) * G[j].conj() for j in range(m)) for i in range(m)]
    D = np.zeros((d, d, n), dtype=complex)
    for Gi, Ci in zip(G, C):
        D += mul(Ci.transpose(2, 1, 0), Gi.transpose(2, 0, 1)).transpose(1, 2, 0)
    D *= 0.5
    # L[a, b, c, e] is the entry at row a d + b and column c d + e; it
    # starts as the jump terms G_i kron C_i, broadcast outer products
    pairs = [(Gi[:, None, :, None], Ci[None, :, None, :]) for Gi, Ci in zip(G, C)]
    L = np.multiply(*pairs[0]) if m else np.zeros((d, d, d, d, n), dtype=complex)
    for pair in pairs[1:]:
        L += np.multiply(*pair)
    K = -1j * H - D
    for b in range(d):  # K kron 1
        L[:, b, :, b] += K
    K = (1j * H - D).transpose(1, 0, 2)
    for a in range(d):  # 1 kron K, K = (i H - D)^T
        L[a, :, a, :] += K
    return L.reshape(d * d, d * d, n).transpose(2, 0, 1)


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


@lru_cache(maxsize=None)
def _coordinate_tables(d: int) -> tuple:
    """Index tables of the real coordinates of d x d Hermitian matrices on
    the positions p = a d + b of the row-major vec(X) (see
    `_real_generator`): the upper positions a d + b (a <= b); for each p,
    the place in that list of the upper position it reads (p itself, or
    b d + a for p = a d + b with a > b) and whether y[p] is an imaginary
    part; -w_q / w_p, with the weights w of Tr(A B) = sum_p w_p y_A[p] y_B[p]
    (1 on the diagonal, 2 off it); and the position pairs (a d + b, b d + a)
    with a < b.  The arrays are read-only."""
    D = d * d
    a, b = np.divmod(np.arange(D), d)
    upper = np.flatnonzero(a <= b)
    place = np.searchsorted(upper, np.minimum(a, b) * d + np.maximum(a, b))
    w = np.where(a == b, 1.0, 2.0)
    tables = (upper, place, (a > b).astype(np.intp), (-w[None, :] / w[:, None])[..., None])
    for t in tables:
        t.setflags(write=False)
    return tables + (tuple((p, q) for p, q in zip(a * d + b, b * d + a) if p < q),)


def _real_generator(L: np.ndarray, adjoint: bool) -> np.ndarray:
    """The real generator Lr = S^-1 L S (or of -L^dag with adjoint) on the
    real coordinates y of a Hermitian X, vec(X) = S y: y[a d + b] = Re X_ab
    for a <= b and y[b d + a] = Im X_ab for a < b.

    L maps Hermitian X to Hermitian X, so Lr is real, and the coordinates
    of L(X) are read from its entries a d + b (a <= b) alone: with
    T = L S, whose column a d + b (a < b) is the sum of L's columns a d + b
    and b d + a and whose column b d + a is i times their difference, row
    p of Lr is Re T[u] where y[p] = Re X_ab and Im T[u] where y[p] = Im X_ab,
    u = a d + b.  So only the rows u of L's stack-last memory are copied,
    T is formed on them as sums of column slabs, and one gather of real
    and imaginary parts gives Lr.  -L^dag is the adjoint for
    Tr(A B) = y_A^T W y_B, so its generator is -W^-1 Lr^T W, a transpose
    scaled by powers of two.  Returns Lr (n, D, D), stack-last and float64;
    L is not written.
    """
    n, D = L.shape[0], L.shape[-1]
    d = int(np.sqrt(D))
    upper, place, imag, weights, pairs = _coordinate_tables(d)
    T = np.moveaxis(L, 0, -1)[upper]  # (len(upper), D, n), contiguous
    for p, q in pairs:
        u, l = T[:, p], T[:, q]
        diff = u - l
        u += l
        np.multiply(diff, 1j, out=l)
    Lr = T.view(float).reshape(T.shape + (2,))[place, :, :, imag]
    if adjoint:
        Lr = np.multiply(Lr.swapaxes(0, 1), weights, out=np.empty_like(Lr))
    return Lr.transpose(2, 0, 1)


def _real_coordinates(X: CMatrix) -> np.ndarray:
    """The real coordinates (D,) of X + X^dag = 2 X for a Hermitian matrix X:
    twice its y (see `_real_generator`)."""
    upper = np.triu(np.ones(X.shape, dtype=bool))
    return 2.0 * np.where(upper, X.real, X.imag.T).reshape(-1)


def _write_hermitian(h: np.ndarray, x: np.ndarray) -> None:
    """Write into x, the (d, d, m) memory of m complex samples, the
    Hermitian matrices X whose X + X^dag has the real coordinates in the
    columns of h (D, m): X_ab and X_ba = conj(X_ab) halve the same two
    coordinates, and the diagonal has imaginary part 0, so each sample is
    Hermitian to the bit.  Entry by entry, with no work array."""
    d = x.shape[0]
    re, im = x.real, x.imag
    for a in range(d):
        np.multiply(h[a * d + a], 0.5, out=re[a, a])
        im[a, a] = 0.0
        for b in range(a + 1, d):
            np.multiply(h[a * d + b], 0.5, out=re[a, b])
            re[b, a] = re[a, b]
            np.multiply(h[b * d + a], 0.5, out=im[a, b])
            np.negative(im[a, b], out=im[b, a])


def _rk4_matrices(L: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step matrices P_k = 1 + dt/6 (K1 + 2 K2 + 2 K3 + K4) for
    dx/dt = L(t) x, from generators L (2n + 1, D, D) at the 2n + 1 stage
    times of n steps.

    The work is stack-last, as `liouvillian` and `_real_generator` return
    L, and in L's dtype (float64 for the open flows' real generators): each
    stage product is `mul`, and P is stack-last.  The sum K1 + 2 K2 + 2 K3 + K4 is
    gathered as the stages are formed, in that order, so four work arrays
    of P's size are held.
    """
    n, D = L.shape[0] // 2, L.shape[-1]
    X, K, tmp = (stack_last((n, D, D), dtype=L.dtype) for _ in range(3))

    def stage(Ls: np.ndarray, Kprev: np.ndarray, h: float) -> None:
        # K = Ls (1 + h Kprev); the diagonal of X is every (D + 1)-th row
        # of its (D^2, n) memory
        np.multiply(h, Kprev, out=X)
        np.moveaxis(X, 0, -1).reshape(D * D, n)[:: D + 1] += 1.0
        mul(Ls, X, K, tmp)

    K1, Lm = L[:-1:2], L[1::2]
    stage(Lm, K1, 0.5 * dt)  # K2
    P = 2.0 * K
    P += K1
    stage(Lm, K, 0.5 * dt)  # K3
    P += np.multiply(2.0, K, out=tmp)
    stage(L[2::2], K, dt)  # K4
    P += K
    P *= dt / 6.0
    np.moveaxis(P, 0, -1).reshape(D * D, n)[:: D + 1] += 1.0
    return P


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
    C = mul(H0, H1)
    return -(dt / 6.0) * (H0 + 4.0 * Hm + H1) - 1j * (dt * dt / 12.0) * (
        C - np.conj(np.swapaxes(C, -1, -2))
    )


def _phase_spreads(G: np.ndarray) -> np.ndarray:
    """Phase spreads lambda_max - lambda_min of a stack of Hermitian G_k,
    read bound first: exact wherever they reach pi, an upper bound below it.

    The bound is sqrt(2) |G - tr(G)/d 1|_F.  With mu_i the eigenvalues less
    their mean, (mu_max - mu_min)^2 <= 2 (mu_max^2 + mu_min^2) <= 2 sum mu_i^2,
    so it is never below the spread, and it equals the spread when the two
    extreme mu are opposite and the others vanish: on every 2x2 matrix and on
    the tripod's {+-Omega, 0, 0} spectra.  Only the matrices whose bound
    reaches pi take an eigensystem, which replaces the bound by the spread.
    """
    d = G.shape[-1]
    sq = G.real**2 + G.imag**2
    diag = np.diagonal(G, axis1=-2, axis2=-1).real
    mean = diag.mean(axis=-1)
    for i in range(d):  # the diagonal of G - tr(G)/d 1, without cancellation
        sq[..., i, i] = (diag[..., i] - mean) ** 2
    spread = np.sqrt(2.0 * np.sum(sq, axis=(-2, -1)))
    over = spread >= np.pi
    if np.any(over):
        lam = eigh(G[over])[0]
        spread[over] = lam[:, -1] - lam[:, 0]
    return spread


def _unitary_flow(
    stages: Stages, X0: CMatrix, grid: TimeGrid, kind: str, constant: bool
) -> np.ndarray:
    """Raw samples X_k = W_k X0 W_k^dag of a closed run, where W = [1, U_0,
    U_1 U_0, ...] is the ordered product of the Magnus steps U_k = exp(i G_k)
    from H at the grid.refined() times, read a block of steps at a time
    from `stages`; stack-last.

    Constant H takes one exponent G = V diag(lam) V^dag, and W_k = exp(i k G)
    is its k-th power, whose rounding does not grow with k as a running
    product's does.  With Y = V^dag X0 V and B_ml = V_m Y_ml V_l^dag,

        X_k = A + sum_(m<l) (B_ml z_ml,k + h.c.),   A = sum_m B_mm,
        z_ml,k = cos(k D_ml) + i sin(k D_ml),  D_ml = lam_m - lam_l,

    formed a sample block at a time (`sample_blocks`) from one real angle
    series k D_ml per level pair, elementwise, so every sample is the same
    whatever the block width.  A, B + B^dag and i (B - B^dag) are Hermitian
    to the bit, and so is every sample.

    Time-dependent H forms its exponents and their exponentials
    (`unitary_exp`, no eigensystem) a block of steps at a time, and carries
    the range of X0 instead of W: with X0 = E diag(lam) E^dag, the columns
    whose |lam| is below d RANGE_RTOL max|lam| (rounding of the
    eigensystem, not part of the range) are dropped, Y = W E_r is one
    `ordered_product` from the (d, r) start E_r, and X_k = (Y_k lam_r) Y_k^dag,
    whose rounding is not Hermitian: it is Hermitized a block of samples
    at a time.  A pure density carries one column and a full-rank start d.

    Each step is unitary to rounding, so the spectrum of X is kept and a
    degenerate invariant stays degenerate.  A non-finite step exponent
    aborts the run with the failure the tail gives the sample it would
    spoil.  Otherwise a step whose phase spread lambda_max(G_k) -
    lambda_min(G_k) reaches pi, where the grid aliases the fastest coherence
    and the step leaves the Magnus convergence region, aborts it at the
    first such step; the spreads are read bound first (`_phase_spreads`), so
    only a step that may fail takes an eigensystem, and the reported spread
    is exact.  No exponential is formed past that step.
    """
    n, d, dt = grid.n_steps, X0.shape[0], grid.dt
    coarse = None  # the first under-resolved step and its spread

    def exponents(lo: int, hi: int) -> np.ndarray:
        # G_k of the steps lo .. hi - 1, from the Hermitian part of H
        h = stages(lo, hi)[0]
        G = _magnus_exponents(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))), dt)
        bad = ~np.all(np.isfinite(G), axis=(-2, -1))
        if np.any(bad):
            raise _non_finite(kind, grid, lo + int(np.argmax(bad)))
        return G

    if constant:
        lam, V = eigh(exponents(0, 1)[0])
        if lam[-1] - lam[0] >= np.pi:
            coarse = (0, lam[-1] - lam[0])
    else:
        U = stack_last((n - 1, d, d))
        for b in sample_blocks(n - 1, X0.size):
            G = exponents(b.start, b.stop)
            if coarse is None:
                spread = _phase_spreads(G)
                over = spread >= np.pi
                if np.any(over):
                    k = int(np.argmax(over))
                    coarse = (b.start + k, spread[k])
                else:
                    U[b] = unitary_exp(G)
    if coarse is not None:
        k, spread = coarse
        raise NumericalError(
            f"{kind} propagation under-resolved: step phase spread {spread:.4g} "
            f">= pi at t={grid.times[k]:.6g}; refine the grid"
        )
    if not constant:
        lam, E = eigh(X0)
        keep = np.abs(lam) >= d * RANGE_RTOL * np.max(np.abs(lam))
        lam, Y = lam[keep], ordered_product(U, E[:, keep])
        del U
        X = stack_last((n, d, d))
        for b in sample_blocks(n, X0.size):
            y, x = Y[b], X[b]
            mul(y * lam, y.conj().swapaxes(1, 2), x)
            x += np.conj(np.swapaxes(x, -1, -2))
            x *= 0.5
        return X
    Y = V.conj().T @ X0 @ V
    A = (V * Y.diagonal().real) @ V.conj().T
    A = 0.5 * (A + A.conj().T)
    pairs = []
    for m, l in zip(*np.triu_indices(d, 1)):
        B = Y[m, l] * np.outer(V[:, m], V[:, l].conj())
        pairs.append((lam[m] - lam[l], B + B.conj().T, 1j * (B - B.conj().T)))
    X = stack_last((n, d, d))
    x = np.moveaxis(X, 0, -1)  # its contiguous (d, d, n) memory
    for b in sample_blocks(n, X0.size):
        k = np.arange(b.start, b.stop, dtype=float)
        xb = x[..., b]
        xb[...] = A[..., None]
        for delta, P, Q in pairs:
            angle = k * delta
            xb += P[..., None] * np.cos(angle)
            xb += Q[..., None] * np.sin(angle)
    return X


def _rk4_flow(
    stages: Stages, X0: CMatrix, grid: TimeGrid, kind: str, constant: bool
) -> np.ndarray:
    """Samples of an open run: X stepped by RK4 in real coordinates, with
    the step matrices of the real generator (`_real_generator`) of L, or
    of -L^dag for an invariant, from the generator inputs that `stages`
    gives at the grid.refined() times.

    Every operator stepped is Hermitian, so the flow carries the D real
    coordinates h of X + X^dag = 2 X instead of the D complex entries of
    vec(X): the generator, step matrices, their products and the samples'
    coordinates are float64.  Stepping 2 X rather than X is exact (a power
    of two) and makes a diverging run overflow at the sample whose
    Hermitian part X + X^dag overflows in complex stepping, the stepwise
    loop's.  Each sample is written from its coordinates into the complex
    stack-last result, Hermitian to the bit (`_write_hermitian`).

    A constant generator takes one step matrix P, and the samples are its
    powers applied to h0 in blocks of s = ceil(sqrt(n - 1)) steps: one
    ordered product of s factors P gives P^0 ... P^s, and one of factors
    P^s from h0 gives the block starts h_(js).  The samples
    h_(js+i) = P^i h_(js) are then one `mul` per `sample_blocks` group of
    block starts, written into the samples group by group; each entry is
    the sum the whole product forms, so the grouping leaves every sample
    unchanged.

    Otherwise the step matrices are formed a chunk at a time, one
    `sample_blocks` block of steps of D^2 entries each, at most
    _BLOCK_ENTRIES matrix entries (1024 steps of a qubit, 64 of a 4-level
    model), from that chunk's stage range alone, and each chunk's samples
    are the ordered product of its step matrices from the chunk's first
    h.  `ordered_product` steps a chunk of up to 128 steps (every chunk of
    a 4-level model) one `@` at a time, in the stepwise order; a qubit's
    1024-step chunk is formed by pairs, which round differently.  The
    test_unstable_* tests check that seeded runs of either branch,
    overflowing at any point of a chunk or block, stop at the stepwise
    loop's last valid time.
    """
    n, d = grid.n_steps, X0.shape[0]
    D = d * d
    X = stack_last((n, d, d))
    x = np.moveaxis(X, 0, -1)  # its contiguous (d, d, n) memory

    def step_matrices(lo: int, hi: int) -> np.ndarray:
        L = _real_generator(liouvillian(*stages(lo, hi)), kind == "invariant")
        return _rk4_matrices(L, grid.dt)

    h = _real_coordinates(X0).reshape(D, 1)
    if constant:
        s = int(np.ceil(np.sqrt(n - 1)))  # block length
        # P^0 ... P^s for the one step matrix P
        powers = ordered_product(np.broadcast_to(step_matrices(0, 1), (s, D, D)))
        # h_(js) for every block start j, carried by P^s
        starts = ordered_product(np.broadcast_to(powers[-1], (-(-n // s) - 1, D, D)), h)
        for b in sample_blocks(len(starts), s * D):
            # entry [j, i] is h_(js+i) in sample order; the last block runs
            # past the grid, and its surplus samples are left out
            hs = mul(powers[None, :-1], starts[b, None])
            seg = x[..., b.start * s : b.stop * s]
            hs = np.moveaxis(hs, (-2, -1), (0, 1)).reshape(D, -1)
            _write_hermitian(hs[:, : seg.shape[-1]], seg)
        return X

    _write_hermitian(h, x[..., :1])
    for b in sample_blocks(n - 1, D * D):
        lo, hi = b.start, b.stop
        hs = ordered_product(step_matrices(lo, hi), h)
        _write_hermitian(np.moveaxis(hs[1:], 0, -1).reshape(D, -1), x[..., lo + 1 : hi + 1])
        h = hs[-1]
    return X


def _is_constant(stages: Stages, closed: bool, grid: TimeGrid, size: int) -> bool:
    """Whether the generator inputs (H alone when closed, else H, G and g)
    equal their first stage sample at every grid.refined() time, compared
    sample by sample.  They are read from `stages` in the flow's blocks of
    steps (`sample_blocks` of `size` entries a step), up to the first block
    that differs, so a generator that moves is found in the first block,
    the one the flow reads first.  A stack whose stride along time is 0, as
    `LindbladModel.operators` returns a time-independent value, is
    constant without a scan.
    """
    k = 1 if closed else 3
    blocks = (stages(b.start, b.stop)[:k] for b in sample_blocks(grid.n_steps - 1, size))
    head = next(blocks)
    first = [a[0] for a in head]
    return all(
        a.strides[0] == 0 or np.all(a == a0)
        for arrays in chain([head], blocks)
        for a, a0 in zip(arrays, first)
    )


def _integrate(
    stages: Stages, closed: bool, X0: CMatrix, grid: TimeGrid, kind: str
) -> OperatorTrajectory:
    """Propagate X on `grid` from the `liouvillian` arguments (H, G, g) at
    the grid.refined() times.  The generator is L, or -L^dag for an
    invariant.

    stages(lo, hi) returns (H, G, g) at the stage times of steps lo .. hi - 1,
    the refined samples 2 lo .. 2 hi, and the flows call it one block of
    steps at a time, so a caller that forms its inputs, as
    `propagate_coefficients` does, forms them a block at a time;
    `propagate` serves slices of the model it samples once.

    Two choices are made once, for the whole run.  A run is closed when its
    caller finds the coupling rates zero at every stage time: there
    -L^dag = L, and all kinds take the unitary Magnus flow `_unitary_flow`;
    other runs take RK4 (`_rk4_flow`).  A generator constant over the whole
    run (H alone when closed, else H, G and g; `_is_constant`) takes one
    step map.

    Each flow returns samples that are Hermitian to the bit (see the
    module docstring), and they pass one tail, a block of samples at a
    time (`sample_blocks`), that checks them.  The first
    NaN/Inf sample aborts with the last valid time in the message.  If all
    are finite, the first density sample with an entry of modulus above
    1 + DENSITY_ENTRY_TOL aborts the run as diverged: no density matrix has
    one (|rho_ij|^2 <= rho_ii rho_jj <= 1), and a diverging run, typically
    RK4 stepped outside its stability region, has one long before its
    trace moves.  The trace needs no repair: L keeps it for any H, G and g,
    and both step maps inherit that up to rounding.
    """
    # an unstable step overflows and a non-finite generator spreads through
    # the flow; the checks below report the first such sample, so numpy's
    # own warnings about them are silenced
    with np.errstate(all="ignore"):
        # in the blocks of steps that the flow reads
        constant = _is_constant(stages, closed, grid, X0.size if closed else X0.size**2)
        if closed:
            X = _unitary_flow(stages, X0, grid, kind, constant)
        else:
            X = _rk4_flow(stages, X0, grid, kind, constant)
        bad, entry = [], []
        for b in sample_blocks(grid.n_steps, X0.size):
            x = X[b]
            bad.append(~np.all(np.isfinite(x), axis=(1, 2)))
            entry.append(np.max(np.abs(x), axis=(1, 2)) if kind == "density" else np.zeros(len(x)))
        bad, entry = (np.concatenate(v)[1:] for v in (bad, entry))
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
    sampled once at the grid.refined() times: by the unitary Magnus flow
    for a closed model, else by fixed-step RK4; see `_integrate` for
    the choice and the checks on the samples."""
    if kind not in ("density", "invariant"):
        raise ValueError("propagate handles 'density' or 'invariant' trajectories")
    X = _validate_initial(X0, model.dim, kind)
    H, G, g = model.operators(grid.refined().times)
    return _integrate(_sampled(H, G, g), not np.any(g), X, grid, kind)


def _sampled(H: np.ndarray, G: np.ndarray, g: np.ndarray) -> Stages:
    """The stage accessor of (H, G, g) sampled at every grid.refined() time:
    views of the steps' stage ranges."""
    return lambda lo, hi: tuple(a[2 * lo : 2 * hi + 1] for a in (H, G, g))


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
    I, rho = I_traj.samples, rho_traj.samples
    vals = sum(I[:, i, j] * rho[:, j, i] for i, j in np.ndindex(I.shape[1:]))
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
    the frames' connection i V^dag dV/dt, and G_i -> V^dag G_i V.  The
    frames must be sampled on grid.refined() (a point at every half-step),
    so the moving-basis matrices are available at the stage times without
    interpolation.  The model is sampled once; the stepper asks for the
    generator a block of steps at a time, and only that block's stage
    samples of V^dag H0 V - A and V^dag G_i V are formed, with A from
    `frames.connection_block`, which reads the frames' halo around them.
    Every sample equals the whole-series form bit for bit, and the
    constant-generator choice scans the formed samples as it would scan
    the whole series.
    """
    from .frames import connection_block  # frames imports this module

    fine = frames.grid
    if fine.n_steps != 2 * grid.n_steps - 1 or fine.t0 != grid.t0 or fine.t1 != grid.t1:
        raise ValueError("frames must be sampled on grid.refined()")
    c = _validate_initial(c0, model.dim, "coefficient")
    H, G, g = model.operators(fine.times)
    V = frames.vectors

    # the constancy scan and then the flow read the first block; neither
    # writes to it
    @lru_cache(maxsize=1)
    def stages(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = slice(2 * lo, 2 * hi + 1)
        v = V[s]
        vh, VhX, tmp = v.conj().swapaxes(1, 2), stack_last(v.shape), stack_last(v.shape)

        def sandwich(X: np.ndarray, out=None) -> np.ndarray:
            return mul(mul(vh, X, VhX, tmp), v, out, tmp)

        HV = sandwich(H[s])
        HV -= connection_block(V, s.start, s.stop, fine.dt, Vh=vh)
        # G_i -> V^dag G_i V, laid out as liouvillian reads the jump operators
        GV = np.empty((G.shape[1],) + VhX.shape[1:] + VhX.shape[:1], dtype=complex)
        for i, out in enumerate(GV):
            sandwich(G[s, i], np.moveaxis(out, -1, 0))
        return HV, np.moveaxis(GV, -1, 0), g[s]

    return _integrate(stages, not np.any(g), c, grid, "coefficient")
