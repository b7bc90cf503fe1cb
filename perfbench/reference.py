"""Fixed reference kernel that the benchmark times between ops.

The speed of a shared host changes by tens of percent, within seconds and
over minutes, and all four workloads change with it.  ``run.py`` therefore
reports op time relative to this kernel, in two stages.  ``probe``, a few
steps of the kernel's loop, is timed every 25 ms while an op or the kernel
runs, which cancels the host's speed at each moment; ``run`` is timed before
the first op and after each op, which cancels the difference between how the
probe and a whole op respond to the host.

The kernel does not use hkit, so a change to hkit cannot move it.  It mixes
the same kinds of work as an op, at a fixed size: a Python-level RK4 loop over
a 2x2 Lindblad right-hand side through closures, re-Hermitization, a
finiteness check and trace renormalization per step, stored samples, one
batched ``eigh``, a per-sample phase-gauge loop, and the samples formatted as
text and written to a file.  Keep it unchanged between two commits that are
compared.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

STEPS = 4000  # about 0.6 s on a 2-vCPU Xeon VM
SMOKE_STEPS = 200
PROBE_STEPS = 5
DT = 1e-3

_H = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -1.0]])
_L = np.array([[0.0, 0.05], [0.0, 0.0]], dtype=complex)
_LD = _L.conj().T
_X0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)


def _rhs(t: float, X: np.ndarray) -> np.ndarray:
    H = _H * np.cos(0.1 * t)
    return -1j * (H @ X - X @ H) + _L @ X @ _LD - 0.5 * (_LD @ _L @ X + X @ _LD @ _L)


def _rk4(f, t: float, dt: float, X: np.ndarray) -> np.ndarray:
    k1 = f(t, X)
    k2 = f(t + 0.5 * dt, X + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, X + 0.5 * dt * k2)
    k4 = f(t + dt, X + dt * k3)
    return X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def probe() -> None:
    """A few steps of the kernel's loop: the host-speed probe of ``run.py``."""
    X = _X0
    for k in range(PROBE_STEPS):
        X = _rk4(_rhs, k * DT, DT, X)
        X = 0.5 * (X + X.conj().T)


def run(path: Path, steps: int = STEPS) -> float:
    """Run the kernel once, writing its samples to ``path``; returns a checksum."""
    X = _X0
    samples = np.empty((steps, 2, 2), dtype=complex)
    samples[0] = X
    for k in range(steps - 1):
        X = _rk4(lambda t, Y: _rhs(t, Y), k * DT, DT, X)
        X = 0.5 * (X + X.conj().T)
        if not np.all(np.isfinite(X)):
            raise FloatingPointError(f"reference kernel diverged at step {k}")
        X = X / np.trace(X).real
        samples[k + 1] = X
    _, vectors = np.linalg.eigh(samples)
    for k in range(1, steps):
        overlap = np.diag(vectors[k - 1].conj().T @ vectors[k])
        vectors[k] = vectors[k] * (overlap.conj() / np.abs(overlap))[None, :]
    lines = [" ".join(f"{z.real:.12e} {z.imag:.12e}" for z in s.ravel()) for s in samples]
    path.write_text("\n".join(lines) + "\n")
    return float(np.abs(vectors[-1]).sum())
