"""Writers of the ``hkit run`` artifacts ``trajectory.csv``, ``holonomy.json``
and ``report.txt``, with the byte-exact ``%.17e`` formatter of the CSV."""
from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cli import RunResult

FLOAT_FMT = "%.17e"
# values per formatted block of trajectory.csv: about 100 kB of text, so the
# block's transient arrays and strings do not raise the peak memory of a run
_WRITE_CHUNK_VALUES = 4096
# decimal exponents the vectorised formatter certifies (|x| in [1e-270,
# 1e290)): its power-of-ten table, the Dekker splits and their partial
# products all stay normal and finite there
_FMT_EXP_MIN, _FMT_EXP_MAX = -270, 289
# a scaled value whose fraction lies this close to 1/2 might be a rounding
# tie, or fall on the wrong side of it; the double-double error is < 1e-13
_FMT_TIE_MARGIN = 1e-6
_DEKKER_SPLITTER = 134217729.0  # 2**27 + 1


def _slot_word(text: str) -> int:
    """Eight bytes of a formatter slot: the ASCII of ``text`` from the lowest
    byte up, zero filled; NUL characters in ``text`` are pads."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of _format_certified, built on first use, not at import.

    Row ``_FMT_EXP_MAX - E`` for each decimal exponent E from _FMT_EXP_MAX
    down to _FMT_EXP_MIN holds ``10**(17 - E)`` as the unevaluated
    double-double sum ``hi + lo`` (both rounded once from the exact
    rational, so within about 2**-106 of the power) and the slot word
    ``e+HTU`` of the exponent.  Row ``D`` of the last table is the slot word
    ``-D.D`` of the leading two digits.
    """
    exps = range(_FMT_EXP_MAX, _FMT_EXP_MIN - 1, -1)
    hi, lo = [], []
    for e in exps:
        # Python's int / int and int -> float round correctly: write
        # 10**(17 - e) as num / den and lo as the exact remainder over den
        num, den = (10 ** (17 - e), 1) if e <= 17 else (1, 10 ** (e - 17))
        hi.append(num / den)
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    exp_words = [_slot_word("e%s%03d" % ("-" if e < 0 else "+", abs(e))) for e in exps]
    lead_words = [_slot_word("\0\0\0\0-%d.%d" % divmod(d, 10)) for d in range(100)]
    tables = (
        np.array(hi), np.array(lo),
        np.array(exp_words, dtype=np.uint64), np.array(lead_words, dtype=np.uint64),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def _dekker_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a = hi + lo`` exactly, each part with at most 26 significant bits."""
    c = _DEKKER_SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each ``v < 10**8`` as ASCII, packed into a
    uint64 whose little-endian bytes read most significant digit first.

    Lane arithmetic within one word: 4 + 4 digits in the 32-bit halves,
    then 2 + 2 in each 16-bit quarter, then 1 + 1 in each byte.  The
    multiply-shift quotients (y * 10486 >> 20 = y // 100 for y < 10**4,
    w * 103 >> 10 = w // 10 for w < 100) never carry across a lane.
    """
    u = np.uint64
    hi = v // u(10000)
    x = hi | ((v - hi * u(10000)) << u(32))
    q = ((x * u(10486)) >> u(20)) & u(0x0000007F0000007F)
    x = q | ((x - q * u(100)) << u(16))
    q = ((x * u(103)) >> u(10)) & u(0x000F000F000F000F)
    x = q | ((x - q * u(10)) << u(8))
    return x + u(0x3030303030303030)


def _scaled(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor (int64) and fraction of ``a * 10**(17 - E)``, E of table row
    ``row``, to an absolute error below 1e-13 for products in [2**53,
    2**63): in double-double, ``a * (hi + lo) = p + t`` with ``p = fl(a *
    hi)`` a whole number and ``t`` the exact rounding error of ``p``
    (Dekker's two-product; numpy has no fused multiply-add) plus ``a * lo``.
    Its own function, so that its temporaries are freed on return."""
    pow_hi, pow_lo, _, _ = _format_tables()
    h = pow_hi[row]
    p = a * h
    a_hi, a_lo = _dekker_split(a)
    h_hi, h_lo = _dekker_split(h)
    t = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    t += a * pow_lo[row]
    t_int = np.floor(t)
    return p.astype(np.int64) + t_int.astype(np.int64), t - t_int


# A value's text is built in a slot of four little-endian words:
# "____-D.D", eight digits, eight digits, "e+HTU,__" (pads "_").  Its bytes
# 4-29 are text, less a plus sign and a zero hundreds digit of the exponent.
_SLOT_TEXT = np.array([0] * 4 + [1] * 26 + [0] * 2, dtype=bool)
_SLOT_SIGN, _SLOT_EXP_HUNDREDS = 4, 26


def _format_certified(block: np.ndarray) -> bytes | None:
    """Whole rows of trajectory.csv for a 2-D float64 block, byte for byte
    ``FLOAT_FMT % x`` joined by ``,`` with a newline after each row; None
    unless every value is certified to round as ``%`` rounds it.

    Each ``|x|`` is scaled by ``10**(17 - E)``, ``E = floor(log10|x|)``, in
    double-double arithmetic (_scaled), so the 18-digit integer ``N`` that
    ``%`` prints is known to an absolute error below 1e-13.  A value is
    certified when it is exactly +-0, or when ``1e-270 <= |x| < 1e290``, its
    scaled fraction is more than _FMT_TIE_MARGIN from 1/2, and both the
    scaled value and ``N`` have 18 digits before the point (a miss of
    ``log10`` next to a power of ten gives 17 or 19).  NaN, infinities,
    subnormals and exact ties such as ``2**-26`` are left to the caller.
    """
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    if not np.all(zero | ((a >= 1e-270) & (a < 1e290))):
        return None
    a[zero] = 1.0  # formatted as E = 0, N = 0 below
    E = np.clip(np.floor(np.log10(a)).astype(np.int64), _FMT_EXP_MIN, _FMT_EXP_MAX)
    row = _FMT_EXP_MAX - E
    below, frac = _scaled(a, row)
    if np.any(np.abs(frac - 0.5) <= _FMT_TIE_MARGIN):
        return None
    # the scaled value itself, not only N, must have 18 digits: 10**17 - 0.4
    # (from a log10 miss at 10**E) rounds to 10**17, but % prints it with
    # the exponent E - 1
    N = below + (frac > 0.5)
    if np.any(~zero & ((below < 10**17) | (N >= 10**18))):
        return None
    N = N.astype(np.uint64)
    N[zero] = 0

    _, _, exp_words, lead_words = _format_tables()
    u = np.uint64
    slots = np.empty((x.size, 4), dtype="<u8")
    lead = N // u(10**16)
    rest = N - lead * u(10**16)
    slots[:, 0] = lead_words[lead]
    mid = rest // u(10**8)
    slots[:, 1:3] = _ascii8(np.stack([mid, rest - mid * u(10**8)], axis=1))
    sep = np.full(block.shape, ord(",") << 40, dtype=np.uint64)
    sep[:, -1] = ord("\n") << 40
    slots[:, 3] = exp_words[row] | sep.ravel()
    keep = np.tile(_SLOT_TEXT, (x.size, 1))
    keep[:, _SLOT_SIGN] = np.signbit(x)
    keep[:, _SLOT_EXP_HUNDREDS] = np.abs(E) >= 100
    return slots.view(np.uint8)[keep].tobytes()


def _format_rows(block: np.ndarray) -> bytes:
    """Whole rows of trajectory.csv: ``FLOAT_FMT % x`` per value, ``,``
    between values, a newline after each row.  The vectorised formatter
    takes the block when it certifies every value, ``%`` otherwise."""
    text = _format_certified(block)
    if text is None:
        row = ",".join([FLOAT_FMT] * block.shape[1]) + "\n"
        text = ((row * len(block)) % tuple(block.ravel().tolist())).encode()
    return text


def write_trajectory(path: Path, res: RunResult) -> None:
    dim = res.rho_traj.dim
    cols = ["t"]
    for i in range(dim):
        for j in range(dim):
            cols += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    cols += [f"lam_{i}" for i in range(dim)] + ["expect_I"]
    n = res.grid.n_steps
    # a complex array viewed as floats interleaves re and im, as the columns do
    rho = np.ascontiguousarray(res.rho_traj.samples).reshape(n, -1).view(np.float64)
    parts = (res.grid.times[:, None], rho, res.frames.eigenvalues, res.expectation[:, None])
    # whole rows, one chunk at a time, so neither the text nor a table of the
    # whole file is ever held at once
    rows = max(1, _WRITE_CHUNK_VALUES // len(cols))
    with path.open("wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for lo in range(0, n, rows):
            fh.write(_format_rows(np.hstack([part[lo : lo + rows] for part in parts])))


def _matrix_payload(M: np.ndarray) -> dict:
    return {
        "re": [[float(x) for x in row] for row in M.real],
        "im": [[float(x) for x in row] for row in M.imag],
    }


def _holonomy_payload(res: RunResult) -> dict:
    return {
        "case_tag": res.holo.case_tag,
        "eigenphases": [float(x) for x in res.holo.eigenphases],
        "trace_O": {"re": res.holo.trace_O.real, "im": res.holo.trace_O.imag},
        "matrices": {
            "O": _matrix_payload(res.holo.O),
            "U": _matrix_payload(res.holo.U),
            "Vpar": _matrix_payload(res.holo.Vpar),
            "R": _matrix_payload(res.holo.R),
        },
        "metadata": {
            "scenario": res.config.scenario,
            "frame_source": res.config.frame_source,
            "seed": res.config.seed,
            "n_steps": res.grid.n_steps,
            "dt": res.grid.dt,
            "connection_herm_deviation": float(res.conn.herm_deviation),
            "parallel_residual": res.residual,
            "witness_commutator_max": res.witness["commutator_max"],
            "witness_reversal_gap": res.witness["reversal_gap"],
            "invariant_expectation_drift": res.expectation_drift,
            "flags": res.flags,
            "warnings": res.warnings,
        },
    }


def write_holonomy(path: Path, res: RunResult) -> None:
    path.write_text(json.dumps(_holonomy_payload(res), indent=2, sort_keys=True) + "\n")


def write_report(path: Path, res: RunResult) -> None:
    cfg = res.config
    lines = [
        f"scenario: {cfg.scenario}",
        "params: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(cfg.params.items())),
        f"grid: t0={res.grid.t0:.6g} t1={res.grid.t1:.6g} n_steps={res.grid.n_steps} "
        f"dt={res.grid.dt:.6e}",
        f"case: {res.holo.case_tag}   frame source: {cfg.frame_source}",
        "eigenphases (rad): " + " ".join(f"{x:+.9f}" for x in res.holo.eigenphases),
        f"trace O: {res.holo.trace_O.real:+.9f} {res.holo.trace_O.imag:+.9f}j "
        f"(|trace| {abs(res.holo.trace_O):.9f})",
        f"non-Abelian witness: commutator_max={res.witness['commutator_max']:.3e} "
        f"reversal_gap={res.witness['reversal_gap']:.3e}",
        f"parallel transport residual: {res.residual:.3e}",
        f"invariant expectation drift: {res.expectation_drift:.3e}",
    ]
    gamma = cfg.params.get("gamma", 0.0)
    if cfg.scenario in ("two_level_decay", "berry_closed") and gamma == 0.0:
        lines.append(
            "note: gamma = 0 closed dynamics -- transport is Abelian "
            "(diagonal connection, path ordering immaterial)"
        )
    lines.append("warnings: " + ("; ".join(res.warnings) if res.warnings else "(none)"))
    lines.append("flags: " + ("; ".join(res.flags) if res.flags else "(none)"))
    path.write_text("\n".join(lines) + "\n")
