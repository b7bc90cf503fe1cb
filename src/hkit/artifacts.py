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
# report.txt prints a witness value below this floor as "<1e-12": there it is
# rounding noise (an Abelian run's gap is asserted below it), and printing its
# digits would make every rounding change rewrite the report
WITNESS_FLOOR = 1e-12
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


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of _format_certified, built on first use, not at import.

    The first three have one row per decimal exponent E, row
    ``_FMT_EXP_MAX - E`` for E from _FMT_EXP_MAX down to _FMT_EXP_MIN:

    * ``10**(17 - E)`` as the unevaluated double-double sum ``hi + lo``
      (both rounded once from the exact rational, so within about 2**-106
      of the power) and the Dekker split of ``hi``, as the columns
      ``hi, hi_hi, hi_lo, lo``;
    * the ASCII of ``e+TU``: the exponent's sign, tens and units;
    * the ASCII of ``e+HTU``, with a NUL for a hundreds digit of 0.

    Entry ``D + 100 s`` of the lead table is a NUL (s = 0) or ``-`` (s = 1)
    and then ``D.D`` of the leading two digits; entry ``k`` of the digit
    table is ``k`` as four ASCII digits.
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
    hi = np.array(hi)
    powers = np.stack([hi, *_dekker_split(hi), np.array(lo)], axis=1)

    def words(texts, dtype):
        return np.frombuffer(b"".join(t.encode() for t in texts), dtype=dtype)

    signs = ["e-" if e < 0 else "e+" for e in exps]
    exp_words = words([f"{c}{abs(e) % 100:02d}" for c, e in zip(signs, exps)], "<u4")
    hundreds = ["%d" % (abs(e) // 100) if abs(e) >= 100 else "\0" for e in exps]
    exp_fields = words(
        [f"{c}{h}{abs(e) % 100:02d}" for c, h, e in zip(signs, hundreds, exps)], "V5"
    )
    lead_words = words([f"{s}{d // 10}.{d % 10}" for s in "\0-" for d in range(100)], "<u4")
    digit_words = words([f"{k:04d}" for k in range(10**4)], "<u4")
    tables = (powers, exp_words, exp_fields, lead_words, digit_words)
    for t in tables:
        t.flags.writeable = False
    return tables


def _dekker_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a = hi + lo`` exactly, each part with at most 26 significant bits."""
    c = _DEKKER_SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor (int64) and fraction of ``a * 10**(17 - E)``, E of table row
    ``row``, to an absolute error below 1e-13 for products in [2**53,
    2**63): in double-double, ``a * (hi + lo) = p + t`` with ``p = fl(a *
    hi)`` a whole number and ``t`` the exact rounding error of ``p``
    (Dekker's two-product; numpy has no fused multiply-add) plus ``a * lo``.
    Its own function, so that its temporaries are freed on return."""
    h, h_hi, h_lo, lo = _format_tables()[0].take(row, axis=0).T
    p = a * h
    a_hi, a_lo = _dekker_split(a)
    t = a_hi * h_hi
    t -= p
    t += a_hi * h_lo
    t += a_lo * h_hi
    t += a_lo * h_lo
    lo *= a
    t += lo
    t_int = np.floor(t)
    t -= t_int
    below = p.astype(np.int64)
    below += t_int.astype(np.int64)
    return below, t


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

    Each value's text is assembled in a slot of 25 bytes, or of 26 when the
    block holds a three-digit exponent: the sign or a NUL, ``D.D``, four
    groups of four digits read from the digit table, ``e+TU`` (``e+HTU`` in
    a 26-byte slot, a NUL for a hundreds digit of 0) and the separator.
    Each field is written through an unaligned strided view of one byte
    buffer, and one ``bytes.replace`` squeezes the NUL pads out.
    """
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0  # scaled as E = 0, N = 10**17, and printed with lead 0 below
    if not (a.min() >= 1e-270 and a.max() < 1e290):  # False for NaN too
        return None
    E = np.floor(np.log10(a))
    np.clip(E, _FMT_EXP_MIN, _FMT_EXP_MAX, out=E)
    row = (_FMT_EXP_MAX - E).astype(np.intp)
    below, frac = _scaled(a, row)
    frac -= 0.5
    if np.abs(frac).min() <= _FMT_TIE_MARGIN:
        return None
    # the scaled value itself, not only N, must have 18 digits: 10**17 - 0.4
    # (from a log10 miss at 10**E) rounds to 10**17, but % prints it with
    # the exponent E - 1
    N = below + (frac > 0.0)
    if below.min() < 10**17 or N.max() >= 10**18:
        return None

    _, exp_words, exp_fields, lead_words, digit_words = _format_tables()
    n, width = x.size, 26 if E.max() >= 100 or E.min() <= -100 else 25
    buf = bytearray(n * width)

    def field(offset: int, dtype: str, shape=(n,), strides=(width,)) -> np.ndarray:
        return np.ndarray(shape, dtype, buffer=buf, offset=offset, strides=strides)

    # N = lead 10**16 + mid 10**8 + low: 2 + 8 + 8 digits, and mid and low
    # two groups of four each
    top = N // 10**8
    lead = top // 10**8
    mid = top - lead * 10**8
    lead += 100 * np.signbit(x) - 10 * zero  # a zero's N is 10**17
    field(0, "<u4")[:] = lead_words.take(lead)
    for offset, eight in ((4, mid), (12, N - top * 10**8)):
        upper = eight // 10**4
        field(offset, "<u4")[:] = digit_words.take(upper)
        field(offset + 4, "<u4")[:] = digit_words.take(eight - upper * 10**4)
    if width == 25:
        field(20, "<u4")[:] = exp_words.take(row)
    else:
        field(20, "V5")[:] = exp_fields.take(row)
    sep = field(width - 1, "u1", block.shape, (width * block.shape[1], width))
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    return bytes(buf).replace(b"\0", b"")


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
    cols = ["t"] + [f"{part}_rho_{i}{j}" for i, j in np.ndindex(dim, dim) for part in ("re", "im")]
    cols += [f"lam_{i}" for i in range(dim)] + ["expect_I"]
    parts = (res.grid.times[:, None], res.rho_traj.samples, res.frames.eigenvalues,
             res.expectation[:, None])
    # whole rows, one chunk at a time, so neither the text nor a table of the
    # whole file (nor a row-major copy of the stack-last density) is ever held
    # at once
    rows = max(1, _WRITE_CHUNK_VALUES // len(cols))
    with path.open("wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for lo in range(0, res.grid.n_steps, rows):
            # a row-major complex chunk viewed as floats interleaves re and im,
            # as the columns do
            block = [np.ascontiguousarray(part[lo : lo + rows]).view(np.float64) for part in parts]
            fh.write(_format_rows(np.hstack([b.reshape(len(b), -1) for b in block])))


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


def _witness(x: float) -> str:
    """A witness value for report.txt: .3e, or "<1e-12" below WITNESS_FLOOR."""
    return f"<{WITNESS_FLOOR:.0e}" if x < WITNESS_FLOOR else f"{x:.3e}"


def _fixed(x: float) -> str:
    """x as +.9f for report.txt; a value that rounds to zero prints as
    +0.000000000 whatever the sign of the rounding noise behind it."""
    text = f"{x:+.9f}"
    return "+0.000000000" if float(text) == 0.0 else text


def write_report(path: Path, res: RunResult) -> None:
    cfg = res.config
    lines = [
        f"scenario: {cfg.scenario}",
        "params: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(cfg.params.items())),
        f"grid: t0={res.grid.t0:.6g} t1={res.grid.t1:.6g} n_steps={res.grid.n_steps} "
        f"dt={res.grid.dt:.6e}",
        f"case: {res.holo.case_tag}   frame source: {cfg.frame_source}",
        "eigenphases (rad): " + " ".join(_fixed(x) for x in res.holo.eigenphases),
        f"trace O: {_fixed(res.holo.trace_O.real)} {_fixed(res.holo.trace_O.imag)}j "
        f"(|trace| {abs(res.holo.trace_O):.9f})",
        f"non-Abelian witness: commutator_max={_witness(res.witness['commutator_max'])} "
        f"reversal_gap={_witness(res.witness['reversal_gap'])}",
        f"parallel transport residual: {res.residual:.3e}",
        f"invariant expectation drift: {res.expectation_drift:.3e}",
    ]
    # nt_nd is the only case whose transport is diagonal, and it runs only
    # on the two-level scenarios (the tripod's spectrum is degenerate)
    if res.holo.case_tag == "nt_nd" and cfg.params.get("gamma", 0.0) == 0.0:
        lines.append(
            "note: gamma = 0 closed dynamics -- transport is Abelian "
            "(diagonal connection, path ordering immaterial)"
        )
    lines.append("warnings: " + ("; ".join(res.warnings) if res.warnings else "(none)"))
    lines.append("flags: " + ("; ".join(res.flags) if res.flags else "(none)"))
    path.write_text("\n".join(lines) + "\n")
