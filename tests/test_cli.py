"""End-to-end tests of the command-line interface: config handling, exit
codes, artifact formats, and the sweep/verify protocols."""
from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkit
from hkit import artifacts, checks, cli, holonomy, matlib, models
from hkit.checks import CheckResult
from hkit.cli import ConfigError, ScenarioConfig
from hkit.matlib import NumericalError


def _write_config(tmp_path, name="config.json", **overrides):
    raw = {"scenario": "berry_closed", "params": {"theta0": np.pi / 3}}
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def _grid(n, t1=2 * np.pi):
    return {"t0": 0.0, "t1": t1, "n_steps": n}


def _read_sweep(out_dir):
    lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown scenario"):
        ScenarioConfig.from_dict({"scenario": "kitaev_chain"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ScenarioConfig.from_dict({"scenario": "berry_closed", "colour": 1})
    with pytest.raises(ConfigError, match="invalid grid"):
        ScenarioConfig.from_dict({"scenario": "berry_closed", "grid": {"t0": 0.0}})
    with pytest.raises(ConfigError, match="frame_source"):
        ScenarioConfig.from_dict({"scenario": "berry_closed", "frame_source": "magic"})
    with pytest.raises(ConfigError, match="case_tag"):
        ScenarioConfig.from_dict({"scenario": "berry_closed", "case_tag": "x"})
    with pytest.raises(ConfigError, match="artifact"):
        ScenarioConfig.from_dict({"scenario": "berry_closed", "outputs": ["plot"]})


def test_scenario_param_errors_exit_with_config_code(tmp_path, capsys):
    bad = _write_config(tmp_path, params={"theta0": -1.0})
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "theta0" in capsys.readouterr().err

    decaying_berry = _write_config(tmp_path, "g.json", params={"gamma": 0.1})
    assert cli.main(["run", "--config", str(decaying_berry), "--out", str(tmp_path / "o")]) == 2
    assert "gamma = 0" in capsys.readouterr().err

    stray = _write_config(tmp_path, "s.json", params={"tempo": 2.0})
    assert cli.main(["run", "--config", str(stray), "--out", str(tmp_path / "o")]) == 2
    assert "tempo" in capsys.readouterr().err


def test_unreadable_or_malformed_config_exits_with_config_code(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nope.json"
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{scenario:")
    assert cli.main(["run", "--config", str(garbled), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    def exits_with_one_line(path, needle):
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert needle in err

    malformed = [
        ({"seed": "abc"}, "invalid seed"),
        ({"params": {"theta0": "x"}}, "invalid params"),
        ({"params": 0}, "invalid params: expected an object, got 0"),
        ({"params": False}, "invalid params: expected an object, got False"),
        ({"params": ""}, "invalid params: expected an object, got ''"),
        ({"params": []}, "invalid params: expected an object, got []"),
        ({"grid": [0, 6.28, 200]}, "invalid grid"),
        ({"seed": 1.7}, "invalid seed"),
        ({"seed": True}, "invalid seed"),
        ({"grid": {"t1": 6.28, "n_steps": 30.9}}, "invalid n_steps"),
        ({"grid": {"t1": 6.28, "n_steps": True}}, "invalid n_steps"),
        (
            {
                "scenario": "two_level_decay", "params": {"theta0": 0.0},
                "frame_source": "analytic", "grid": _grid(101),
            },
            "normalization denominator",
        ),
        ({"scenario": ["berry_closed"]}, "unknown scenario ['berry_closed']"),
        ({"scenario": {"x": 1}}, "unknown scenario {'x': 1}"),
        ({"outputs": 5}, "invalid outputs"),
        ({"outputs": "report"}, "invalid outputs"),
        ({"outputs": ["report", 3]}, "invalid outputs"),
        ({"grid": {"t1": "inf", "n_steps": 30}}, "t1 must be finite"),
        ({"grid": {"t0": "nan", "t1": 6.28, "n_steps": 30}}, "t0 must be finite"),
        ({"grid": {"t0": -1e308, "t1": 1e308, "n_steps": 10}}, "t1 - t0 must be finite, got inf"),
        ({"scenario": "two_level_decay", "params": {"gamma": "inf"}}, "gamma must be finite"),
        ({"params": {"theta0": "nan"}}, "theta0 must be finite"),
        ({"scenario": "wilczek_zee", "params": {"tempo": 1}}, "unknown params for wilczek_zee"),
        (
            {"scenario": "wilczek_zee", "params": {}, "frame_source": "analytic"},
            "no analytic frame source",
        ),
        ({"scenario": "wilczek_zee", "params": {"loop": 3}}, "'loop' must be 0 (a)"),
        ({"scenario": "wilczek_zee", "params": {}, "grid": _grid(101)}, "must span [0, duration]"),
        ({"scenario": "synthetic_rotation"}, "unknown scenario 'synthetic_rotation'"),
        ({"case_tag": "general"}, "unknown case_tag 'general'"),
        (
            {"scenario": "two_level_decay", "params": {"gamma": 0.001}, "grid": _grid(2, t1=0.1)},
            "n_steps must be at least 3",
        ),
        (
            {
                "scenario": "two_level_decay", "params": {"gamma": 0.001},
                "grid": _grid(2, t1=0.1), "frame_source": "analytic",
            },
            "n_steps must be at least 3",
        ),
        ({"scenario": "two_level_decay", "params": {"gamma": True}}, "gamma must be a number"),
        ({"grid": {"t1": True, "n_steps": 30}}, "t1 must be a number"),
        ({"scenario": "wilczek_zee", "params": {"duration": 0}}, "duration must be positive"),
        ({"scenario": "wilczek_zee", "params": {"rabi": 1e-200}}, "too fast for the adiabatic"),
        ({"grid": {"t1": 6.28, "n_steps": 30, "t_0": 1.0}}, "unknown grid keys: ['t_0']"),
    ]
    for i, (overrides, needle) in enumerate(malformed):
        exits_with_one_line(_write_config(tmp_path, f"bad{i}.json", **overrides), needle)
    # null params mean no params, as an absent key does
    assert ScenarioConfig.from_dict({"scenario": "berry_closed", "params": None}).params == {}
    monkeypatch.setenv("HKIT_SEED", "seven")
    exits_with_one_line(_write_config(tmp_path), "invalid HKIT_SEED")


def test_run_too_large_to_allocate_exits_with_config_code(tmp_path, capsys, monkeypatch):
    """A grid too long for the host's memory ends run and sweep in one
    exit-2 line.  The allocation failure is simulated: a real oversized
    request need not fail at once where the kernel overcommits memory."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.91 TiB for an array with shape (99999999999, 2, 2)")

    monkeypatch.setattr(cli.frames, "connection", out_of_memory)
    cfg = str(_write_config(tmp_path, grid=_grid(301)))
    sweep = ["--axis", "theta0", "--values", "1.0,1.2"]
    for argv in (["run", "--config", cfg], ["sweep", "--config", cfg, *sweep]):
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "too large to allocate" in err and "2.91 TiB" in err


def test_case_tags_that_do_not_fit_the_spectrum_are_config_errors(tmp_path, capsys):
    mismatched = [
        ({"case_tag": "t_d", "grid": _grid(101)}, "case 't_d' requires"),
        (
            {
                "scenario": "wilczek_zee", "case_tag": "nt_nd",
                "params": {"duration": 1500.0}, "grid": _grid(2001, t1=1500.0),
            },
            "case 'nt_nd' requires",
        ),
    ]
    for i, (overrides, needle) in enumerate(mismatched):
        cfg = _write_config(tmp_path, f"case{i}.json", **overrides)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert needle in err

    # a sweep records the mismatch in the point's row and goes on
    cfg = _write_config(tmp_path, case_tag="t_d", grid=_grid(101))
    argv = [
        "sweep", "--config", str(cfg), "--axis", "theta0",
        "--values", "1.0,2.0", "--out", str(tmp_path / "sweep"),
    ]
    assert cli.main(argv) == 0
    _, rows = _read_sweep(tmp_path / "sweep")
    assert [r["status"] for r in rows] == ["error", "error"]
    assert all("case 't_d' requires" in r["message"] for r in rows)


def test_integral_numbers_are_accepted_for_integer_fields():
    cfg = ScenarioConfig.from_dict(
        {"scenario": "berry_closed", "seed": 5.0, "grid": {"t1": 1.0, "n_steps": 31.0}}
    )
    assert (cfg.seed, cfg.grid.n_steps) == (5, 31)
    assert ScenarioConfig.from_dict({"scenario": "berry_closed", "seed": "12"}).seed == 12


def test_verify_maps_a_malformed_seed_to_the_config_code(monkeypatch, capsys):
    monkeypatch.setenv("HKIT_SEED", "x")
    assert cli.main(["verify", "--suite", "gauge"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "invalid HKIT_SEED" in captured.err and captured.out == ""


def test_numerical_failures_exit_with_their_own_code(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)

    def blow_up(cfg):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setattr(cli, "execute", blow_up)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_overflowing_tripod_run_fails_with_one_line(tmp_path):
    """513 steps give the bright pair a phase spread of 5.86 per step, past
    the resolution guard's pi; the run must end in one exit-3 line, without
    numpy warnings ahead of it."""
    cfg = _write_config(
        tmp_path, scenario="wilczek_zee",
        params={"loop": 0, "rabi": 1.0, "duration": 1500.0},
        grid=_grid(513, t1=1500.0),
    )
    proc = _run_in_child(cfg, tmp_path / "o")
    assert proc.returncode == 3
    assert proc.stderr == (
        "numerical failure: density propagation under-resolved: "
        "step phase spread 5.859 >= pi at t=0; refine the grid\n"
    )


def test_diverging_decay_run_fails_with_one_line(tmp_path):
    """dt = 3.45 takes the decay's RK4 steps outside their stability region.
    The trace stays 1 while the entries grow, so the run must end in one
    exit-3 line at the first density sample with an entry above 1."""
    cfg = _write_config(
        tmp_path, scenario="two_level_decay", params={"gamma": 1e-3, "theta0": 1.1},
        frame_source="analytic", grid=_grid(30, t1=100.0),
    )
    proc = _run_in_child(cfg, tmp_path / "o")
    assert proc.returncode == 3
    assert proc.stderr == (
        "numerical failure: density propagation diverged: entry modulus 1.565 > 1 at t=3.44828\n"
    )


def test_overflowing_tripod_generator_fails_with_one_line(tmp_path):
    """At rabi 1e200 the tripod's Magnus commutator overflows on the first
    step: a numerical failure (exit 3), not a config error."""
    cfg = _write_config(tmp_path, scenario="wilczek_zee", params={"rabi": 1e200})
    proc = _run_in_child(cfg, tmp_path / "o")
    assert proc.returncode == 3
    assert proc.stderr == (
        "numerical failure: density propagation produced non-finite values; "
        "last valid time t=0\n"
    )


def test_berry_run_writes_the_expected_phases(tmp_path):
    cfg = _write_config(tmp_path, params={})  # theta0 = pi/2 default
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "holonomy.json").read_text())
    assert payload["case_tag"] == "nt_nd"
    phases = np.array(payload["eigenphases"])
    assert np.max(np.abs(phases - np.pi)) < 1e-6  # both land on the seam
    assert payload["metadata"]["n_steps"] == 8001  # default grid
    assert payload["metadata"]["witness_commutator_max"] < 1e-9

    report = (out / "report.txt").read_text()
    assert "transport is Abelian" in report
    assert "warnings: (none)" in report

    header = (out / "trajectory.csv").read_text().split("\n")[0].split(",")
    assert header[0] == "t"
    assert "re_rho_01" in header and "expect_I" in header


def test_report_prints_witness_noise_as_below_its_floor(tmp_path):
    """The default berry_closed witness is rounding noise: report.txt prints
    both values as <1e-12, while holonomy.json keeps the raw floats.  A value
    at or above the floor keeps its digits."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenario": "berry_closed"}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "holonomy.json").read_text())["metadata"]
    for name in ("witness_commutator_max", "witness_reversal_gap"):
        assert isinstance(meta[name], float) and meta[name] < artifacts.WITNESS_FLOOR
    report = (out / "report.txt").read_text()
    assert "\nnon-Abelian witness: commutator_max=<1e-12 reversal_gap=<1e-12\n" in report
    assert artifacts._witness(9.99e-13) == "<1e-12"
    assert artifacts._witness(1e-12) == "1.000e-12"
    assert artifacts._witness(4.99e-2) == "4.990e-02"


def test_report_notes_abelian_transport_only_for_the_diagonal_case(tmp_path):
    """The closing note that transport is Abelian is printed for a gamma = 0
    run of the diagonal case (nt_nd), and not for a gamma = 0 t_nd run,
    whose one group of all levels keeps the off-diagonal connection and
    reports a nonzero witness."""
    note = "note: gamma = 0 closed dynamics -- transport is Abelian"
    for case, expected in (("nt_nd", True), ("t_nd", False)):
        cfg = _write_config(
            tmp_path, name=f"{case}.json", params={"theta0": 1.0}, case_tag=case, grid=_grid(401)
        )
        out = tmp_path / case
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert (note in report) is expected, report
        if case == "t_nd":
            assert "commutator_max=<1e-12" not in report


def test_report_prints_rounded_zeros_without_a_sign(tmp_path):
    """An eigenphase or trace field that rounds to zero at nine digits is
    printed +0.000000000 whatever the sign of its rounding noise, while
    holonomy.json keeps the raw floats.  The decaying qubit's trace O has
    such an imaginary part."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenario": "two_level_decay", "params": {"gamma": 4e-3}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "holonomy.json").read_text())
    im = payload["trace_O"]["im"]
    assert isinstance(im, float) and abs(im) < 5e-10
    report = (out / "report.txt").read_text()
    assert f"{payload['trace_O']['re']:+.9f} +0.000000000j" in report
    assert "-0.000000000" not in report
    for x in (-0.0, 0.0, -1e-12, 1e-12, -4.9e-10):
        assert artifacts._fixed(x) == "+0.000000000"
    assert artifacts._fixed(-5.1e-10) == "-0.000000001"
    assert artifacts._fixed(1.5) == "+1.500000000"
    assert artifacts._fixed(-np.pi) == "-3.141592654"


def test_closed_limit_phases_over_seeded_parameters():
    """The cyclic closed-system eigenphases are +/- pi (1 - cos theta0) at
    check_berry_limit's 1e-5, for seeded (theta0, phi0) in the validity window."""
    rng = np.random.default_rng(2007)
    for _ in range(8):
        theta0 = float(rng.uniform(np.pi / 7, 6 * np.pi / 7))
        phi0 = float(rng.uniform(0.0, 2.0 * np.pi))
        res = cli.execute(ScenarioConfig.from_dict({
            "scenario": "berry_closed",
            "params": {"theta0": theta0, "phi0": phi0},
            "grid": _grid(2001),
        }))
        ref = models.berry_reference(models.TwoLevelDecayParams(theta0=theta0))
        err = matlib.match_phase_sets(res.holo.eigenphases, ref)
        assert err <= 1e-5, (theta0, phi0, err)


def test_eigenphases_are_consistent_with_the_stored_matrix(tmp_path):
    cfg = _write_config(tmp_path, grid=_grid(2001))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "holonomy.json").read_text())
    O = np.array(payload["matrices"]["O"]["re"]) + 1j * np.array(
        payload["matrices"]["O"]["im"]
    )
    recomputed = matlib.unitary_eigenphases(O)
    assert matlib.match_phase_sets(np.array(payload["eigenphases"]), recomputed) < 1e-12


def test_runs_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path, grid=_grid(1001))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "holonomy.json", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# --- trajectory.csv formatting ---------------------------------------------


def _percent_rows(block: np.ndarray) -> bytes:
    """Rows of trajectory.csv as the per-value writer formats them: one
    FLOAT_FMT % per value, commas between, a newline after each row."""
    return "".join(
        ",".join(artifacts.FLOAT_FMT % x for x in row) + "\n" for row in block.tolist()
    ).encode()


def _from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _formatter_samples(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded float64 families, about 1.06 million values in all."""
    n = 2**18
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    # 2**-896 > 1e-270 and 2**963 < 1e290: the range the vectorised path certifies
    biased = rng.integers(1023 - 896, 1023 + 963, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # exact 19-digit expansions ending in 5, which % rounds half to even
    ties = [2.0**-26, 3 * 2.0**-26, 5 * 2.0**-26, 2.0**-27, 140708192334978.9375]
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 1e-270, 1e290, np.nextafter(1e290, 0.0)]
    return {
        "random bit patterns": _from_bits(rng.integers(0, 2**64, 2**16, dtype=np.uint64)),
        "certified exponents": _from_bits(sign | biased | mantissa),
        "powers of ten and their neighbours": np.concatenate([
            tens, np.nextafter(tens, np.inf), np.nextafter(tens, 0.0), -tens,
        ]),
        "integers": np.concatenate([
            np.arange(-1000.0, 1001.0),
            rng.integers(-(2**53), 2**53, 2**17).astype(np.float64),
        ]),
        "short decimals": rng.integers(-(10**6), 10**6, 2**18) / 1000.0,
        "normal deviates": rng.standard_normal(2**18),
        "three-digit exponents": np.concatenate([
            10.0 ** rng.uniform(100.0, 290.0, 2**15), 10.0 ** -rng.uniform(100.0, 270.0, 2**15),
        ]),
        "subnormals": _from_bits(rng.integers(1, 2**52, 2**12, dtype=np.uint64)),
        "specials and ties": np.array(specials + ties + [-x for x in ties]),
    }


def test_formatter_matches_percent_byte_for_byte():
    """About 1.06 million seeded values, each block's text equal to one
    FLOAT_FMT % per value, whichever path formats it.  Blocks are 8 x 32
    values; the edge-case families go one value at a time, so that each of
    their values is certified or not on its own."""
    samples = _formatter_samples(np.random.default_rng(20071011))
    assert sum(v.size for v in samples.values()) >= 10**6
    for family, values in samples.items():
        shape = (1, 1) if values.size < 10**4 else (8, 32)
        size = shape[0] * shape[1]
        values = np.resize(values, -(-values.size // size) * size)
        expected = [artifacts.FLOAT_FMT % x for x in values.tolist()]
        certified = 0
        for lo in range(0, values.size, size):
            block = values[lo : lo + size].reshape(shape)
            text = artifacts._format_certified(block)
            if text is None:
                text = artifacts._format_rows(block)
            else:
                certified += 1
            rows = [
                ",".join(expected[r : r + shape[1]]) + "\n"
                for r in range(lo, lo + size, shape[1])
            ]
            assert text == "".join(rows).encode(), family
        # the comparison must reach the vectorised path where it applies
        if shape != (1, 1) and family != "random bit patterns":
            assert certified >= 0.6 * values.size / size, (family, certified)


def test_a_block_holding_a_tie_falls_back_to_percent():
    tie = 2.0**-26  # 1.490116119384765625e-08: the 19th digit is an exact 5
    assert artifacts.FLOAT_FMT % tie == "1.49011611938476562e-08"  # half to even
    block = np.array([[0.1, tie, -3.5], [1e-30, 7.0, 0.0]])
    assert artifacts._format_certified(block) is None
    assert artifacts._format_certified(block[:, [0, 2]]) is not None
    assert artifacts._format_rows(block) == _percent_rows(block)


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 4))
def test_formatter_matches_percent_on_any_floats(values, n_cols):
    block = np.resize(np.array(values), (-(-len(values) // n_cols), n_cols))
    assert artifacts._format_rows(block) == _percent_rows(block)


def _per_value_trajectory(res) -> bytes:
    """trajectory.csv as the per-value writer produced it."""
    dim = res.rho_traj.dim
    header = ["t"]
    for i in range(dim):
        for j in range(dim):
            header += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    header += [f"lam_{i}" for i in range(dim)] + ["expect_I"]
    lines = [",".join(header)]
    for k, t in enumerate(res.grid.times):
        values = [t]
        for z in res.rho_traj.samples[k].ravel():
            values += [z.real, z.imag]
        values += list(res.frames.eigenvalues[k]) + [res.expectation[k]]
        lines.append(",".join(artifacts.FLOAT_FMT % v for v in values))
    return ("\n".join(lines) + "\n").encode()


def test_trajectory_csv_matches_the_per_value_writer(tmp_path):
    decay = {"scenario": "two_level_decay", "params": {"gamma": 4e-3, "theta0": 1.1}}
    configs = {
        "berry": {"scenario": "berry_closed", "params": {"theta0": 2.0}},
        "decay analytic": {**decay, "frame_source": "analytic"},
        "decay continuity": {**decay, "frame_source": "continuity"},
        "tripod": {
            "scenario": "wilczek_zee", "params": {"loop": 1, "rabi": 1.3, "duration": 1500.0},
            "grid": _grid(2001, t1=1500.0),
        },
    }
    for name, raw in configs.items():
        res = cli.execute(ScenarioConfig.from_dict({"grid": _grid(2001), **raw}))
        path = tmp_path / "trajectory.csv"
        artifacts.write_trajectory(path, res)
        assert path.read_bytes() == _per_value_trajectory(res), name


def test_output_selection_limits_the_artifacts(tmp_path):
    cfg = _write_config(tmp_path, grid=_grid(301), outputs=["report"])
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.txt").exists()
    assert not (out / "trajectory.csv").exists()
    assert not (out / "holonomy.json").exists()


def test_validity_warnings_reach_the_report(tmp_path):
    cfg = _write_config(
        tmp_path,
        scenario="two_level_decay",
        params={"gamma": 0.05, "theta0": 0.2},
        grid=_grid(1001),
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "validity window" in report
    assert "weak-coupling" in report


def test_seed_env_var_overrides_the_config(tmp_path, monkeypatch):
    monkeypatch.setenv("HKIT_SEED", "77")
    cfg = ScenarioConfig.from_dict({"scenario": "berry_closed", "seed": 3})
    assert cfg.seed == 77
    monkeypatch.delenv("HKIT_SEED")
    assert ScenarioConfig.from_dict({"scenario": "berry_closed", "seed": 3}).seed == 3


def test_open_system_run_switches_to_full_matrix_transport(tmp_path):
    cfg = _write_config(
        tmp_path,
        scenario="two_level_decay",
        params={"gamma": 1e-3, "theta0": 2 * np.pi / 3},
        grid=_grid(2001),
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "holonomy.json").read_text())
    assert payload["case_tag"] == "t_nd"
    assert payload["metadata"]["witness_commutator_max"] > 1e-6
    assert payload["metadata"]["parallel_residual"] < 1e-3
    assert payload["metadata"]["invariant_expectation_drift"] < 1e-8


def test_wilczek_zee_run_reports_a_four_level_holonomy(tmp_path):
    cfg = _write_config(
        tmp_path,
        scenario="wilczek_zee",
        params={"loop": 1, "duration": 1500.0},
        grid=_grid(2001, t1=1500.0),
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "holonomy.json").read_text())
    assert payload["case_tag"] == "t_d"
    assert len(payload["eigenphases"]) == 4


def test_each_flag_is_reported_once(tmp_path):
    """A 5-step berry loop is too coarse for the connection's second-order
    derivative: its Hermiticity deviation, about 1.5e-1, raises the flag."""
    cfg = _write_config(tmp_path, grid=_grid(5))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    flags = json.loads((out / "holonomy.json").read_text())["metadata"]["flags"]
    assert sum("connection hermiticity deviation" in f for f in flags) == 1
    assert (out / "report.txt").read_text().count("connection hermiticity deviation") == 1


def test_sweep_traces_the_adiabatic_phase_curve(tmp_path):
    cfg = _write_config(tmp_path, grid=_grid(2001))
    out = tmp_path / "out"
    thetas = [np.pi / 3, np.pi / 2, 2 * np.pi / 3]
    argv = [
        "sweep", "--config", str(cfg), "--axis", "theta0",
        "--values", ",".join(repr(v) for v in thetas), "--out", str(out),
    ]
    assert cli.main(argv) == 0
    header, rows = _read_sweep(out)
    assert header[0] == "theta0" and len(rows) == 3
    for row, theta0 in zip(rows, thetas):
        assert row["status"] == "ok"
        got = np.array([float(row["eigenphase_0"]), float(row["eigenphase_1"])])
        ref = models.berry_reference(models.TwoLevelDecayParams(theta0=theta0))
        assert matlib.match_phase_sets(got, ref) < 1e-4


def test_sweep_shows_the_abelian_to_nonabelian_transition(tmp_path):
    cfg = _write_config(
        tmp_path,
        scenario="two_level_decay",
        params={"theta0": 2 * np.pi / 3},
        grid=_grid(2001),
    )
    out = tmp_path / "out"
    argv = [
        "sweep", "--config", str(cfg), "--axis", "gamma",
        "--values", "0,1e-4,1e-3", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    _, rows = _read_sweep(out)
    assert [r["status"] for r in rows] == ["ok"] * 3
    # closed system: diagonal transport, ordering-insensitive
    assert float(rows[0]["commutator_max"]) < 1e-9
    # any coupling switches on the full-matrix case and its witness
    for row in rows[1:]:
        assert float(row["commutator_max"]) > 1e-6
        assert float(row["reversal_gap"]) > 1e-9


def test_sweep_keeps_going_past_a_failing_point(tmp_path):
    cfg = _write_config(tmp_path, grid=_grid(301))
    out = tmp_path / "out"
    argv = [
        "sweep", "--config", str(cfg), "--axis", "theta0",
        "--values", "1.0,-1.0,2.0", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    _, rows = _read_sweep(out)
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    assert "theta0" in rows[1]["message"]
    assert "," not in rows[1]["message"]

    # a point the scenario's build refuses (berry_closed needs gamma = 0) is one row
    argv = ["sweep", "--config", str(cfg), "--axis", "gamma", "--values", "0,0.1"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    _, rows = _read_sweep(out)
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert "gamma = 0" in rows[1]["message"]

    # a tripod at rabi 1e200 passes the rate probe and fails at the check for a
    # non-finite Magnus exponent, before any exponential is formed, as one row
    cfg = _write_config(tmp_path, "wz.json", scenario="wilczek_zee", params={})
    argv = ["sweep", "--config", str(cfg), "--axis", "rabi", "--values", "1,1e200"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    _, rows = _read_sweep(out)
    assert [r["status"] for r in rows] == ["ok", "error"]


def test_sweep_argument_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    base = ["sweep", "--config", str(cfg), "--axis", "theta0", "--out", str(tmp_path / "o")]
    assert cli.main(base + ["--values", ""]) == 2
    assert "empty sweep" in capsys.readouterr().err
    assert cli.main(base + ["--values", "1.0,up"]) == 2
    assert "invalid sweep values" in capsys.readouterr().err


def test_sweep_axis_outside_the_scenario_params_is_a_config_error(tmp_path, capsys, monkeypatch):
    """An axis that no param of the scenario carries ends the sweep in one
    exit-2 line before any point runs, and writes no sweep.csv."""
    monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("a point ran"))
    cfg = _write_config(tmp_path)
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(cfg), "--axis", "nope", "--values", "1,2", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "'nope'" in err and "theta0" in err
    assert not (out / "sweep.csv").exists()


def test_verify_rejects_unknown_suites(capsys):
    assert cli.main(["verify", "--suite", "everything"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_prints_one_line_per_check(monkeypatch, capsys):
    fake = {
        "fast": [
            lambda: CheckResult("alpha", True, "1.0e-09", "1.0e-06"),
            lambda: CheckResult("beta", False, "2.0e-03", "1.0e-06", "needs work"),
        ],
        "clean": [lambda: CheckResult("alpha", True, "1.0e-09", "1.0e-06")],
    }
    monkeypatch.setattr(checks, "SUITES", fake)
    assert cli.main(["verify", "--suite", "fast"]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("PASS  alpha")
    assert lines[1].startswith("FAIL  beta") and "[needs work]" in lines[1]
    assert "1 of 2 checks failed: beta" in lines[2]

    assert cli.main(["verify", "--suite", "clean"]) == 0
    assert "all 1 checks passed" in capsys.readouterr().out


def _python_in_child(*args):
    """A fresh interpreter with the arguments args, importing the same hkit
    as this test, installed or not."""
    path = [str(Path(hkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


def _run_in_child(cfg, out, *argv):
    """`hkit run` (or the subcommand argv names) in a fresh interpreter, so
    its real stderr is captured."""
    argv = argv or ("run",)
    return _python_in_child("-m", "hkit.cli", *argv, "--config", str(cfg), "--out", str(out))


def test_cli_import_needs_no_scipy():
    """scipy is a test dependency only: the runtime imports numpy alone."""
    proc = _python_in_child(
        "-c", "import sys, hkit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_modules_import_no_unused_names():
    """Every name a src/hkit module imports is used in it.  A name that
    appears only in a string annotation (an import under TYPE_CHECKING)
    counts as used."""
    unused = []
    for path in sorted(Path(hkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        annotations = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                args += [a for a in (node.args.vararg, node.args.kwarg) if a]
                annotations += [a.annotation for a in args] + [node.returns]
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names = ast.walk(ast.parse(ann.value, mode="eval"))
                used |= {n.id for n in names if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{ln} {name}" for name, ln in imported.items() if name not in used]
    assert unused == []


def test_only_matlib_calls_lapack_eigensolvers_or_svd():
    """Every Hermitian eigensystem goes through matlib.eigh, every polar
    split through matlib.polar_svd and every eigenphase extraction through
    matlib.unitary_eigenphases, so their ordering, phase and completion
    conventions are decided in one module."""
    calls = []
    for path in sorted(Path(hkit.__file__).parent.glob("*.py")):
        if path.name == "matlib.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh", "eigvals", "svd")):
                continue
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                calls.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
    assert calls == []


def test_only_checks_call_einsum():
    """Every stacked product of the pipeline is matlib.mul's explicit sum;
    np.einsum is left to the acceptance checks' oracles."""
    calls = []
    for path in sorted(Path(hkit.__file__).parent.glob("*.py")):
        if path.name == "checks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "einsum":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_readme_lists_the_case_tags_and_scenarios():
    """The README's case table has one row per holonomy.CASE_TAGS entry, and
    its Scenarios sentence names every row of cli.SCENARIOS and nothing
    else (its other code spans are params or conditions)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.search(r"\| case \| level groups \|.*?\n((?:\|.*\n)+)", readme).group(1)
    rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert sorted(rows) == sorted(holonomy.CASE_TAGS)
    sentence = re.search(r"^Scenarios: (.*?\.)\s", readme, flags=re.M | re.S).group(1)
    params = {k for row in cli.SCENARIOS.values() for k in row.defaults}
    names = [w for w in re.findall(r"`([^`]+)`", sentence) if w.isidentifier()]
    assert sorted(set(names) - params) == sorted(cli.SCENARIOS)


def test_pipeline_series_are_stack_last():
    """Every (n, d, d) series a run produces is a view of a contiguous
    (d, d, n) array, the layout in which matlib.mul's elementwise products
    run over the contiguous stack axis."""
    for raw in (
        {"scenario": "berry_closed", "grid": _grid(801)},
        {"scenario": "wilczek_zee", "params": {"loop": 1}},
        # a constant open generator: RK4 powers of one step matrix
        {"scenario": "two_level_decay", "params": {"gamma": 4e-3}, "grid": _grid(801)},
    ):
        res = cli.execute(ScenarioConfig.from_dict(raw))
        series = {
            "rho_traj": res.rho_traj.samples,
            "I_traj": res.I_traj.samples,
            "frames": res.frames.vectors,
            "conn": res.conn.samples,
            **{f"factors[{g}]": F for g, F in enumerate(res.holo.factors)},
            **{f"transport[{g}]": T for g, T in enumerate(res.holo.transport)},
        }
        for name, x in series.items():
            assert np.moveaxis(x, 0, -1).flags.c_contiguous, (raw["scenario"], name)


def test_lapack_eigensolver_call_budget(monkeypatch):
    """LAPACK's eigh runs only where an eigensystem is the result: a tripod
    run diagonalizes the start density twice (its positivity check, and the
    range that the time-dependent closed flow carries) and each of its 2001
    invariant samples once (eigenframes, a block of samples per call), a
    two-level run nothing (2x2 eigensystems are closed-form).
    Every exponential, the Magnus steps among them, and every polar factor
    of the transport is eigensystem-free.  The budget counts matrices, not calls."""
    calls = []
    lapack_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return lapack_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    budget = [
        ({"scenario": "wilczek_zee", "params": {"loop": 1}}, 2 + 2001),
        ({"scenario": "berry_closed", "grid": _grid(801)}, 0),
        ({"scenario": "two_level_decay", "params": {"gamma": 1e-3}, "grid": _grid(801)}, 0),
        ({"scenario": "two_level_decay", "frame_source": "analytic", "grid": _grid(801)}, 0),
    ]
    for raw, expected in budget:
        calls.clear()
        cli.execute(ScenarioConfig.from_dict(raw))
        assert sum(int(np.prod(shape[:-2])) for shape in calls) == expected, (raw, calls)


def test_two_level_runs_form_no_exponential(monkeypatch):
    """Every unitary exponential is a Taylor polynomial, and a two-level
    `execute` never reaches one: its closed flows take level-pair phases
    and its transport takes polar factors.  The tripod's Magnus flow still
    does, on its 4x4 stacks."""
    calls = []
    taylor = matlib._taylor

    def counting_taylor(X, *args, **kwargs):
        calls.append(X.shape[:2])
        return taylor(X, *args, **kwargs)

    monkeypatch.setattr(matlib, "_taylor", counting_taylor)
    for raw in (
        {"scenario": "berry_closed", "grid": _grid(801)},
        {"scenario": "two_level_decay", "params": {"gamma": 1e-3}, "grid": _grid(801)},
        {"scenario": "two_level_decay", "frame_source": "analytic", "grid": _grid(801)},
    ):
        calls.clear()
        cli.execute(ScenarioConfig.from_dict(raw))
        assert calls == [], raw
    cli.execute(ScenarioConfig.from_dict({"scenario": "wilczek_zee", "params": {"loop": 1}}))
    assert calls and all(d > 2 for d, _ in calls), calls


def test_unwritable_output_path_exits_with_one_line(tmp_path):
    """--out naming an existing regular file: run and sweep both end in one
    exit-2 line instead of a traceback."""
    cfg = _write_config(tmp_path, grid=_grid(301))
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (("run",), ("sweep", "--axis", "theta0", "--values", "1.0")):
        proc = _run_in_child(cfg, taken, *argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("output error: ") and proc.stderr.count("\n") == 1, argv
        assert str(taken) in proc.stderr and proc.stdout == ""


def test_console_entry_point_smoke(tmp_path):
    cfg = _write_config(tmp_path, grid=_grid(301))
    out = tmp_path / "out"
    proc = _run_in_child(cfg, out)
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "holonomy.json", "report.txt"):
        assert (out / name).exists()
