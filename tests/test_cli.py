"""End-to-end tests of the command-line interface: config handling, exit
codes, artifact formats, and the sweep/verify protocols."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hkit
from hkit import cli, matlib, models
from hkit.cli import CheckResult, ConfigError, ScenarioConfig
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
    ]
    for i, (overrides, needle) in enumerate(malformed):
        exits_with_one_line(_write_config(tmp_path, f"bad{i}.json", **overrides), needle)
    monkeypatch.setenv("HKIT_SEED", "seven")
    exits_with_one_line(_write_config(tmp_path), "invalid HKIT_SEED")


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


def test_synthetic_rotation_run_uses_the_complete_frame(tmp_path):
    cfg = _write_config(tmp_path, scenario="synthetic_rotation", params={})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "holonomy.json").read_text())
    assert payload["case_tag"] == "general"
    # a complete frame transports trivially (up to discretization)
    assert np.max(np.abs(np.array(payload["eigenphases"]))) < 1e-4


def test_each_flag_is_reported_once(tmp_path):
    cfg = _write_config(tmp_path, scenario="synthetic_rotation", params={}, grid=_grid(40))
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


def test_sweep_argument_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    base = ["sweep", "--config", str(cfg), "--axis", "theta0", "--out", str(tmp_path / "o")]
    assert cli.main(base + ["--values", ""]) == 2
    assert "empty sweep" in capsys.readouterr().err
    assert cli.main(base + ["--values", "1.0,up"]) == 2
    assert "invalid sweep values" in capsys.readouterr().err


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
    monkeypatch.setattr(cli, "SUITES", fake)
    assert cli.main(["verify", "--suite", "fast"]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("PASS  alpha")
    assert lines[1].startswith("FAIL  beta") and "[needs work]" in lines[1]
    assert "1 of 2 checks failed: beta" in lines[2]

    assert cli.main(["verify", "--suite", "clean"]) == 0
    assert "all 1 checks passed" in capsys.readouterr().out


def _run_in_child(cfg, out):
    """`hkit run` in a fresh interpreter, so its real stderr is captured."""
    # the child imports the same hkit as this test, installed or not
    path = [str(Path(hkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "hkit.cli", "run", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


def test_console_entry_point_smoke(tmp_path):
    cfg = _write_config(tmp_path, grid=_grid(301))
    out = tmp_path / "out"
    proc = _run_in_child(cfg, out)
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "holonomy.json", "report.txt"):
        assert (out / name).exists()
