"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's schema, runs every workload
with ``--smoke`` (minimal grids, one second) untraced and traced, and checks
that each run exits 0, passes every gate and prints a result line with
exactly the metrics BENCHMARK.json names, in their units.  Finally checks
that the benchmark refuses to run without the hkit sources.  Exits 1 on the
first failure.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMEOUT_S = 300


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_benchmark_json(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds must be a whole number in [1, 60]")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer entry {m}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    if len(set(names)) != len(names) or not all(NAME.fullmatch(n) for n in names):
        fail("names must be unique and well formed")
    if not all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics):
        fail("units must be well formed and better must be lower or higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (s, lower) must be an end-to-end metric")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    print(f"ok   BENCHMARK.json: {len(spec['workloads'])} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics")


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    what = f"{workload} trace {trace}"
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what} result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{what} gates failed:\n{proc.stdout}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"{what} metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{what} metric {name} has value {value!r}")
        if not trace and value <= 0:
            fail(f"{what} end-to-end metric {name} is {value}")
    print(f"ok   {what}: {result['attempted']} ops, {len(result['metrics'])} metrics")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = [sys.executable, "perfbench/run.py", "--workload", "berry_closed_20k",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"run without hkit sources exited {proc.returncode} with output {proc.stdout!r}")
    print(f"ok   refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_sources()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
