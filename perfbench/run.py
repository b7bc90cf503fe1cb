"""Benchmark driver for hkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout: hkit is imported from ``src/``.
All load comes from this one process, with the BLAS and OpenMP pools pinned
to one thread.  Seeded operations run in a closed loop (the next op starts
when the previous one has returned) for about ``--seconds``, with the fixed
reference kernel of ``reference.py`` timed before the first op and after each
op; every op is checked against its gate.  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See README.md.
"""
from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from stats import tail_percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_OPS = 3  # a median needs three samples; a traced run needs both kinds
PROBE_PERIOD_S = 0.025  # the probe takes about 3% of the wall time
SETUP_TIMEOUT_S = 60


def load_hkit() -> None:
    """Put the checkout's ``src`` first on the path and import hkit from it."""
    if not (SRC / "hkit" / "__init__.py").is_file():
        raise SystemExit(f"hkit sources not found under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hkit

    if Path(hkit.__file__).resolve().parent != (SRC / "hkit").resolve():
        raise SystemExit(f"imported hkit from {hkit.__file__}, not from {SRC}")


def environment(workload, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
        f"({blas.get('openblas configuration', '').strip()})",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "grids": workload.grids,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import hkit and build the first op.

    Each child is awaited by a blocking wait, which returns when it exits;
    ``subprocess.run`` with a timeout polls instead, in steps of up to 50 ms.
    A timer kills a child that hangs.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            if child.poll() is None:  # the wait was interrupted, e.g. by SIGTERM
                child.kill()
                child.wait()
        samples.append(time.perf_counter() - start)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
    return samples


def _artifact_bytes(out_dirs: list[Path]) -> int:
    return sum(f.stat().st_size for d in out_dirs if d.is_dir() for f in d.iterdir() if f.is_file())


class HostProbe:
    """Samples the host's speed while a timed segment runs.

    An interval timer raises SIGALRM every PROBE_PERIOD_S of wall time, and
    the handler times one ``reference.probe``.  A segment's size in probe
    units is its wall time less the probes' time, over the probes' mean
    time: a change in the host's speed that lasts longer than a period
    cancels in it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference.probe()
        self.samples.append(time.perf_counter() - start)

    def measure(self, fn) -> tuple[float, float]:
        """Run ``fn()``; returns its wall time and its size in probe units."""
        self.samples.clear()
        gc.collect()  # no segment pays for the previous one's garbage
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - start
        if not self.samples:  # shorter than one period
            self._sample()
        return wall, (wall - sum(self.samples)) / statistics.fmean(self.samples)


def run_op(op, tracer, op_id: int, probe: HostProbe) -> dict:
    """Time one op (traced when op_id >= 0), then judge its output."""
    runner = op.run
    if tracer is not None and op_id >= 0:
        tracer.op = op_id
        runner = lambda: tracer.span("op", op.run)  # noqa: E731
    out, error = None, None

    def attempt():
        nonlocal out, error
        try:
            out = runner()
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()

    elapsed, units = probe.measure(attempt)
    if tracer is not None:
        tracer.op = -1
    fails, diag = [error], {}
    if error is None:
        try:
            fails, diag = op.check(out)
        except Exception as exc:  # an unreadable output fails its gate
            fails = [f"gate raised {type(exc).__name__}: {exc}"]
            traceback.print_exc()
    return {
        "label": op.label, "n_steps": op.n_steps, "runs": op.runs, "seconds": elapsed,
        "units": units, "traced": op_id >= 0, "failures": fails, "diagnostics": diag,
        "artifact_bytes": _artifact_bytes(op.out_dirs),
    }


def measure(workload, args, work: Path, tracer) -> list[dict]:
    """Closed loop of ops for about ``args.seconds``; returns the op records.
    With a tracer, every other op is traced.  The reference kernel runs
    before the first op and after each op; each record carries the mean wall
    time (``ref_s``) and size in probe units (``ref_units``) of the kernel
    runs right before and right after it."""
    import numpy as np

    work.mkdir(parents=True, exist_ok=True)
    probe = HostProbe()

    def run_reference(steps: int = reference.STEPS) -> tuple[float, float]:
        return probe.measure(lambda: reference.run(work / "reference.txt", steps))

    # Warm-up on smoke-size inputs from a separate stream: lazy imports and
    # first-call costs are paid before timing without changing the inputs.
    warmup = workload.make_op(np.random.default_rng([args.seed, 1]), work / "warmup", True)
    run_op(warmup, None, -1, probe)
    shutil.rmtree(work / "warmup", ignore_errors=True)
    run_reference(reference.SMOKE_STEPS)

    rng = np.random.default_rng(args.seed)
    records: list[dict] = []
    start = time.perf_counter()
    ref_before = run_reference()
    # Start another op while it is expected to end no later than half an op
    # past the window, so runs last ``--seconds`` on average.
    while len(records) < MIN_OPS or (
        time.perf_counter() - start + 0.5 * statistics.median(r["seconds"] for r in records)
        <= args.seconds
    ):
        op_dir = work / f"op{len(records)}"
        op = workload.make_op(rng, op_dir, args.smoke)
        traced = tracer is not None and len(records) % 2 == 0
        record = run_op(op, tracer, len(records) if traced else -1, probe)
        shutil.rmtree(op_dir, ignore_errors=True)
        ref_after = run_reference()
        record["ref_s"] = 0.5 * (ref_before[0] + ref_after[0])
        record["ref_units"] = 0.5 * (ref_before[1] + ref_after[1])
        records.append(record)
        ref_before = ref_after
    return records


def relative(records: list[dict]) -> list[float]:
    """Each op's size over the reference kernel's, both in probe units."""
    return [r["units"] / r["ref_units"] for r in records]


def end_to_end(records: list[dict], setup: list[float]) -> dict:
    return {
        "op_ref_p50": (statistics.median(relative(records)), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(records, tracer) -> dict:
    from tracing import TRACED

    traced = [r for r in records if r["traced"]]
    n_ops = len(traced)
    n_runs = sum(r["runs"] for r in traced)
    calls = dict.fromkeys(TRACED, 0)
    own = dict.fromkeys(TRACED, 0.0)
    inclusive = dict.fromkeys(TRACED, 0.0)
    counts = dict.fromkeys(TRACED, 0)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.name in calls:
            calls[span.name] += 1
            own[span.name] += self_s
            inclusive[span.name] += span.end - span.start
            counts[span.name] += span.count
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (own[name] / n_ops, "s/op")
    steps, samples = counts["dynamics.propagate"], counts["frames.eigenframes"]
    out["dynamics.propagate.steps"] = (steps, "count")
    out["frames.eigenframes.samples"] = (samples, "count")
    out["cli.artifacts.bytes"] = (sum(r["artifact_bytes"] for r in traced), "B")
    out["dynamics.propagate.us_per_step"] = (
        1e6 * inclusive["dynamics.propagate"] / steps if steps else 0.0, "us/step")
    out["frames.eigenframes.us_per_sample"] = (
        1e6 * inclusive["frames.eigenframes"] / samples if samples else 0.0, "us/sample")
    # Waste ratios are per ``hkit run`` call, the unit that should build
    # each connection and transporter once.
    for name in ("frames.connection", "holonomy.transporter"):
        out[f"{name}.calls_per_op"] = (calls[name] / n_runs if n_runs else 0.0, "ratio")
    # Relative op sizes, so host drift between traced and untraced ops cancels.
    plain = relative([r for r in records if not r["traced"]])
    out["trace.overhead_frac"] = (
        statistics.median(relative(traced)) / statistics.median(plain) - 1.0, "ratio")
    out["trace.ops"] = (n_ops, "count")
    return out


def report(workload, args, env, records, metrics, setup) -> None:
    """Human-readable lines that precede the JSON result line."""
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env, sort_keys=True))
    if setup:
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
    for i, r in enumerate(records):
        status = "ok" if not r["failures"] else "FAIL " + "; ".join(r["failures"])
        diag = " ".join(f"{k}={v:.6g}" for k, v in r["diagnostics"].items())
        mark = " traced" if r["traced"] else ""
        print(f"op {i} {r['label']} {r['n_steps']} steps {r['seconds']:.4f} s{mark} {status} {diag}")
    times = [r["seconds"] for r in records]
    tail = tail_percentile(times)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "none (needs more than 10 samples)"
    print(f"op samples: {len(times)}; highest supported tail percentile: {tail_text}")
    # Wall-clock figures, printed but not in the result line: they move with
    # the host's speed (see reference.py).
    print(f"{'op_s_p50':<40} {statistics.median(times):.6g} s")
    print(f"{'steps_per_s':<40} {sum(r['n_steps'] for r in records) / sum(times):.6g} 1/s")
    print(f"{'reference_s_p50':<40} {statistics.median(r['ref_s'] for r in records):.6g} s")
    print(f"{'op_units_p50':<40} {statistics.median(r['units'] for r in records):.6g} probes")
    failed = sum(bool(r["failures"]) for r in records)
    print(f"{'fail_frac':<40} {failed / len(records):.6g} ratio ({failed}/{len(records)})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result as JSON here")
    parser.add_argument("--smoke", action="store_true", help="minimal grids, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks: they stop a running set-up
    # child and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    load_hkit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {list(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]
    import numpy as np

    work = WORK / f"{'setup' if args.setup_only else 'run'}-{os.getpid()}"
    try:
        if args.setup_only:  # set-up ends when the first op is ready to start
            workload.make_op(np.random.default_rng(args.seed), work, args.smoke)
            return 0
        setup = measure_setup(args) if args.trace == 0 else []
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            records = measure(workload, args, work, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    if args.trace:
        metrics = per_layer(records, tracer)
    else:
        metrics = end_to_end(records, setup)
    env = environment(workload, args)
    report(workload, args, env, records, metrics, setup)
    failed = sum(bool(r["failures"]) for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out is not None:
        full = {
            "workload": workload.name, "why": workload.why, "trace": args.trace,
            "env": env, "setup_samples": setup, "ops": records, **result,
        }
        if tracer is not None:
            full["spans"] = [
                [s.name, s.start, s.end, s.parent, s.op, s.count] for s in tracer.spans
            ]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(full) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
