"""Summarise or compare directories of benchmark result files.

    python3 perfbench/compare.py RESULTS_DIR                 # spread of one set
    python3 perfbench/compare.py BASE_DIR NEW_DIR            # new set against base
    python3 perfbench/compare.py RESULTS_DIR --save FILE     # also write the summary

A result file is what ``run.py --out FILE`` writes. Runs are grouped by
workload and by trace mode. For each end-to-end metric the summary gives the
median over runs, the quartiles and their distance as a share of the median;
relative op sizes (the per-op values behind ``op_ref_p50``) are also pooled
over runs to report the highest percentile the pooled count supports, next to
the pooled wall-clock figures. A comparison marks a metric ``worse`` when the
new median is worse than the base median by more than the bound in
BENCHMARK.json, and ``unresolved`` when either set spreads wider than the
bound, unless every new run beats every base run.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import spread, tail_percentile

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


def load(directory: Path) -> dict:
    """{(workload, trace): [result, ...]} for every result file in directory."""
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def summarise(groups: dict) -> dict:
    summary = {}
    for (workload, trace), results in sorted(groups.items()):
        entry = {
            "runs": len(results),
            "seeds": [r["env"]["seed"] for r in results],
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "env": {k: v for k, v in results[0]["env"].items() if k != "seed"},
            "metrics": {},
        }
        for name in (PER_LAYER if trace else E2E):
            vals = values(results, name)
            if vals:
                med, q1, q3, rel = spread(vals)
                entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel}
        if not trace:
            sizes = [op["units"] / op["ref_units"] for r in results for op in r["ops"]]
            tail = tail_percentile(sizes)
            entry["pooled_ops"] = {
                "count": len(sizes),
                "p50": spread(sizes)[0],
                "tail": {"percentile": tail[0], "ratio": tail[1]} if tail else None,
            }
            # Wall-clock figures: they move with the host's speed, so they
            # compare across commits only when the host's speed did not move.
            ops = [op for r in results for op in r["ops"]]
            seconds = [op["seconds"] for op in ops]
            entry["wall_clock"] = {
                "op_s_p50": spread(seconds)[0],
                "steps_per_s": sum(op["n_steps"] for op in ops) / sum(seconds),
                "reference_s_p50": spread([op["ref_s"] for op in ops])[0],
            }
        summary[f"{workload}/trace{trace}"] = entry
    return summary


def print_summary(summary: dict) -> None:
    for key, entry in summary.items():
        print(f"{key}: {entry['runs']} runs, {entry['failed']}/{entry['attempted']} ops failed")
        for name, m in entry["metrics"].items():
            bound = E2E[name]["bound"] if name in E2E else None
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if m["spread"] <= bound / 3 else (
                    "within bound" if m["spread"] <= bound else "TOO WIDE")
            print(f"  {name:<44} median {m['median']:.6g} [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
                  f" spread {m['spread']:.3f}" + (f" bound {bound} {flag}" if bound else ""))
        pooled = entry.get("pooled_ops")
        if pooled:
            tail = pooled["tail"]
            tail_text = f"p{tail['percentile']} {tail['ratio']:.4f}" if tail else "no tail percentile"
            print(f"  pooled relative op sizes: n={pooled['count']} p50 {pooled['p50']:.4f}, {tail_text}")
        wall = entry.get("wall_clock")
        if wall:
            print(f"  pooled wall clock: op_s_p50 {wall['op_s_p50']:.4f} s, steps_per_s "
                  f"{wall['steps_per_s']:.6g} 1/s, reference_s_p50 {wall['reference_s_p50']:.4f} s")


def compare(base: dict, new: dict) -> bool:
    """Print one row per workload and end-to-end metric; False on any regression."""
    ok = True
    for key in sorted(set(base) & set(new)):
        b_res, n_res = base[key], new[key]
        if key[1]:
            continue
        print(f"{key[0]}:")
        for name, spec in E2E.items():
            bv, nv = values(b_res, name), values(n_res, name)
            if not bv or not nv:
                continue
            b_med, b_q1, b_q3, b_rel = spread(bv)
            n_med, n_q1, n_q3, n_rel = spread(nv)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change = sign * (n_med - b_med) / b_med  # > 0 means worse
            all_better = all(sign * (x - y) < 0 for x in nv for y in bv)
            if change > spec["bound"]:
                verdict = "WORSE"
                ok = False
            elif max(b_rel, n_rel) > spec["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"  {name:<14} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
                  f"  new {n_med:.6g} [{n_q1:.6g}, {n_q3:.6g}]"
                  f"  {'worse' if change > 0 else 'better'} by {abs(change):.1%}"
                  f" (bound {spec['bound']:.0%}) {verdict}"
                  + ("; every new run better" if all_better else ""))
        b_fail = sum(r["failed"] for r in b_res)
        n_fail = sum(r["failed"] for r in n_res)
        if n_fail > b_fail:
            ok = False
        print(f"  failed ops: base {b_fail}, new {n_fail}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", type=Path, help="one or two result directories")
    parser.add_argument("--save", type=Path, help="write the summary of the last directory")
    args = parser.parse_args(argv)
    if len(args.dirs) > 2:
        parser.error("give one or two result directories")
    groups = [load(d) for d in args.dirs]
    for d, g in zip(args.dirs, groups):
        if not g:
            parser.error(f"no result files in {d}")
    summary = summarise(groups[-1])
    print_summary(summary)
    if args.save is not None:
        args.save.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    if len(groups) == 2:
        print()
        return 0 if compare(groups[0], groups[1]) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
