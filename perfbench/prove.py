#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise its spread.

Run from the repository root:

    python3 perfbench/prove.py --workloads fullsize-lib cli-pipeline oracle-exhaustive \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out results.json

Each (workload, seed) runs `python3 perfbench/run.py` once, one after
another. For every metric the summary gives the values in seed order,
their median, the quartiles of statistics.quantiles(values, n=4), and
the spread: the distance between the quartiles as a share of the
median. For --trace 1 it also lists the count metrics whose values
differ between seeds and the traced functions no workload called.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} wall {result['wall_s']:.1f} s",
                  flush=True)
        summary = summarise(runs)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "metrics": summary,
        }
        if args.trace:
            entry["varying_counts"] = sorted(
                name for name, s in summary.items()
                if s["unit"] == "count" and name.startswith("modmath.exp_per_op.")
                and len(set(s["values"])) > 1)
        report["workloads"][workload] = entry
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = f"  bound {bound:g}" + ("  OVER/3" if s["spread"] > bound / 3 else "")
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']}  spread {s['spread']}{flag}",
                  flush=True)
    if args.trace:
        never = None
        for workload in args.workloads:
            for seed in args.seeds:
                trace = json.loads(Path(f".bench_trace/{workload}-seed{seed}.json").read_text())
                zero = set(trace["zero_call_functions"])
                never = zero if never is None else never & zero
        report["never_called"] = sorted(never)
        print(f"traced functions no workload called: {report['never_called']}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
