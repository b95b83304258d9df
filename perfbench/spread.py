#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way its acceptance is judged.

    python3 perfbench/spread.py --workloads cold_large,serve_mix --seeds 1-10

Runs perfbench/run.py once per (workload, seed), sequentially, with the
run length from BENCHMARK.json, and prints for every end-to-end metric
the median over the seeds and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.
A spread above a third of the bound is flagged. Raw results are appended
to .bench_build/perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    log = os.path.join(ROOT, ".bench_build", "perfbench", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = [l for l in proc.stdout.splitlines() if l.strip()]
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(parse_seeds(args.seeds))} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med != 0:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                if spread > bound / 3:
                    flag = "  <-- above bound/3"
            print(f"  {name:34s} median {med:14.6g}  iqr/median {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
