#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload N times with a different seed each time, interleaving
the workloads (a, b, c, a, b, c, ...) so that slow phases of the host hit
all of them alike, and prints for every end-to-end metric its median,
quartiles, quartile spread (Q3 - Q1 as a share of the median, the figure
checked against the metric's bound) and min/max spread.

    python3 perfbench/steady.py --runs 10            # every workload
    python3 perfbench/steady.py --runs 5 --workload serve-session
    python3 perfbench/steady.py --runs 10 --json out.json   # keep the values
    python3 perfbench/steady.py --runs 10 --against out.json  # a second set

With --against, it also prints how far each metric's median moved from
the earlier set's, in the metric's worse direction, against its bound.

Run it from the root of the repository. It reads the command, the run
length, the workloads and the bounds from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="default: all")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--json", help="write every measured value here")
    ap.add_argument("--against", help="an earlier --json file to compare medians with")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = i + 1
            for name, v in run_once(spec, w, seed, seconds).items():
                values[w].setdefault(name, []).append(v)
            print(f"run {i + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr)

    worst = 0.0
    for w in workloads:
        print(f"\n{w} ({args.runs} runs, {seconds} s each)")
        print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
        for name, vs in values[w].items():
            med, q1, q3, iqr, rng = spread(vs)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, iqr / bound)
                flag = "  OVER 1/3 BOUND" if iqr > bound / 3 else ""
            b = f"{bound:>7.2f}" if bound is not None else f"{'':>7}"
            print(f"{name:<32}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{iqr:>9.3%}{rng:>10.3%}{b}{flag}")
    if bounds:
        print(f"\nworst quartile spread / bound (setup_s excluded): {worst:.3f}")
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
        print("\nmedian shift from the earlier set (positive = worse)")
        for w in workloads:
            cells = []
            for name, vs in values[w].items():
                m0 = statistics.median(earlier[w][name])
                m1 = statistics.median(vs)
                worse = (m1 - m0) / m0 if better[name] == "lower" else (m0 - m1) / m0
                over = " OVER BOUND" if worse > bounds[name] else ""
                cells.append(f"{name} {worse:+.2%}{over}")
            print(f"{w}: " + ", ".join(cells))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
