#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints, for each end-to-end metric, the median and the spread of its values:
the distance between the first and third quartile as a share of the median,
next to the bound BENCHMARK.json gives the metric. Every bounded metric,
setup_s included, counts toward the worst spread.

With --out, the values are saved as JSON; with --against, the medians are
compared with those of an earlier saved set, and each metric's change in its
worse direction is printed as a share of the earlier median.

Run from the repository root after building the benchmark once:

    python3 perfbench/spread.py --runs 10 --out set_a.json
    python3 perfbench/spread.py --runs 10 --out set_b.json --against set_a.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    saved = {}
    worst_spread = 0.0
    worst_shift = 0.0
    for workload in workloads:
        values = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {result}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        saved[workload] = values
        print(f"== {workload} ({args.runs} runs of {seconds} s)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:<24} median {med:>12.5f}  spread {spread:.4f}"
            bound = bounds.get(name)
            if bound is not None:
                worst_spread = max(worst_spread, spread / bound)
                line += f"  bound {bound:.3f} {'OK' if spread < bound / 3 else 'WIDE'}"
            before = earlier.get(workload, {}).get(name)
            if before and bound is not None:
                old = statistics.median(before)
                worse = (med - old) / old if better[name] == "lower" else (old - med) / old
                worst_shift = max(worst_shift, worse / bound)
                line += f"  worse by {worse:+.4f} {'OK' if worse <= bound else 'OVER'}"
            print(line)
            if args.verbose:
                print("      " + " ".join(f"{v:.5g}" for v in vals))
    print(f"worst spread / bound: {worst_spread:.3f}")
    if earlier:
        print(f"worst median shift / bound: {worst_shift:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
