"""Do two sets of runs of the same code agree?

    python3 benchmarks/ledger/repeat.py [--runs N] [--seed S] [--vary-seed]
        [--workloads a,b] [--seconds S] [--scale F]

makes two sets of ``N`` (>= 5) end-to-end runs per workload, the sets
interleaved run by run (A1 B1 A2 B2 ...) so both see the same minutes of
the box, and prints for every end-to-end metric x workload each set's
median and quartile spread ((Q3 - Q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the gap between the
set medians in the metric's worse direction. It exits non-zero when a gap
exceeds the metric's bound or a spread other than ``setup_s``'s exceeds
its bound — the rule the driver applies before it accepts the benchmark.
With ``--vary-seed`` run ``i`` of both sets uses seed ``S + i``, which is
how the driver runs it; without, every run uses ``S``, which additionally
shows the counts that repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import spec
import timing

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def one_run(workload: str, seed: int, seconds: float,
            scale: float) -> Dict[str, float]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--scale", str(scale), "--trace", "0"],
        capture_output=True, text=True, cwd=spec.repo_root(),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["wall_s"] = time.perf_counter() - started
    return values


def spread(values: List[float]) -> float:
    low, mid, high = timing.quartiles(values)
    return (high - low) / mid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    verdict = 0
    walls: List[float] = []
    for workload in args.workloads.split(","):
        sets: List[List[Dict[str, float]]] = [[], []]
        for index in range(args.runs):
            seed = args.seed + index if args.vary_seed else args.seed
            for members in sets:
                members.append(
                    one_run(workload, seed, args.seconds, args.scale)
                )
        walls += [run["wall_s"] for members in sets for run in members]
        print(f"\n{workload}  ({args.runs} runs per set)")
        print(f"{'metric':<12} {'median A':>12} {'spread A':>9} "
              f"{'median B':>12} {'spread B':>9} {'gap B/A':>8} "
              f"{'bound':>6}")
        for metric in spec.END_TO_END:
            series = [[run[metric.name] for run in members]
                      for members in sets]
            medians = [timing.median(values) for values in series]
            spreads = [spread(values) for values in series]
            gap = (medians[1] - medians[0]) / medians[0]
            if metric.better == "higher":
                gap = -gap
            notes = []
            if gap > metric.bound:
                notes.append("GAP")
            if metric.name != "setup_s" and max(spreads) > metric.bound:
                notes.append("SPREAD")
            if len(set(series[0] + series[1])) == 1:
                notes.append("exact")
            verdict |= bool(notes) and notes != ["exact"]
            print(f"{metric.name:<12} {medians[0]:>12.4f} "
                  f"{spreads[0]:>9.4f} {medians[1]:>12.4f} "
                  f"{spreads[1]:>9.4f} {gap:>+8.4f} {metric.bound:>6.2f} "
                  f"{' '.join(notes)}")
    print(f"\nwall time per run: median {timing.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
