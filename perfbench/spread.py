#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, checked against BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--sets 2]

Runs each workload once per seed (untraced, --seconds from BENCHMARK.json),
in `--sets` rounds.  For every end-to-end metric it prints each run's value,
the median and the interquartile range (statistics.quantiles(n=4)) as a
share of the median, next to the metric's bound; with two sets it also
prints how far the second median moved from the first in the metric's bad
direction.  Exits 1 when any run is incorrect, when a spread other than
setup_s reaches its bound, or when a second median is worse by more than
the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    """One untraced run: its JSON result and its reference-loop times."""
    lines = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout.strip().splitlines()
    reference = [float(l.split("=")[1].split()[0]) for l in lines
                 if l.startswith("# reference_loop_ms")]
    return json.loads(lines[-1]), reference


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--sets", type=int, default=1)
    a = p.parse_args()
    bad = False
    for workload in a.workloads.split(","):
        sets = []
        for _ in range(a.sets):
            results = [run_once(workload, s, spec["run_seconds"])
                       for s in a.seeds]
            runs = [r for r, _ in results]
            bad |= not all(r["correct"] and r["failed"] == 0 for r in runs)
            sets.append(runs)
            print(f"== {workload}: reference_loop_ms before/after each run: "
                  + " ".join(f"{b:.0f}/{e:.0f}" for _, (b, e) in results))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                iqr = (q3 - q1) / med
                medians.append(med)
                flag = "" if name == "setup_s" or iqr < bound else "  SPREAD"
                bad |= bool(flag)
                print(f"  {name:14s} median {med:12.4f}  iqr/median {iqr:6.3f}"
                      f"  (bound {bound}, third {bound / 3:.3f}){flag}")
                print("    runs: " + " ".join(f"{v:.4g}" for v in values))
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "  DRIFT" if worse > bound else ""
                bad |= bool(flag)
                print(f"    second median worse by {worse:+.3f}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
