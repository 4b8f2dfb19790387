"""Steadiness check: two sets of runs of every workload, compared.

    python3 perfbench/steady.py --runs 10

Set A uses seeds 1..N, set B seeds N+1..2N, every run a fresh
``run.py --trace 0`` of every workload in ``BENCHMARK.json`` at its
``run_seconds``.  For each (workload, end-to-end metric) it prints each
set's median and quartiles, the spread (interquartile distance ÷
median), and whether the two sets agree: their medians differ by at most
the metric's bound in ``BENCHMARK.json``, in either direction, and each
set's spread is within the bound.  It also checks that every run is
correct and that both sets fail the same share of operations.  The
bounds were set from its output and can be re-checked with it.  Raw
results go to ``.perfbench/steady.json``.  Exits 1 when anything
disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAVED = os.path.join(ROOT, ".perfbench", "steady.json")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="two-set steadiness check")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = {"A": [], "B": []}
        for set_name, first_seed in (("A", 1), ("B", args.runs + 1)):
            for seed in range(first_seed, first_seed + args.runs):
                results[workload][set_name].append(
                    one_run(workload, seed, spec["run_seconds"])
                )
                print(f"{workload} set {set_name} seed {seed}: done", file=sys.stderr)
    os.makedirs(os.path.dirname(SAVED), exist_ok=True)
    with open(SAVED, "w") as out:
        json.dump(results, out)

    ok = True
    print(f"{'workload':15} {'metric':24} {'set':3} {'q1':>10} {'median':>10} {'q3':>10}"
          f" {'spread':>7} {'bound':>6}  verdict")
    for workload, sets in results.items():
        shares = {
            name: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for name, runs in sets.items()
        }
        if shares["A"] != shares["B"] or not all(r["correct"] for rs in sets.values() for r in rs):
            ok = False
            print(f"{workload}: failed share A={shares['A']} B={shares['B']} or a run incorrect")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for set_name, runs in sets.items():
                q1, median, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in runs], n=4
                )
                medians[set_name] = median
                spread = (q3 - q1) / median
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "SPREAD", False
                elif spread > bound / 3:
                    verdict = "wide (> bound/3)"
                print(f"{workload:15} {name:24} {set_name:3} {q1:10.4g} {median:10.4g}"
                      f" {q3:10.4g} {spread:7.3f} {bound:6.2f}  {verdict}")
            change = (medians["B"] - medians["A"]) / medians["A"]
            agree = abs(change) <= bound
            ok = ok and agree
            print(f"{workload:15} {name:24} B vs A median {change:+.3f}: "
                  f"{'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
