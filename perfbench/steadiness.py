#!/usr/bin/env python3
"""Steadiness report: runs one workload repeatedly and summarises it.

  python3 perfbench/steadiness.py --workload tissue --runs 10
  python3 perfbench/steadiness.py --workload ionic --runs 10 \
      --checkout ../parent --checkout .

Each run uses the next seed (--first-seed, --first-seed + 1, ...). Given
two checkouts, every seed runs on both, alternating which goes first, so
host drift lands on both sides alike. For each end-to-end metric the
report prints the median, the quartiles (Python's statistics.quantiles,
n=4), min and max, and the quartile spread as a share of the median next
to the metric's bound in BENCHMARK.json. With two checkouts it also
prints the second's median relative to the first's and how many pairs
the second won. Raw results go to --out as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed in %s: %s" % (checkout, " ".join(cmd)))
    return json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--checkout", action="append", default=[],
                    help="checkout root to run in (repeat for two builds)")
    ap.add_argument("--out", default=None, help="append raw results here")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    checkouts = [os.path.abspath(c) for c in a.checkout] or [ROOT]

    results = {c: [] for c in checkouts}
    for i in range(a.runs):
        seed = a.first_seed + i
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for c in order:
            r = run_once(c, a.workload, seed, seconds)
            results[c].append(r)
            if a.out:
                with open(a.out, "a") as f:
                    f.write(json.dumps({"checkout": c, "workload": a.workload,
                                        "seed": seed, "result": r}) + "\n")
            print("seed %d %s: correct=%s failed=%d" %
                  (seed, os.path.basename(c) or c, r["correct"], r["failed"]),
                  file=sys.stderr)

    names = list(results[checkouts[0]][0]["metrics"])
    for c in checkouts:
        rs = results[c]
        print("== %s  workload %s  runs %d  all correct: %s" %
              (c, a.workload, len(rs), all(r["correct"] for r in rs)))
        print("%-26s %14s %14s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread",
               "bound"))
        for n in names:
            s = summarise([r["metrics"][n]["value"] for r in rs])
            b = bounds.get(n)
            print("%-26s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %6s" %
                  (n, s["median"], s["q1"], s["q3"], s["min"], s["max"],
                   s["spread"], "-" if b is None else b))
    if len(checkouts) == 2:
        base, change = checkouts
        better = {m["name"]: m["better"]
                  for m in bench["end_to_end"]}
        print("== %s relative to %s" % (change, base))
        for n in names:
            va = [r["metrics"][n]["value"] for r in results[base]]
            vb = [r["metrics"][n]["value"] for r in results[change]]
            ma, mb = statistics.median(va), statistics.median(vb)
            higher = better.get(n) == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(va, vb))
            print("%-26s %8.4f  change won %d of %d pairs" %
                  (n, mb / ma if ma else 0.0, wins, len(va)))


if __name__ == "__main__":
    main()
