#!/usr/bin/env python3
"""CI perf-regression gate over LIMPET_BENCH_STATS NDJSON records.

Compares freshly produced NDJSON stats (see docs/OBSERVABILITY.md) against
a blessed baseline checked into bench/baselines/, keyed by (bench, model,
config, threads, cells, steps, isa). The compared metric is
ns_per_cell_step (falling back to wall seconds for telemetry-off builds,
where the kernel counters are all zero). Duplicate records for one key are
min-aggregated — the fastest observation is the least noisy estimate of
the machine's capability. Every metric is lower-is-better.

isa is the host ISA the backend registry probed ("avx512", "avx2", ...).
A record matches the baseline row of its own ISA, else a row that names
no ISA (rows blessed before records carried one), which matches a run of
any ISA. So a row blessed on one ISA never gates a runner of another:
there it shows as NEW.

Ratio rows: from the records of ONE run, each fig2 model also gets the
native tier's time over the VM's, the vec8/aosoa/fastmath/lut+native ns
over the vec8/aosoa/fastmath/lut ns. Runner speed cancels in a ratio of
two records of the same process, so ratio rows gate at a fixed 25%
whatever LIMPET_BENCH_TOLERANCE_PCT says. --bless writes them into the
baseline, taken from the blessed runs themselves. Models outside
RATIO_MODELS get ratio rows in the report but none in a blessed baseline.

Several CURRENT files are several runs of one protocol: absolute rows take
the minimum over all of them, ratio rows the median of the runs' ratios.

Exit status: 0 when every matched key is within the tolerance, 1 on any
regression beyond it (or on malformed input). New keys (no baseline entry)
and retired keys (baseline only) are reported but never fail the gate, so
adding a bench does not require re-blessing in the same commit.

Usage:
  bench_compare.py CURRENT.ndjson... [--baseline PATH] [--bless] [--dry-run]
  bench_compare.py --selftest

  --baseline PATH  baseline NDJSON (default: bench/baselines/ci-smoke.ndjson)
  --bless          overwrite the baseline with CURRENT's aggregated records
                   and its ratio rows
  --dry-run        run the full comparison but always exit 0 (for noisy
                   shared runners where the numbers are advisory)
  --selftest       exercise the gate on synthetic records, including an
                   injected regression and an injected ratio regression
                   that must fail; exits non-zero if the gate misbehaves

Tolerance: LIMPET_BENCH_TOLERANCE_PCT (default 25) for absolute rows; a key
regresses when current > baseline * (1 + tolerance/100). Ratio rows always
use RATIO_TOLERANCE_PCT (25).
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BASELINE = os.path.join("bench", "baselines", "ci-smoke.ndjson")
KEY_FIELDS = ("bench", "model", "config", "threads", "cells", "steps")
RATIO_METRIC = "native_over_vm"
RATIO_TOLERANCE_PCT = 25.0
# (numerator config, denominator config) of a ratio row.
NATIVE_OVER_VM = ("vec8/aosoa/fastmath/lut+native", "vec8/aosoa/fastmath/lut")
# Models whose ratio rows --bless writes. On a shared host Courtemanche's
# vector-VM row runs up to 1.5x faster in some stretches of time than in
# others, within one process as across processes, while its native row
# moves far less: a swing wider than the 25% its ratio would be held to.
RATIO_MODELS = ("HodgkinHuxley",)


def tolerance_pct():
    raw = os.environ.get("LIMPET_BENCH_TOLERANCE_PCT", "25")
    try:
        value = float(raw)
    except ValueError:
        sys.exit(f"bench_compare: LIMPET_BENCH_TOLERANCE_PCT={raw!r} "
                 "is not a number")
    if value < 0:
        sys.exit("bench_compare: LIMPET_BENCH_TOLERANCE_PCT must be >= 0")
    return value


def key_of(rec):
    """The record's key; its last field, the ISA, is None when unrecorded."""
    return tuple(rec[k] for k in KEY_FIELDS) + (rec.get("isa"),)


def metric_of(rec):
    """A ratio row's ratio; else ns/cell-step when the telemetry counters
    saw work; else seconds."""
    if RATIO_METRIC in rec:
        return float(rec[RATIO_METRIC]), RATIO_METRIC
    ns = rec.get("ns_per_cell_step", 0)
    if ns and ns > 0:
        return float(ns), "ns_per_cell_step"
    return float(rec.get("seconds", 0)), "seconds"


def read_records(path):
    """Parses one NDJSON file into its list of records."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"bench_compare: {path}:{lineno}: bad JSON: {e}")
        missing = [k for k in KEY_FIELDS if k not in rec]
        if missing:
            sys.exit(f"bench_compare: {path}:{lineno}: record lacks "
                     f"{missing} (is this a LIMPET_BENCH_STATS file?)")
        records.append(rec)
    return records


def aggregate(records):
    """{key: (metric, metric_name, record)}, min-aggregated per key."""
    best = {}
    for rec in records:
        key = key_of(rec)
        value, name = metric_of(rec)
        if value <= 0:
            continue  # no timing signal (e.g. zero-step smoke record)
        if key not in best or value < best[key][0]:
            best[key] = (value, name, rec)
    return best


def derive_ratios(run):
    """Ratio rows {key: (ratio, RATIO_METRIC, record)} from the native and
    VM rows of one run (an aggregate() of one file)."""
    native_cfg, vm_cfg = NATIVE_OVER_VM
    ratios = {}
    for key, (native, name, rec) in run.items():
        if key[2] != native_cfg:
            continue
        vm = run.get(key[:2] + (vm_cfg,) + key[3:])
        if vm is None or vm[1] != name:
            continue
        ratio = {k: rec[k] for k in KEY_FIELDS}
        ratio["config"] = native_cfg + " / " + vm_cfg
        if key[-1] is not None:
            ratio["isa"] = key[-1]
        ratio[RATIO_METRIC] = native / vm[0]
        ratios[key_of(ratio)] = (ratio[RATIO_METRIC], RATIO_METRIC, ratio)
    return ratios


def median_ratios(runs):
    """Each ratio row's median over the runs (a list of aggregate()s)."""
    per_key = {}
    for run in runs:
        for key, (_, _, rec) in derive_ratios(run).items():
            per_key.setdefault(key, []).append(rec)
    ratios = {}
    for key, recs in per_key.items():
        rec = dict(recs[0])
        rec[RATIO_METRIC] = statistics.median(r[RATIO_METRIC] for r in recs)
        ratios[key] = (rec[RATIO_METRIC], RATIO_METRIC, rec)
    return ratios


def key_str(key):
    bench, model, config, threads, cells, steps, isa = key
    return (f"{bench}/{model}/{config} threads={threads} "
            f"cells={cells} steps={steps}" + (f" isa={isa}" if isa else ""))


def bless(current, ratios, path):
    gated = {k: v for k, v in ratios.items() if k[1] in RATIO_MODELS}
    rows = {**current, **gated}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        for key in sorted(rows, key=str):
            f.write(json.dumps(rows[key][2], sort_keys=True) + "\n")
    print(f"bench_compare: blessed {len(current)} records and {len(gated)} "
          f"ratio rows into {path}")


def compare(current, baseline, tol_pct, out=sys.stdout):
    """Returns the list of regressed keys; prints a per-key report. A key
    is compared with the baseline row of its ISA, else the one naming no
    ISA."""
    regressed = []
    matched = set()
    for key in sorted(current, key=str):
        cur_value, cur_name, _ = current[key]
        base_key = key if key in baseline else key[:-1] + (None,)
        if base_key not in baseline:
            print(f"  NEW      {key_str(key)} ({cur_name} {cur_value:.4g})",
                  file=out)
            continue
        matched.add(base_key)
        base_value, base_name, _ = baseline[base_key]
        if base_name != cur_name:
            # Metric availability changed (telemetry toggled); the numbers
            # are not comparable, so report and move on.
            print(f"  SKIP     {key_str(key)} (metric changed: "
                  f"{base_name} -> {cur_name})", file=out)
            continue
        ratio = cur_value / base_value
        ok = ratio <= 1.0 + tol_pct / 100.0
        tag = "OK" if ok else "REGRESSED"
        print(f"  {tag:9}{key_str(key)}: {base_name} "
              f"{base_value:.4g} -> {cur_value:.4g} "
              f"({(ratio - 1.0) * 100.0:+.1f}%)", file=out)
        if not ok:
            regressed.append(key)
    for key in sorted(baseline, key=str):
        if key not in matched:
            print(f"  RETIRED  {key_str(key)} (baseline only)", file=out)
    print(f"bench_compare: {len(matched)} matched, {len(regressed)} "
          f"regressed (tolerance {tol_pct:g}%)", file=out)
    return regressed


def gate(runs, baseline_records, tol_pct, out=sys.stdout):
    """The full gate: absolute rows of every run against the baseline's at
    tol_pct, then the runs' median ratio rows against its ratio rows at
    RATIO_TOLERANCE_PCT. Returns the regressed keys."""
    current = aggregate(r for run in runs for r in run)
    baseline = aggregate(baseline_records)
    rows = {k: v for k, v in baseline.items() if v[1] != RATIO_METRIC}
    ratios = {k: v for k, v in baseline.items() if v[1] == RATIO_METRIC}
    regressed = compare(current, rows, tol_pct, out)
    print("bench_compare: ratio rows (native ns over VM ns within a run):",
          file=out)
    regressed += compare(median_ratios([aggregate(run) for run in runs]),
                         ratios, RATIO_TOLERANCE_PCT, out)
    return regressed


def selftest():
    """The gate must pass on parity, fail on an injected regression."""
    def rec(model, ns, seconds=1.0, config="V4", isa=None):
        r = {"bench": "selftest", "model": model, "config": config,
             "threads": 1, "cells": 256, "steps": 20,
             "seconds": seconds, "ns_per_cell_step": ns}
        if isa:
            r["isa"] = isa
        return r

    sink = open(os.devnull, "w")
    failures = []

    def fails(runs, base, tol=25):
        return bool(gate(runs, base, tol, sink))

    base = [rec("HodgkinHuxley", 10.0), rec("Courtemanche", 50.0)]
    if fails([[rec("HodgkinHuxley", 10.0), rec("Courtemanche", 50.0)]], base):
        failures.append("parity flagged as regression")
    # Injected regression: 2x slower must trip a 25% gate.
    if not fails([[rec("HodgkinHuxley", 20.0), rec("Courtemanche", 50.0)]],
                 base):
        failures.append("2x regression not detected")
    # Within tolerance and improvements must pass.
    if fails([[rec("HodgkinHuxley", 11.0), rec("Courtemanche", 40.0)]], base):
        failures.append("in-tolerance change flagged")
    # Min-aggregation: a noisy slow repeat next to a fast one must not trip.
    if fails([[rec("HodgkinHuxley", 30.0), rec("HodgkinHuxley", 9.0),
               rec("Courtemanche", 50.0)]], base):
        failures.append("min-aggregation not applied")
    # New and retired keys are advisory only.
    if fails([[rec("HodgkinHuxley", 10.0), rec("OHara", 99.0)]], base):
        failures.append("new/retired keys failed the gate")
    # Telemetry-off records fall back to seconds and still gate.
    if not fails([[rec("HodgkinHuxley", 0, seconds=2.0)]],
                 [rec("HodgkinHuxley", 0, seconds=1.0)]):
        failures.append("seconds-fallback regression not detected")
    # A row that names no ISA gates a run of any ISA.
    if not fails([[rec("HodgkinHuxley", 20.0, isa="avx2")]], base):
        failures.append("ISA-less baseline row did not gate a tagged run")
    # A row blessed on one ISA never gates a run of another: 2x is NEW.
    tagged = [rec("HodgkinHuxley", 10.0, isa="avx512")]
    if fails([[rec("HodgkinHuxley", 20.0, isa="avx2")]], tagged):
        failures.append("row of another ISA gated the run")
    if not fails([[rec("HodgkinHuxley", 20.0, isa="avx512")]], tagged):
        failures.append("row of the run's own ISA did not gate it")
    if not fails([[rec("HodgkinHuxley", 20.0, isa="avx512")]],
                 tagged + [rec("HodgkinHuxley", 40.0)]):
        failures.append("ISA-less row preferred over the run's own ISA")

    # Ratio rows: native over VM of one run, blessed from the bless runs.
    native_cfg, vm_cfg = NATIVE_OVER_VM

    def fig2(vm_ns, native_ns):
        return [rec("HodgkinHuxley", vm_ns, config=vm_cfg, isa="avx512"),
                rec("HodgkinHuxley", native_ns, config=native_cfg,
                    isa="avx512")]

    # Blessed ratio: the median of three runs' 0.45, 0.40 and 0.60 ratios.
    blessed = median_ratios([aggregate(fig2(240.0, 108.0)),
                             aggregate(fig2(250.0, 100.0)),
                             aggregate(fig2(200.0, 120.0))])
    if [entry[0] for entry in blessed.values()] != [0.45]:
        failures.append("blessed ratio is not the runs' median")
    base_ratio = fig2(240.0, 108.0) + [e[2] for e in blessed.values()]
    # Injected ratio regression: native 1.5x slower next to an unchanged VM
    # row must trip it, even where CI's 300% absolute tolerance would not.
    if not fails([fig2(240.0, 162.0)], base_ratio, tol=300):
        failures.append("ratio regression not detected")
    # A runner 2x slower on both rows keeps the ratio: must pass.
    if fails([fig2(480.0, 216.0)], base_ratio, tol=300):
        failures.append("uniformly slower runner flagged as ratio regression")
    # A faster native row lowers the ratio: must pass.
    if fails([fig2(240.0, 60.0)], base_ratio, tol=300):
        failures.append("ratio improvement flagged")

    for f in failures:
        print(f"selftest FAIL: {f}")
    if failures:
        return 1
    print("bench_compare selftest: 14 checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(add_help=True)
    parser.add_argument("current", nargs="*",
                        help="fresh NDJSON stats files, one per run")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--bless", action="store_true")
    parser.add_argument("--dry-run", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.current:
        parser.error("CURRENT.ndjson is required (or use --selftest)")

    runs = [read_records(path) for path in args.current]
    current = aggregate(r for run in runs for r in run)
    if not current:
        sys.exit(f"bench_compare: {' '.join(args.current)} has no usable "
                 "records")
    if args.bless:
        bless(current, median_ratios([aggregate(run) for run in runs]),
              args.baseline)
        return 0
    if not os.path.exists(args.baseline):
        sys.exit(f"bench_compare: no baseline at {args.baseline} "
                 "(create one with --bless)")
    regressed = gate(runs, read_records(args.baseline), tolerance_pct())
    if regressed and args.dry_run:
        print("bench_compare: --dry-run, regressions reported but not fatal")
        return 0
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
