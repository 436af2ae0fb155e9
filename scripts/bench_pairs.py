#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and compare their medians.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --seeds a,b,...

For each seed, ``perfbench/run.py --workload W --seed S --seconds 60 --trace 0``
runs once in each checkout, one after the other: the parent goes first on
even seeds, the change on odd ones, so that a drift of the host does not
favour one side.  Each run's ``correct`` and ``failed`` and its end-to-end
metrics are printed as it ends.  At the end, for every end-to-end metric of
the change's ``BENCHMARK.json``, the script prints a verdict, both medians,
the parent's quartiles and interquartile range, the median change and the
number of pairs in which the change did better.  The verdict is ``gain``
when the change did better in at least 9 of 10 pairs and its median is
better than the parent's by more than the parent's interquartile range,
``worse`` when its median is worse than the parent's by more than the
metric's ``bound`` (a share of the parent's median), else ``-``.  Runs
write nothing in either checkout beyond perfbench's own work directory
(bytecode caching is off).  Exits 1 if a run fails or reports ``correct``
false, else 0.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def run(checkout, workload, seed, seconds):
    """One untraced perfbench run; its result line, or None if it failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summary(metrics, results):
    """Per metric: verdict, parent and change medians, parent quartiles, wins."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in results if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        old, new = np.array(pairs).T
        q1, med_old, q3 = np.percentile(old, [25, 50, 75])
        med_new = np.median(new)
        wins = int(np.sum(new < old if lower else new > old))
        ties = int(np.sum(new == old))
        change = 100.0 * (med_new - med_old) / med_old if med_old else 0.0
        gained = med_old - med_new if lower else med_new - med_old
        verdict = ("gain" if 10 * wins >= 9 * len(pairs) and gained > q3 - q1
                   else "worse" if -gained > m["bound"] * abs(med_old) else "-")
        rows.append(f"{verdict:5s} {name:14s} {m['unit']:3s} parent {med_old:.6g} "
                    f"[q1 {q1:.6g}, q3 {q3:.6g}, iqr {q3 - q1:.3g}]  change {med_new:.6g} "
                    f"({change:+.1f} %)  wins {wins}/{len(pairs)}"
                    + (f" ties {ties}" if ties else ""))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = ap.parse_args(argv)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"{side} {path} holds no perfbench/run.py")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]

    results, ok = [], True
    for seed in seeds:
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            res = run(sides[side], args.workload, seed, spec["run_seconds"])
            if res is None:
                print(f"seed {seed} {side}: run failed", flush=True)
                ok = False
                continue
            pair[side] = res
            ok &= bool(res["correct"]) and res["failed"] == 0
            values = " ".join(f"{n}={v['value']:.6g}" for n, v in res["metrics"].items())
            print(f"seed {seed} {side}: correct={res['correct']} failed={res['failed']} "
                  f"{values}", flush=True)
        if len(pair) == 2:
            results.append((pair["parent"], pair["change"]))

    print(f"\n{args.workload}: {len(results)} pairs, seeds {args.seeds}")
    for line in summary(spec["end_to_end"], results):
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
