#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and compare their medians.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --seeds a,b,... [--json PATH]

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
metric's ``bound`` (a share of the parent's median), else ``-``.  With
``--json PATH`` the same figures, every pair's values, the seeds, each
side's environment and each side's ``src_sha256`` are also stored under the
workload's name in that JSON file, next to any other workload it holds.
``src_sha256`` names the code a side ran, also in a tree without git
metadata: the SHA-256 of its ``src/invctrl/*.py`` files joined in sorted
order, as ``cat src/invctrl/*.py | sha256sum`` prints it under ``LC_ALL=C``.  Runs write nothing in either
checkout beyond perfbench's own work directory (bytecode caching is off).  Exits 1 if a run fails or reports ``correct``
false, else 0.
"""

import argparse
import hashlib
import json
import os
import platform
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
    res = json.loads(lines[-1])
    res["environment"] = next((json.loads(line[4:]) for line in lines
                               if line.startswith("ENV ")), None)
    return res


def src_sha256(checkout):
    """SHA-256 hex digest of ``src/invctrl/*.py`` in ``checkout``, the
    files' bytes joined in sorted name order."""
    digest = hashlib.sha256()
    for path in sorted((Path(checkout) / "src" / "invctrl").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compare(metrics, results):
    """Per metric with values on both sides: its verdict, both medians, the
    parent's quartiles, the median change, the wins and ties, and the pairs."""
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
        gained = med_old - med_new if lower else med_new - med_old
        verdict = ("gain" if 10 * wins >= 9 * len(pairs) and gained > q3 - q1
                   else "worse" if -gained > m["bound"] * abs(med_old) else "-")
        rows.append({
            "name": name, "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "verdict": verdict, "parent_median": float(med_old), "parent_q1": float(q1),
            "parent_q3": float(q3), "change_median": float(med_new),
            "change_pct": 100.0 * float(med_new - med_old) / med_old if med_old else 0.0,
            "wins": wins, "ties": int(np.sum(new == old)), "pairs": [list(p) for p in pairs],
        })
    return rows


def summary(metrics, results):
    """One line per metric of ``compare``, verdict first."""
    return [f"{r['verdict']:5s} {r['name']:14s} {r['unit']:3s} parent {r['parent_median']:.6g} "
            f"[q1 {r['parent_q1']:.6g}, q3 {r['parent_q3']:.6g}, "
            f"iqr {r['parent_q3'] - r['parent_q1']:.3g}]  change {r['change_median']:.6g} "
            f"({r['change_pct']:+.1f} %)  wins {r['wins']}/{len(r['pairs'])}"
            + (f" ties {r['ties']}" if r["ties"] else "")
            for r in compare(metrics, results)]


def write_json(path, workload, seeds, metrics, results, sources):
    """Store ``compare``'s rows, the seeds, each side's environment (the
    ``ENV`` line of its first run) and ``sources``, each side's
    ``src_sha256``, under ``workload`` in the JSON file at ``path``; other
    workloads already in the file are kept."""
    path = Path(path)
    doc = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    doc["workloads"][workload] = {
        "seeds": list(seeds),
        "environment": {side: next((r.get("environment") for r in runs), None)
                        for side, runs in zip(("parent", "change"), zip(*results))},
        "src_sha256": dict(sources),
        "host": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "metrics": compare(metrics, results),
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--json", metavar="PATH",
                    help="also store the comparison under the workload in this JSON file")
    args = ap.parse_args(argv)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"{side} {path} holds no perfbench/run.py")
    sources = {side: src_sha256(path) for side, path in sides.items()}
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
    if args.json:
        write_json(args.json, args.workload, seeds, spec["end_to_end"], results, sources)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
