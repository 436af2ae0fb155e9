#!/usr/bin/env python3
"""Full closed-form benchmark study: collect data on the initial-state grid,
fit the inverse model, precompute the certificate families, run the closed
loop from the five study initial conditions, and verify the artifacts.

Usage: python scripts/run_numerical.py [--out runs/numerical] [--seed 1]
"""

import argparse
import sys

import numpy as np

from invctrl import pipeline
from invctrl.config import default_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/numerical")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--skip-verify", action="store_true")
    args = ap.parse_args()

    cfg = default_config("numerical")
    cfg.outdir = args.out
    if args.seed is not None:
        cfg.seed = args.seed

    pipeline.cmd_collect(cfg)
    pipeline.cmd_build(cfg)
    results = pipeline.cmd_simulate(cfg)

    print("\nclosed-loop summary")
    print(f"{'initial condition':>22} {'metric':>10} {'certified':>10} {'heuristic':>10} "
          f"{'violations':>11} {'|y| tail':>9}")
    for r in results:
        tail = np.abs(r.outputs[4:]).max()
        ic = ",".join(format(v, "g") for v in r.initial_condition)
        print(f"{ic:>22} {r.rmse:>10.6f} {r.certified_fraction:>10.1%} "
              f"{r.heuristic_fraction:>10.1%} {r.descent_violations:>11d} {tail:>9.4f}")

    if not args.skip_verify:
        ok = pipeline.cmd_verify(cfg)
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
