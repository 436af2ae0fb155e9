#!/usr/bin/env python3
"""Inverted-pendulum study: expert-mimicking data from PI controllers,
inverse-model fit, certificate families, 500-step closed-loop runs, and
artifact verification after each seed.

Noise-free by default; ``--noisy`` switches to the measurement-noise study
(ridge fit on noise-corrupted data, noisy online measurements), and
``--seeds N`` repeats it over N noise seeds to gauge robustness.

Usage: python scripts/run_pendulum.py [--noisy] [--seeds 10] [--out DIR]
"""

import argparse
import sys

import numpy as np

from invctrl import pipeline
from invctrl.config import default_config


def run_once(outdir, seed, noisy):
    """(closed-loop results, verify passed) for one seed."""
    cfg = default_config("pendulum")
    cfg.outdir = outdir
    cfg.seed = seed
    cfg.noisy = noisy
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    pipeline.cmd_build(cfg, log=lambda *a: None)
    results = pipeline.cmd_simulate(cfg, log=lambda *a: None)
    return results, pipeline.cmd_verify(cfg)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/pendulum")
    ap.add_argument("--noisy", action="store_true")
    ap.add_argument("--seeds", type=int, default=1,
                    help="number of noise seeds (noisy mode)")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    if args.seeds != 1 and not args.noisy:
        ap.error("--seeds needs --noisy: the noise-free study is deterministic")

    seeds = range(args.seeds) if args.noisy else [0]
    all_ok = True
    for seed in seeds:
        out = args.out if len(list(seeds)) == 1 else f"{args.out}_seed{seed}"
        results, verified = run_once(out, seed, args.noisy)
        all_ok = all_ok and verified
        print(f"\nseed {seed} ({'noisy' if args.noisy else 'noise-free'})")
        print(f"{'initial condition':>22} {'metric':>10} {'certified':>10} "
              f"{'heuristic':>10} {'|y| tail (t>=400)':>18}")
        for r in results:
            tail = np.abs(r.outputs[401:]).max()
            ic = ",".join(format(v, "g") for v in r.initial_condition)
            print(f"{ic:>22} {r.rmse:>10.6f} {r.certified_fraction:>10.1%} "
                  f"{r.heuristic_fraction:>10.1%} {tail:>18.4f}")
            all_ok = all_ok and r.rmse <= 0.08 and tail <= 0.1
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
