#!/usr/bin/env python3
"""Benchmark of the invctrl studies, end to end and layer by layer.

One run, in a fresh process, repeats one workload's study (collect -> build
-> simulate -> verify -> report) on inputs drawn from ``--seed``: it runs
one study, then another while the last one's duration says it will end
within the run length, ``run_seconds`` of BENCHMARK.json.  It checks every
closed loop against digests recorded on the seed code, prints each metric
with its unit and sample count, and ends with one JSON line::

    python3 perfbench/run.py --workload pendulum-clean --seed 3 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every
layer's public entry points and reports the per-layer metrics instead.
``--seconds`` is accepted because the benchmark's command line carries it,
but it must equal ``run_seconds``: the bounds hold only for that length.

Other modes:

    --all [--seeds 0,1,2]   every workload per seed untraced, plus traced
                            runs of the first three seeds; prints medians,
                            quartile spreads against the bounds and the
                            tracing overhead, compares counts between
                            runs, writes BENCHMARK.json
    --selftest              each workload at minimal size: every metric is
                            emitted with its unit, and the gate fires on a
                            perturbed reference
    --record-reference      re-record reference.json (only on the seed code)
"""

import argparse
import os
import sys
from pathlib import Path

# Pin BLAS threads before numpy loads: steadier timings, and reductions whose
# summation order (hence the recorded digests) does not depend on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated seeds for --all")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "invctrl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no invctrl sources under {src}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import bench

    if args.seconds is not None and args.seconds != bench.RUN_SECONDS:
        ap.error(f"--seconds must be {bench.RUN_SECONDS}, the run length "
                 "the bounds in BENCHMARK.json were set for")
    if args.all:
        return bench.run_all(args.seeds)
    if args.selftest:
        return bench.selftest()
    if args.record_reference:
        return bench.record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    return bench.run_one(args.workload, args.seed, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
