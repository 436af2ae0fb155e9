"""Command-line entry point.

Subcommands: ``collect``, ``build``, ``simulate``, ``verify``, ``report``.
Exit codes: 0 success, 1 property/report failure, 2 bad config or artifact,
141 (a shell's SIGPIPE code) when stdout closes early, as in ``... | head -1``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, default_config, load_config
from .interpolant import FitError
from .pipeline import cmd_build, cmd_collect, cmd_report, cmd_simulate, cmd_verify

_STAGES = {
    "collect": cmd_collect,
    "build": cmd_build,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "report": cmd_report,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="invctrl",
        description="Certified inverse-model control of NARX benchmarks.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in _STAGES.items():
        sp = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        sp.add_argument("--config", help="config file (key=value sections)")
        sp.add_argument("--plant", choices=["numerical", "pendulum"],
                        help="benchmark plant; defaults come from it")
        sp.add_argument("--seed", type=int, help="override the run seed")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--noisy", action="store_true",
                        help="measurement-noise study (pendulum)")
    return p


def resolve_config(args):
    if args.config:
        cfg = load_config(args.config, base_plant=args.plant)
    elif args.plant:
        cfg = default_config(args.plant)
    else:
        raise ConfigError("pass --config and/or --plant")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.outdir = args.out
    if args.noisy:
        cfg.noisy = True
    return cfg.validate()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    stage = _STAGES[args.command]
    try:
        result = stage(cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except (ConfigError, FitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # not a bad artifact; the final flush must not raise again
        sys.stdout = open(os.devnull, "w")
        return 141
    except OSError as exc:  # a missing file, or one that cannot be read (say, a directory)
        hint = (f"; run the earlier pipeline stages into {cfg.outdir} first"
                if isinstance(exc, FileNotFoundError) else "")
        print(f"{'missing' if hint else 'unreadable'} artifact: {exc}{hint}", file=sys.stderr)
        return 2
    if args.command in ("verify", "report") and result is not True:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
