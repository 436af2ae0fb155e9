#!/usr/bin/env python3
"""Run the three studies from two source trees and compare their outputs.

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC [--keep DIR]

Each tree is a checkout (holding ``src/invctrl``) or a directory holding
``invctrl`` itself.  For each tree, in a temporary directory, the numerical
study, the noise-free pendulum study and the noisy pendulum study run with
``--seed 3`` through the CLI stages collect, build, simulate, verify and
report.  Every output file (trajectory table, model, families, build report,
run logs, summary, verify report) is then compared byte for byte, as is each
stage's exit code; stdout is not, since it carries wall-clock timings.  A
differing run log (``runs/*.csv``) is named with the columns that differ,
read from its header, and on how many rows each, for example
``runs/ic_04.csv differs in slack (1 row)``.  A differing ``summary.txt``
whose lines carry the same ``ic_NN`` tags is named with the fields that
differ, and on how many lines each; a field on one side only is named as
added or removed, for example ``summary.txt differs in certified (4 lines),
heuristic added (4 lines)``.  When one tree still writes the
older trajectory layout (``manifest.txt`` plus ``trajectories/traj_NNNN.csv``)
and the other ``trajectories.csv``, the table is rebuilt from the older files
and compared byte for byte with the new one: a match is reported as a layout
change with identical contents, a mismatch names the first differing
trajectory and row.  For each study and tree it also
prints the artifact bytes: ``model.txt`` plus everything under ``families/``,
the quantity perfbench reports as ``artifact_mb``.  Exits 0 when everything
matches and 1 after naming each difference.  With ``--keep DIR`` the outputs
stay in ``DIR/old/<study>`` and ``DIR/new/<study>`` instead of a temporary
directory.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

STUDIES = {
    "numerical": ["--plant", "numerical"],
    "pendulum": ["--plant", "pendulum"],
    "pendulum-noisy": ["--plant", "pendulum", "--noisy"],
}
STAGES = ("collect", "build", "simulate", "verify", "report")
SEED = "3"


def package_root(tree):
    tree = Path(tree).resolve()
    for root in (tree / "src", tree):
        if (root / "invctrl" / "__init__.py").is_file():
            return root
    sys.exit(f"compare_outputs: no invctrl package under {tree}")


def run_study(root, args, out):
    """Run every stage into ``out``; returns the exit codes by stage."""
    env = dict(os.environ, PYTHONPATH=str(root))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # reductions summed in one order on any host
    codes = {}
    for stage in STAGES:
        cmd = [sys.executable, "-m", "invctrl.cli", stage, *args,
               "--seed", SEED, "--out", str(out)]
        codes[stage] = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL).returncode
    return codes


def files_under(top):
    return {str(p.relative_to(top)) for p in Path(top).rglob("*") if p.is_file()}


def artifact_bytes(top):
    """Bytes of ``model.txt`` and of every file under ``families/`` in ``top``."""
    paths = [Path(top, "model.txt"), *Path(top, "families").rglob("*")]
    return sum(p.stat().st_size for p in paths if p.is_file())


def column_diff(old_path, new_path):
    """``in <column> (<n> rows), ...`` for two run logs that differ only in
    cells, else None: the ``#`` lines, the header and the row count must match."""
    old, new = (Path(p).read_text().splitlines() for p in (old_path, new_path))
    start = next((k for k, line in enumerate(old) if not line.startswith("#")), len(old))
    if len(old) != len(new) or old[:start + 1] != new[:start + 1] or start == len(old):
        return None
    counts = dict.fromkeys(old[start].split(","), 0)
    for a, b in zip(old[start + 1:], new[start + 1:]):
        a, b = a.split(","), b.split(",")
        if len(a) != len(counts) or len(b) != len(counts):
            return None
        for name, x, y in zip(counts, a, b):
            counts[name] += x != y
    return "in " + ", ".join(f"{name} ({_plural(n, 'row')})" for name, n in counts.items() if n)


def _plural(n, noun):
    return f"{n} {noun}{'s' if n != 1 else ''}"


def summary_diff(old_path, new_path):
    """``in <field> (<n> lines), <field> added (<n> lines), ...`` for two
    summaries whose lines carry the same ``ic_NN`` tags in the same order,
    else None.  A field is ``added`` or ``removed`` when it is absent from
    every line of one side."""
    old, new = ([line.partition(":") for line in Path(p).read_text().splitlines()]
                for p in (old_path, new_path))
    if [tag for tag, _, _ in old] != [tag for tag, _, _ in new]:
        return None
    counts, names = {}, [set(), set()]
    for (_, _, a), (_, _, b) in zip(old, new):
        a, b = (dict(tok.partition("=")[::2] for tok in rest.split()) for rest in (a, b))
        names[0].update(a)
        names[1].update(b)
        for name in {**a, **b}:
            counts[name] = counts.get(name, 0) + (a.get(name) != b.get(name))
    parts = []
    for name, n in counts.items():
        change = " added" if name not in names[0] else " removed" if name not in names[1] else ""
        if n:
            parts.append(f"{name}{change} ({_plural(n, 'line')})")
    return "in " + ", ".join(parts) if parts else None


def table_text(top):
    """The trajectory table of output directory ``top`` as text: its
    ``trajectories.csv``, else the table rebuilt from the older layout's
    ``manifest.txt`` and ``trajectories/traj_NNNN.csv`` files."""
    top = Path(top)
    if (top / "trajectories.csv").is_file():
        return (top / "trajectories.csv").read_text()
    pairs = [line.partition("=")[::2] for line in (top / "manifest.txt").read_text().splitlines()]
    pairs = [(key.strip(), val.strip()) for key, val in pairs]
    lines = ["# " + " ".join(f"{key}={val}" for key, val in pairs if key != "file")]
    for k, name in enumerate(val for key, val in pairs if key == "file"):
        head, *rows = (top / "trajectories" / name).read_text().splitlines()
        lines += [f"traj,{head}"] * (k == 0) + [f"{k},{row}" for row in rows]
    return "\n".join(lines) + "\n"


def table_diff(old, new):
    """Where two trajectory table texts first differ: ``the comment``, ``the
    header`` or ``trajectory K row T``; None when they are equal."""
    for k, (a, b) in enumerate(zip_longest(old.splitlines(), new.splitlines())):
        if a != b:
            if k < 2:
                return ("the comment", "the header")[k]
            traj, t = ((a or b).split(",") + ["?", "?"])[:2]
            return f"trajectory {traj} row {t}"
    return None


def compare_dirs(name, old, new):
    """Differences between output directories ``old`` and ``new`` of study
    ``name``, as readable lines."""
    diffs = []
    old_files, new_files = files_under(old), files_under(new)
    if ("manifest.txt" in old_files) != ("manifest.txt" in new_files):
        where = table_diff(table_text(old), table_text(new))
        if where:
            diffs.append(f"{name}: trajectory layout differs, and its contents at {where}")
        else:
            print(f"{name}: trajectory layout differs, contents identical")
        for files in (old_files, new_files):
            files -= {rel for rel in files if rel in ("manifest.txt", "trajectories.csv")
                      or Path(rel).parts[0] == "trajectories"}
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            side = "new" if rel not in new_files else "old"
            diffs.append(f"{name}: {rel} missing from the {side} tree")
        elif not filecmp.cmp(old / rel, new / rel, shallow=False):
            if Path(rel).match("runs/*.csv"):
                named = column_diff(old / rel, new / rel)
            else:
                named = summary_diff(old / rel, new / rel) if rel == "summary.txt" else None
            diffs.append(f"{name}: {rel} differs" + (f" {named}" if named else ""))
    return diffs


def compare(old_root, new_root, work):
    """Differences between the two trees' studies, as readable lines."""
    diffs = []
    for name, args in STUDIES.items():
        old, new = Path(work, "old", name), Path(work, "new", name)
        old_codes = run_study(old_root, args, old)
        new_codes = run_study(new_root, args, new)
        for stage in STAGES:
            if old_codes[stage] != new_codes[stage]:
                diffs.append(f"{name}: {stage} exit code "
                             f"{old_codes[stage]} -> {new_codes[stage]}")
        diffs += compare_dirs(name, old, new)
        print(f"{name}: {len(files_under(old))} files compared, exit codes "
              + " ".join(f"{s}={old_codes[s]}" for s in STAGES))
        print(f"{name}: artifact bytes old {artifact_bytes(old)} new {artifact_bytes(new)}")
    return diffs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--keep", metavar="DIR", help="keep the study outputs in DIR")
    args = ap.parse_args(argv)
    old_root, new_root = package_root(args.old_src), package_root(args.new_src)
    if args.keep:
        diffs = compare(old_root, new_root, args.keep)
    else:
        with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
            diffs = compare(old_root, new_root, work)
    for line in diffs:
        print(f"DIFFERS {line}")
    print("identical" if not diffs else f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
