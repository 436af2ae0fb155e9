#!/usr/bin/env python3
"""Check that split family files hold the stacked tables' values bit for bit.

Usage: python scripts/compare_family_tables.py OLD_DIR NEW_DIR

OLD_DIR holds build outputs in the stacked layout, where each
``families/delta_<tag>.npy`` is one ``(2, levels, records)`` array of
inradii and certified radii; NEW_DIR holds the same studies' outputs in the
split layout: ``families/delta_<tag>.npy``, one ``(levels, records)`` radius
table, and ``families/delta_<tag>.inradius.npy``, the successor inradii of
levels >= 1.  Every ``families`` directory under OLD_DIR is matched with the
one at the same relative path under NEW_DIR (for instance the ``old/`` and
``new/`` trees that ``scripts/compare_outputs.py --keep DIR`` leaves).  For
each family, the new radius table must equal the old level-0 inradius row
over the old certified-radius rows >= 1, and the new inradius table the old
inradius rows >= 1, in shape, dtype and bytes; the two directories must hold
the same families.  Exits 0 when every table matches and 1 after naming each
difference.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

SUFFIX = ".inradius.npy"


def same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def compare_dir(old, new):
    """Differences between one study's stacked and split family files."""
    diffs = []
    old_names = {p.name for p in old.glob("delta_*.npy")}
    new_names = {p.name for p in new.glob("delta_*.npy") if not p.name.endswith(SUFFIX)}
    for name in sorted(old_names ^ new_names):
        diffs.append(f"{name} only in the {'old' if name in old_names else 'new'} tree")
    for name in sorted(old_names & new_names):
        stacked = np.load(old / name)
        radius = np.load(new / name)
        inradius_path = new / (name[:-len(".npy")] + SUFFIX)
        if not inradius_path.is_file():
            diffs.append(f"{inradius_path.name} missing")
            continue
        inradius = np.load(inradius_path)
        if not same(radius, np.concatenate([stacked[0, :1], stacked[1, 1:]])):
            diffs.append(f"{name}: radius table differs")
        if not same(inradius, stacked[0, 1:]):
            diffs.append(f"{inradius_path.name}: inradius table differs")
    return diffs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_dir")
    ap.add_argument("new_dir")
    args = ap.parse_args(argv)
    old_root, new_root = Path(args.old_dir), Path(args.new_dir)
    studies = sorted(p.relative_to(old_root) for p in old_root.rglob("families") if p.is_dir())
    if not studies:
        sys.exit(f"compare_family_tables: no families directory under {old_root}")
    diffs = []
    for rel in studies:
        if not (new_root / rel).is_dir():
            diffs.append(f"{rel}: missing from the new tree")
            continue
        found = compare_dir(old_root / rel, new_root / rel)
        count = len(list((old_root / rel).glob("delta_*.npy")))
        print(f"{rel}: {count} families compared")
        diffs.extend(f"{rel}: {line}" for line in found)
    for line in diffs:
        print(f"DIFFERS {line}")
    print("identical tables" if not diffs else f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
