import importlib.util
from pathlib import Path

import numpy as np

from invctrl.levelsets import ABSENT

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_family_tables.py"
_spec = importlib.util.spec_from_file_location("compare_family_tables", SCRIPT)
compare_family_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_family_tables)


def write_trees(root, levels=3, records=5):
    """One study's families in both layouts: ``old`` stacked (2, levels,
    records), ``new`` split into radius and inradius files."""
    rng = np.random.default_rng(levels)
    stacked = rng.uniform(0.1, 1.0, size=(2, levels, records))
    stacked[:, :, 0] = ABSENT
    for side in ("old", "new"):
        (root / side / "study" / "families").mkdir(parents=True)
    for tag in ("0p1", "1"):
        np.save(root / "old/study/families" / f"delta_{tag}.npy", stacked)
        new = root / "new/study/families"
        np.save(new / f"delta_{tag}.npy", np.concatenate([stacked[0, :1], stacked[1, 1:]]))
        np.save(new / f"delta_{tag}.inradius.npy", stacked[0, 1:])
    return stacked


def test_split_tables_equal_the_stacked_ones(tmp_path, capsys):
    write_trees(tmp_path)
    assert compare_family_tables.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    out = capsys.readouterr().out
    assert "study/families: 2 families compared" in out and "identical tables" in out


def test_one_changed_bit_or_file_is_named(tmp_path, capsys):
    stacked = write_trees(tmp_path)
    new = tmp_path / "new/study/families"
    inradius = stacked[0, 1:].copy()
    inradius[1, 2] = np.nextafter(inradius[1, 2], 2.0)
    np.save(new / "delta_1.inradius.npy", inradius)
    (new / "delta_0p1.npy").unlink()
    assert compare_family_tables.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS study/families: delta_0p1.npy only in the old tree" in out
    assert "DIFFERS study/families: delta_1.inradius.npy: inradius table differs" in out
    # a stacked table compared with itself is not the split layout
    assert compare_family_tables.main([str(tmp_path / "old"), str(tmp_path / "old")]) == 1
