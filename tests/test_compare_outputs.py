import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

LOG = ["# ic = 0.1,0.2", "t,delta,slack,u", "0,0.1,1e-3,0.5", "1,0.1,2e-3,0.6",
       "2,0.2,3e-3,0.7"]


def column_diff(tmp_path, old, new):
    paths = tmp_path / "old.csv", tmp_path / "new.csv"
    for path, lines in zip(paths, (old, new)):
        path.write_text("\n".join(lines) + "\n")
    return compare_outputs.column_diff(*paths)


def test_column_diff_names_columns_and_rows(tmp_path):
    new = LOG[:2] + ["0,0.1,1.0000001e-3,0.5", "1,0.1,2e-3,0.6", "2,0.2,3.1e-3,0.8"]
    assert column_diff(tmp_path, LOG, new) == "in slack (2 rows), u (1 row)"
    assert column_diff(tmp_path, LOG, LOG[:3] + ["1,0.1,2e-3,0.61"] + LOG[4:]) == "in u (1 row)"


def test_column_diff_gives_up_on_layout_changes(tmp_path):
    assert column_diff(tmp_path, LOG, ["# ic = 0.1,0.3"] + LOG[1:]) is None
    assert column_diff(tmp_path, LOG, [LOG[0], "t,delta,gap,u"] + LOG[2:]) is None
    assert column_diff(tmp_path, LOG, LOG[:-1]) is None
    assert column_diff(tmp_path, LOG, LOG[:-1] + ["2,0.2,3e-3"]) is None
