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


SUMMARY = ["ic_00: ic=0.1 rmse=0.5 certified=1.000 descent_violations=3 fallbacks=0",
           "ic_01: ic=0.2 rmse=0.25 certified=0.900 descent_violations=0 fallbacks=1"]


def summary_diff(tmp_path, old, new):
    paths = tmp_path / "old.txt", tmp_path / "new.txt"
    for path, lines in zip(paths, (old, new)):
        path.write_text("\n".join(lines) + "\n")
    return compare_outputs.summary_diff(*paths)


def test_summary_diff_names_fields_and_lines(tmp_path):
    new = [SUMMARY[0].replace("certified=1.000", "certified=0.000 heuristic=1.000"),
           SUMMARY[1].replace("certified=0.900", "certified=0.900 heuristic=0.000")]
    assert summary_diff(tmp_path, SUMMARY, new) == "in certified (1 line), heuristic added (2 lines)"
    assert summary_diff(tmp_path, new, SUMMARY) == (
        "in certified (1 line), heuristic removed (2 lines)")
    edited = [SUMMARY[0], SUMMARY[1].replace("rmse=0.25", "rmse=0.3").replace("=1", "=2")]
    assert summary_diff(tmp_path, SUMMARY, edited) == "in rmse (1 line), fallbacks (1 line)"


def test_summary_diff_gives_up_on_other_tags(tmp_path):
    assert summary_diff(tmp_path, SUMMARY, SUMMARY[:1]) is None
    assert summary_diff(tmp_path, SUMMARY, SUMMARY[::-1]) is None
    assert summary_diff(tmp_path, SUMMARY, [SUMMARY[0].replace("ic_00", "ic_02"),
                                            SUMMARY[1]]) is None
    # the same fields and values in another order: nothing to name
    swapped = [SUMMARY[0].replace("ic=0.1 rmse=0.5", "rmse=0.5 ic=0.1"), SUMMARY[1]]
    assert summary_diff(tmp_path, SUMMARY, swapped) is None


def test_compare_dirs_names_summary_fields(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for top, lines in ((old, SUMMARY), (new, [SUMMARY[0].replace("fallbacks=0", "fallbacks=9"),
                                              SUMMARY[1]])):
        top.mkdir()
        (top / "summary.txt").write_text("\n".join(lines) + "\n")
    assert compare_outputs.compare_dirs("numerical", old, new) == [
        "numerical: summary.txt differs in fallbacks (1 line)"]


def test_compare_dirs_names_trajectory_table_changes(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    table = ["# plant=pendulum noisy=1 count=1", "traj,t,u,y,y_noisy", "0,0,0.5,0.1,0.11",
             "0,1,,0.2,0.19"]
    for top, lines in ((old, table), (new, [table[0], "traj,t,u,y", "0,0,0.5,0.11",
                                            "0,1,,0.19"])):
        top.mkdir()
        (top / "trajectories.csv").write_text("\n".join(lines) + "\n")
    assert compare_outputs.compare_dirs("pendulum-noisy", old, new) == [
        "pendulum-noisy: trajectories.csv differs in header traj,t,u,y,y_noisy -> traj,t,u,y"]
    (new / "trajectories.csv").write_text("\n".join(table[:3] + ["0,1,,0.2,0.2"]) + "\n")
    assert compare_outputs.compare_dirs("pendulum-noisy", old, new) == [
        "pendulum-noisy: trajectories.csv differs in y_noisy (1 row)"]
