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


def output_dirs(tmp_path, new_rows):
    """An output directory in the older trajectory layout (``manifest.txt``
    plus one CSV per trajectory, rows ending in CRLF) and one holding a
    ``trajectories.csv`` with ``new_rows``, each with the same model file."""
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "trajectories").mkdir(parents=True)
    new.mkdir()
    (old / "manifest.txt").write_text("plant = numerical\nseed = 3\nnoisy = 0\ncount = 2\n"
                                      "file = traj_0000.csv\nfile = traj_0001.csv\n")
    for name, rows in (("traj_0000.csv", ["0,0.5,-1", "1,,0.25"]),
                       ("traj_0001.csv", ["0,1e-05,2", "1,0.5,3", "2,,4"])):
        (old / "trajectories" / name).write_bytes("".join(
            f"{row}\r\n" for row in ["t,u,y"] + rows).encode())
    (new / "trajectories.csv").write_text("".join(
        f"{row}\n" for row in ["# plant=numerical seed=3 noisy=0 count=2", "traj,t,u,y"]
        + new_rows))
    for top in (old, new):
        (top / "model.txt").write_text("weights\n")
    return old, new


NEW_ROWS = ["0,0,0.5,-1", "0,1,,0.25", "1,0,1e-05,2", "1,1,0.5,3", "1,2,,4"]


def test_layout_change_with_identical_contents(tmp_path, capsys):
    old, new = output_dirs(tmp_path, NEW_ROWS)
    assert compare_outputs.compare_dirs("numerical", old, new) == []
    assert compare_outputs.compare_dirs("numerical", new, old) == []
    assert "numerical: trajectory layout differs, contents identical" in capsys.readouterr().out


def test_layout_change_names_the_first_differing_row(tmp_path):
    old, new = output_dirs(tmp_path, NEW_ROWS[:3] + ["1,1,0.5,3.0000000000000004", "1,2,,4"])
    (new / "model.txt").write_text("other weights\n")
    assert compare_outputs.compare_dirs("numerical", old, new) == [
        "numerical: trajectory layout differs, and its contents at trajectory 1 row 1",
        "numerical: model.txt differs"]
    old, new = output_dirs(tmp_path / "short", NEW_ROWS[:-1])
    assert compare_outputs.compare_dirs("numerical", old, new) == [
        "numerical: trajectory layout differs, and its contents at trajectory 1 row 2"]
    (new / "trajectories.csv").write_text("# plant=numerical seed=4 noisy=0 count=2\n")
    assert compare_outputs.compare_dirs("numerical", old, new) == [
        "numerical: trajectory layout differs, and its contents at the comment"]


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
