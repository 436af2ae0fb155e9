import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs(parent, change, name="t_s"):
    return [({"metrics": {name: {"value": p}}}, {"metrics": {name: {"value": c}}})
            for p, c in zip(parent, change)]


def verdict(parent, change, better="lower", bound=0.25):
    metric = {"name": "t_s", "unit": "s", "better": better, "bound": bound}
    rows = bench_pairs.summary([metric], pairs(parent, change))
    assert len(rows) == 1
    return rows[0].split()[0]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.03


def test_gain_when_nine_of_ten_win_beyond_the_iqr():
    change = [p - 0.3 for p in PARENT]
    assert verdict(PARENT, change) == "gain"
    change[0] = PARENT[0] + 0.1  # one loss of ten still counts
    assert verdict(PARENT, change) == "gain"
    change[1] = PARENT[1] + 0.1  # two do not
    assert verdict(PARENT, change) == "-"


def test_no_gain_when_the_median_moves_within_the_iqr():
    assert verdict(PARENT, [p - 0.01 for p in PARENT]) == "-"


def test_ties_count_for_neither_side():
    change = [p - 0.3 for p in PARENT]
    change[0] = PARENT[0]
    assert verdict(PARENT, change) == "gain"
    change[1] = PARENT[1]
    assert verdict(PARENT, change) == "-"


@pytest.mark.parametrize("factor,expected", [(1.2, "-"), (1.3, "worse")])
def test_worse_beyond_the_bound(factor, expected):
    assert verdict(PARENT, [p * factor for p in PARENT]) == expected


def test_higher_is_better():
    up = [p + 0.5 for p in PARENT]
    assert verdict(PARENT, up, better="higher") == "gain"
    assert verdict(up, PARENT, better="higher") == "worse"
    assert verdict(PARENT, up) == "worse"


def test_metric_missing_from_a_side_is_skipped():
    metric = {"name": "other", "unit": "s", "better": "lower", "bound": 0.25}
    assert bench_pairs.summary([metric], pairs(PARENT, PARENT)) == []


def test_json_holds_each_workload_with_seeds_environment_and_verdicts(tmp_path):
    metric = {"name": "t_s", "unit": "s", "better": "lower", "bound": 0.25}
    results = pairs(PARENT, [p - 0.3 for p in PARENT])
    for parent, change in results:
        parent["environment"], change["environment"] = {"commit": "a"}, {"commit": "b"}
    path = tmp_path / "bench.json"
    seeds = list(range(20, 30))
    sources = {"parent": "0" * 64, "change": "f" * 64}
    bench_pairs.write_json(path, "w1", seeds, [metric], results, sources)
    bench_pairs.write_json(path, "w2", seeds[:2], [metric], results[:2], sources)
    doc = json.loads(path.read_text())
    assert sorted(doc["workloads"]) == ["w1", "w2"]
    w1 = doc["workloads"]["w1"]
    assert w1["seeds"] == seeds
    assert w1["environment"] == {"parent": {"commit": "a"}, "change": {"commit": "b"}}
    assert w1["host"]["nproc"] >= 1
    (row,) = w1["metrics"]
    assert row["verdict"] == "gain" and row["wins"] == 10 and row["ties"] == 0
    q1, median, q3 = np.percentile(PARENT, [25, 50, 75])
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (q1, median, q3)
    assert row["change_median"] == np.median([p - 0.3 for p in PARENT])
    assert row["pairs"][0] == [PARENT[0], PARENT[0] - 0.3]
    # the printed summary reads the same figures
    line = bench_pairs.summary([metric], results)[0]
    assert line.startswith("gain") and "wins 10/10" in line
    w2 = doc["workloads"]["w2"]
    assert w2["seeds"] == seeds[:2] and len(w2["metrics"][0]["pairs"]) == 2


def test_json_names_the_source_each_side_ran(tmp_path):
    # the digest covers src/invctrl/*.py only, in sorted name order
    trees = {}
    for side, body in (("parent", b"x = 1\n"), ("change", b"x = 2\n")):
        pkg = tmp_path / side / "src" / "invctrl"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_bytes(body)
        (pkg / "a.py").write_bytes(b"import b\n")
        (pkg / "notes.txt").write_bytes(b"not source")
        trees[side] = tmp_path / side
    sources = {side: bench_pairs.src_sha256(tree) for side, tree in trees.items()}
    assert sources["parent"] == hashlib.sha256(b"import b\nx = 1\n").hexdigest()
    assert sources["change"] == hashlib.sha256(b"import b\nx = 2\n").hexdigest()
    metric = {"name": "t_s", "unit": "s", "better": "lower", "bound": 0.25}
    path = tmp_path / "bench.json"
    bench_pairs.write_json(path, "w", [1, 2], [metric], pairs([1.0, 1.0], [0.9, 0.9]),
                           sources)
    assert json.loads(path.read_text())["workloads"]["w"]["src_sha256"] == sources
