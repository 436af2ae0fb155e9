import importlib.util
from pathlib import Path

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
